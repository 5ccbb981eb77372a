#include "fleet/fleet.hpp"

#include "common/annotations.hpp"
#include "common/error.hpp"

namespace tp::fleet {

Fleet::Fleet(FleetConfig config) : config_(std::move(config)) {
  TP_REQUIRE(config_.replicas > 0, "Fleet: need at least one replica");
  for (std::size_t r = 0; r < config_.replicas; ++r) {
    ReplicaConfig rc;
    rc.id = "replica-" + std::to_string(r);
    rc.service = config_.service;
    // Decorrelate exploration across replicas: with one shared seed
    // every replica would draw identical probe decisions and re-measure
    // the same arms in lockstep, and gossip could never save a probe.
    rc.service.refiner.seed =
        config_.service.refiner.seed + 0x9E3779B9ull * r;
    // One registry or health monitor, many replicas: namespace each
    // service's metric entries and detector rules by replica id so they
    // never collide (and removeByPrefix in one replica's destructor
    // cannot unhook a sibling's). Replica ids are transport addresses and
    // may contain '-', which Registry names must not — sanitize the
    // prefix, not the id.
    std::string prefix = rc.id;
    for (char& c : prefix) {
      if (c == '-') c = '_';
    }
    rc.service.metricsPrefix = prefix + "." + config_.service.metricsPrefix;
    if (!config_.snapshotDir.empty()) {
      rc.snapshotDir = config_.snapshotDir + "/" + rc.id;
    }
    replicas_.push_back(std::make_unique<Replica>(
        std::move(rc), transport_, config_.gossipEnabled ? &bus_ : nullptr));
  }
  if (config_.service.metrics != nullptr) {
    // The shared transport's counters through the registry: delivery
    // accounting for the whole fleet under one prefix, sampled at
    // exposition time like every other registered counter.
    obs::Registry& reg = *config_.service.metrics;
    const std::string p = config_.metricsPrefix + "transport.";
    reg.registerCounter(p + "sent",
                        [this] { return transport_.counters().sent; });
    reg.registerCounter(p + "broadcasts",
                        [this] { return transport_.counters().broadcasts; });
    reg.registerCounter(p + "delivered",
                        [this] { return transport_.counters().delivered; });
    reg.registerCounter(p + "bytes_moved",
                        [this] { return transport_.counters().bytesMoved; });
    reg.registerCounter(p + "dropped",
                        [this] { return transport_.counters().dropped; });
    reg.registerCounter(p + "delivery_failures", [this] {
      return transport_.counters().deliveryFailures;
    });
    reg.registerCounter(p + "gossip_round_errors",
                        [this] { return bus_.roundErrors(); });
  }
}

Fleet::~Fleet() {
  // Quiesce before teardown: no more traffic; replica destructors then
  // leave the bus (waiting out a round in progress) and detach from the
  // transport with nothing in flight.
  shutdownAll();
  if (config_.service.metrics != nullptr) {
    // The callbacks above capture `this`; unhook them before the members
    // they read are destroyed.
    config_.service.metrics->removeByPrefix(config_.metricsPrefix);
  }
}

Replica& Fleet::replica(std::size_t index) {
  TP_REQUIRE(index < replicas_.size(), "Fleet: replica index "
                                           << index << " out of range (fleet "
                                              "of "
                                           << replicas_.size() << ")");
  return *replicas_[index];
}

void Fleet::addMachine(const sim::MachineConfig& machine,
                       std::shared_ptr<const ml::Classifier> model) {
  for (const auto& replica : replicas_) {
    replica->addMachine(machine, model);
  }
}

serve::LaunchResponse Fleet::call(const serve::LaunchRequest& request)
    TP_LOCK_FREE_AUDITED(
        "relaxed round-robin ticket; only fairness depends on it and each "
        "replica synchronizes internally; TSan: test_fleet "
        "Fleet.CountersReconcileUnderConcurrentGossipAndRetrain") {
  const std::size_t r =
      nextReplica_.fetch_add(1, std::memory_order_relaxed) % replicas_.size();
  return replicas_[r]->call(request);
}

std::size_t Fleet::gossipRound() { return bus_.runRound(); }

Replica::FleetRetrain Fleet::retrainFleet(std::size_t leader) {
  return replica(leader).coordinateRetrain();
}

std::vector<std::uint64_t> Fleet::saveSnapshots() {
  std::vector<std::uint64_t> sequences;
  sequences.reserve(replicas_.size());
  for (const auto& replica : replicas_) {
    sequences.push_back(replica->saveSnapshot());
  }
  return sequences;
}

void Fleet::drainAll() {
  for (const auto& replica : replicas_) replica->service().drain();
}

void Fleet::shutdownAll() {
  for (const auto& replica : replicas_) replica->service().shutdown();
}

void Fleet::registerHealthRules(obs::HealthMonitor& monitor,
                                const FleetHealthConfig& rules) {
  for (const auto& replica : replicas_) {
    replica->registerHealthRules(monitor, rules);
  }
}

Fleet::FleetStats Fleet::stats() const {
  FleetStats stats;
  stats.replicas.reserve(replicas_.size());
  for (const auto& replica : replicas_) {
    stats.replicas.push_back(replica->stats());
  }
  stats.transport = transport_.counters();
  stats.gossipRounds = bus_.rounds();
  stats.gossipRoundErrors = bus_.roundErrors();
  return stats;
}

}  // namespace tp::fleet
