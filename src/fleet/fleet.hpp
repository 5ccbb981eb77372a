#pragma once

// Fleet — N serving replicas as one simulated deployment.
//
// Wires Replicas to a shared LoopbackTransport and GossipBus, fans
// machine registration out to every replica, load-balances calls
// round-robin, and exposes fleet-wide operations: caller-driven gossip
// rounds, coordinated retrain from any replica, aggregate stats.
// Everything a multi-process deployment would do over sockets happens
// here over the same wire format, in one process — which is what the
// tests, the example and the scaling benchmark drive.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/gossip.hpp"
#include "fleet/replica.hpp"
#include "fleet/transport.hpp"

namespace tp::fleet {

struct FleetConfig {
  std::size_t replicas = 3;  ///< ids "replica-0", "replica-1", ...
  serve::ServiceConfig service;  ///< applied to every replica
  bool gossipEnabled = true;  ///< off = replicas refine independently
  /// Root for per-replica snapshot directories ("<dir>/<replica-id>");
  /// empty = persistence off.
  std::string snapshotDir;
  /// Namespace for the fleet's own registry entries (the shared
  /// transport's counters register under "<metricsPrefix>transport.*"
  /// when service.metrics is set; per-replica service entries are
  /// namespaced by replica id separately). Removed in the destructor.
  std::string metricsPrefix = "fleet.";
};

class Fleet {
public:
  explicit Fleet(FleetConfig config);
  ~Fleet();  ///< shuts every replica down

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  std::size_t size() const noexcept { return replicas_.size(); }
  Replica& replica(std::size_t index);
  LoopbackTransport& transport() noexcept { return transport_; }
  GossipBus& gossip() noexcept { return bus_; }

  /// Register a machine + model on every replica.
  void addMachine(const sim::MachineConfig& machine,
                  std::shared_ptr<const ml::Classifier> model);

  /// Serve one request on the next replica, round-robin. Borrows the
  /// request like PartitionService::call().
  serve::LaunchResponse call(const serve::LaunchRequest& request);

  /// One anti-entropy round on the calling thread (no-op fleet-wide when
  /// gossip is disabled). Returns participants invoked.
  std::size_t gossipRound();

  /// Fleet-wide retrain coordinated by `leader`.
  Replica::FleetRetrain retrainFleet(std::size_t leader = 0);

  /// Snapshot every replica; returns per-replica sequence numbers.
  std::vector<std::uint64_t> saveSnapshots();

  void drainAll();
  void shutdownAll();

  /// Install every replica's detector rules into `monitor` (see
  /// Replica::registerHealthRules). Per-replica id prefixes and
  /// metricsPrefixes keep the rule names distinct. Stop the monitor
  /// before this fleet is destroyed.
  void registerHealthRules(obs::HealthMonitor& monitor,
                           const FleetHealthConfig& rules = {});

  struct FleetStats {
    std::vector<ReplicaStats> replicas;  ///< index order
    TransportCounters transport;
    std::uint64_t gossipRounds = 0;
    /// Participant exceptions caught by the bus's round failure boundary.
    std::uint64_t gossipRoundErrors = 0;
  };
  FleetStats stats() const;

private:
  FleetConfig config_;
  LoopbackTransport transport_;
  GossipBus bus_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::atomic<std::uint64_t> nextReplica_{0};
};

}  // namespace tp::fleet
