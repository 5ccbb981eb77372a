#include "fleet/replica.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <unordered_set>

#include "common/annotations.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/log.hpp"
#include "obs/clock.hpp"
#include "obs/trace.hpp"
#include "runtime/evaluation.hpp"

namespace tp::fleet {

namespace {

// <id>.retrain_overrun: the last coordinateRetrain() took longer than
// this, debounced like the service's stock rules.
constexpr double kRetrainOverrunSeconds = 60.0;
constexpr std::size_t kRetrainOverrunTriggerAfter = 2;
constexpr std::size_t kRetrainOverrunClearAfter = 2;

/// Order-independent digest of a win set (records may come out of the
/// refiner's shards in any order). Folds the peer count in, so a replica
/// joining the transport forces a re-broadcast of otherwise unchanged
/// state — anti-entropy must reach newcomers.
std::uint64_t winsDigest(const std::vector<adapt::WinRecord>& wins,
                         std::size_t peers) {
  std::uint64_t digest = common::fnvU64(common::kFnvOffset, peers);
  digest = common::fnvU64(digest, wins.size());
  std::uint64_t fold = 0;
  for (const adapt::WinRecord& rec : wins) {
    std::uint64_t h = common::hashLaunchKey(rec.key.machine, rec.key.program,
                                            rec.key.signature);
    h = common::fnvU64(h, rec.modelVersion);
    h = common::fnvU64(h, rec.incumbentLabel);
    h = common::fnvDouble(h, rec.incumbentMean);
    for (const adapt::WinArm& arm : rec.arms) {
      h = common::fnvU64(h, arm.label);
      h = common::fnvU64(h, arm.count);
      h = common::fnvDouble(h, arm.meanSeconds);
    }
    fold ^= h;  // XOR: commutative across record order
  }
  return common::fnvU64(digest, fold);
}

std::uint64_t recordDedupHash(const runtime::LaunchRecord& rec) {
  std::uint64_t h = common::kFnvOffset;
  h = common::fnvString(h, rec.machine);
  h = common::fnvString(h, rec.program);
  h = common::fnvString(h, rec.sizeLabel);
  h = common::fnvDoubles(h, rec.staticFeatures);
  h = common::fnvDoubles(h, rec.runtimeFeatures);
  return h;
}

}  // namespace

Replica::Replica(ReplicaConfig config, Transport& transport, GossipBus* bus)
    : config_(std::move(config)), transport_(transport), bus_(bus) {
  TP_REQUIRE(!config_.id.empty(), "Replica: empty id");
  TP_REQUIRE(config_.quorumFraction >= 0.0 && config_.quorumFraction <= 1.0,
             "Replica: quorumFraction must be in [0, 1], got "
                 << config_.quorumFraction);
  service_ = std::make_unique<serve::PartitionService>(config_.service);
  if (!config_.snapshotDir.empty()) {
    store_.emplace(config_.snapshotDir, config_.snapshotKeepLast);
  }
  {
    common::MutexLock lock(gossipMutex_);
    retryRng_.reseed(config_.retrySeed);
  }
  // Start sequence numbers at the monotonic clock: a killed-and-restarted
  // replica reusing its id resumes with sequence numbers *above* anything
  // it sent in its previous life, so peers' replay windows never mistake
  // its fresh messages for replays.
  seq_.store(obs::nowTicks(), std::memory_order_relaxed);
  transport_.attach(config_.id,
                    [this](const Envelope& envelope) { handle(envelope); });
  if (bus_ != nullptr) {
    bus_->join(config_.id, [this] { publishWins(); });
  }
}

Replica::~Replica() {
  if (bus_ != nullptr) bus_->leave(config_.id);
  transport_.detach(config_.id);
  service_->shutdown();
}

void Replica::addMachine(const sim::MachineConfig& machine,
                         std::shared_ptr<const ml::Classifier> model) {
  service_->addMachine(machine, std::move(model));
}

std::future<serve::LaunchResponse> Replica::submit(
    serve::LaunchRequest request) {
  return service_->submit(std::move(request));
}

serve::LaunchResponse Replica::call(serve::LaunchRequest request) {
  return service_->call(std::move(request));
}

// All counters_ members are monotonic stat words folded into stats();
// they publish no payload, so every bump below is relaxed.
bool Replica::warmStart()
    TP_LOCK_FREE_AUDITED(
        "relaxed monotonic stat bumps; snapshot state itself is installed "
        "through installModels/mergeRemoteWins which synchronize internally; "
        "TSan: test_fleet Fleet.CountersReconcileUnderConcurrentGossipAndRetrain") {
  if (!store_.has_value()) return false;
  const auto snapshot = store_->loadLatest();
  if (!snapshot.has_value()) return false;
  TP_TRACE_SPAN_ARG("fleet.snapshot_load", snapshot->wins.size());

  std::vector<serve::PartitionService::ModelUpdate> updates;
  updates.reserve(snapshot->models.size());
  for (const ModelBlob& blob : snapshot->models) {
    std::istringstream is(blob.model);
    updates.push_back(serve::PartitionService::ModelUpdate{
        blob.machine,
        std::shared_ptr<const ml::Classifier>(ml::loadClassifier(is))});
  }
  service_->installModels(updates, snapshot->modelVersion);

  // The refiner state flows through the same merge path as gossip (and
  // shows up in the same counters): every record carries the snapshot's
  // generation, which installModels just made current.
  const adapt::MergeResult result = service_->mergeRemoteWins(snapshot->wins);
  counters_.winsReceived.fetch_add(snapshot->wins.size(),
                                   std::memory_order_relaxed);
  counters_.winsMerged.fetch_add(result.merged(), std::memory_order_relaxed);
  counters_.winsAdopted.fetch_add(result.adopted, std::memory_order_relaxed);
  counters_.winsRejectedStale.fetch_add(result.stale,
                                        std::memory_order_relaxed);
  counters_.winsDropped.fetch_add(result.dropped, std::memory_order_relaxed);
  counters_.snapshotsLoaded.fetch_add(1, std::memory_order_relaxed);
  counters_.modelInstalls.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::uint64_t Replica::saveSnapshot()
    TP_LOCK_FREE_AUDITED(
        "relaxed monotonic stat bump; the snapshot bytes are sequenced by "
        "SnapshotStore::save itself; TSan: test_fleet "
        "Fleet.CountersReconcileUnderConcurrentGossipAndRetrain") {
  TP_TRACE_SPAN("fleet.snapshot_save");
  TP_REQUIRE(store_.has_value(),
             "Replica " << config_.id << ": no snapshotDir configured");
  // Models, generation and refiner state are read in separate calls; a
  // retrain landing in between would mix generations. Retry on version
  // movement — a torn snapshot is still safe (stale-generation wins are
  // rejected on load) but a clean one is better.
  ReplicaSnapshot snapshot;
  for (int attempt = 0; attempt < 3; ++attempt) {
    snapshot = ReplicaSnapshot{};
    snapshot.modelVersion = service_->modelVersion();
    for (const auto& deployed : service_->deployedModels()) {
      std::ostringstream os;
      deployed.model->save(os);
      snapshot.models.push_back(ModelBlob{deployed.machine, os.str()});
    }
    snapshot.wins = service_->exportRefinedWins(/*refinedOnly=*/false);
    if (service_->modelVersion() == snapshot.modelVersion) break;
  }
  const std::uint64_t seq = store_->save(snapshot);
  counters_.snapshotsWritten.fetch_add(1, std::memory_order_relaxed);
  return seq;
}

void Replica::publishWins()
    TP_LOCK_FREE_AUDITED(
        "digest/skip words are a broadcast-suppression heuristic private to "
        "the gossip round: a stale read only costs one redundant (idempotent) "
        "re-offer, so every access is relaxed; counters are monotonic stats; "
        "TSan: test_fleet Fleet.CountersReconcileUnderConcurrentGossipAndRetrain") {
  TP_TRACE_SPAN("fleet.gossip_publish");
  // Liveness heartbeat for the gossip_stall detector: counted on entry,
  // before any skip path — a stalled *bus* is the failure mode, not a
  // digest-quiet round.
  gossipRounds_.fetch_add(1, std::memory_order_relaxed);
  // Full-state anti-entropy, not a refined-only delta: the measured
  // evidence for *unrefined* neighborhoods is worth as much as the wins
  // (a peer that merges it stops probing those arms), and re-offering
  // everything each round is what lets merges stay idempotent while
  // still reaching replicas that missed earlier rounds. The digest skip
  // below keeps steady-state rounds free.
  const auto wins = service_->exportRefinedWins(/*refinedOnly=*/false);
  if (wins.empty()) {
    counters_.gossipRoundsSkipped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const auto nodes = transport_.nodes();
  const std::uint64_t digest = winsDigest(wins, nodes.size());
  bool fullRound = true;
  if (lastWinsDigest_.exchange(digest, std::memory_order_relaxed) == digest) {
    // Unchanged state — but never stay silent forever: a peer that
    // (re)joined at the same node count, or missed a broadcast, only
    // converges if the state is periodically re-offered.
    const std::size_t skipped =
        skippedSinceBroadcast_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (config_.gossipRefreshRounds == 0 ||
        skipped < config_.gossipRefreshRounds) {
      counters_.gossipRoundsSkipped.fetch_add(1, std::memory_order_relaxed);
      fullRound = false;
    }
  }
  if (fullRound) skippedSinceBroadcast_.store(0, std::memory_order_relaxed);

  // Per-peer targets instead of a fire-and-forget broadcast: healthy
  // peers get every full round; a peer whose last send threw is skipped
  // until its backoff elapses and then retried — even on digest-quiet
  // rounds, so recovery is not gated on new local state.
  std::vector<std::string> targets;
  std::vector<bool> isRetry;
  {
    const std::uint64_t now = obs::nowTicks();
    common::MutexLock lock(gossipMutex_);
    for (const std::string& peer : nodes) {
      if (peer == config_.id) continue;
      const auto it = peerBackoff_.find(peer);
      const bool failing = it != peerBackoff_.end();
      if (failing && now < it->second.nextRetryTicks) continue;
      if (fullRound || failing) {
        targets.push_back(peer);
        isRetry.push_back(failing);
      }
    }
  }
  if (targets.empty()) return;

  Envelope envelope;
  envelope.kind = MsgKind::WinsGossip;
  envelope.from = config_.id;
  envelope.seq = nextSeq();
  envelope.payload = encodeWins(wins);
  bool anyDelivered = false;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (isRetry[i]) {
      counters_.sendRetries.fetch_add(1, std::memory_order_relaxed);
    }
    try {
      transport_.send(config_.id, targets[i], envelope);
      anyDelivered = true;
      common::MutexLock lock(gossipMutex_);
      peerBackoff_.erase(targets[i]);
    } catch (const std::exception& e) {
      TP_WARN("replica " << config_.id << ": gossip send to " << targets[i]
                         << " failed: " << e.what());
      notePeerSendFailure(targets[i]);
    } catch (...) {
      TP_WARN("replica " << config_.id << ": gossip send to " << targets[i]
                         << " failed (non-exception)");
      notePeerSendFailure(targets[i]);
    }
  }
  if (anyDelivered) {
    counters_.winsSent.fetch_add(wins.size(), std::memory_order_relaxed);
  }
}

void Replica::notePeerSendFailure(const std::string& peer) {
  counters_.sendFailures.fetch_add(1, std::memory_order_relaxed);
  common::MutexLock lock(gossipMutex_);
  PeerBackoff& backoff = peerBackoff_[peer];
  ++backoff.failCount;
  // Decorrelated jitter: next delay is uniform between the base and 3x
  // the previous delay, capped — retries from many replicas decorrelate
  // instead of thundering back in lockstep.
  const double base = std::max(0.0, config_.retryBackoffBaseSeconds);
  const double cap = std::max(base, config_.retryBackoffCapSeconds);
  const double prev = backoff.backoffSeconds > 0.0 ? backoff.backoffSeconds
                                                   : base;
  const double next = retryRng_.uniform(base, std::min(cap, prev * 3.0));
  backoff.backoffSeconds = std::max(base, next);
  backoff.nextRetryTicks =
      obs::nowTicks() +
      static_cast<std::uint64_t>(backoff.backoffSeconds * 1e9);
}

std::size_t Replica::quorumOf(std::size_t nodes) const {
  if (nodes == 0) return 1;
  const auto bar = static_cast<std::size_t>(static_cast<double>(nodes) *
                                            config_.quorumFraction) +
                   1;
  return std::min(nodes, bar);
}

bool Replica::tryGrantLease(const std::string& holder,
                            std::uint64_t generation, std::uint64_t ttlNanos,
                            std::string* conflictHolder) {
  common::MutexLock lock(leaseMutex_);
  const std::uint64_t now = obs::nowTicks();
  // A live lease by someone else blocks only same-or-newer generations:
  // a request for generation g+1 proves the requester already saw the
  // install that lease g protected, so it cannot conflict with it.
  if (!leaseHolder_.empty() && leaseHolder_ != holder &&
      now < leaseExpiryTicks_ && leaseGeneration_ >= generation) {
    if (conflictHolder != nullptr) *conflictHolder = leaseHolder_;
    return false;
  }
  leaseHolder_ = holder;
  leaseGeneration_ = generation;
  leaseExpiryTicks_ = now + ttlNanos;
  if (conflictHolder != nullptr) *conflictHolder = holder;
  return true;
}

void Replica::releaseLease(std::uint64_t generation) {
  common::MutexLock lock(leaseMutex_);
  if (leaseHolder_ == config_.id && leaseGeneration_ == generation) {
    leaseHolder_.clear();
    leaseExpiryTicks_ = 0;
  }
}

Replica::FleetRetrain Replica::coordinateRetrain() {
  TP_TRACE_SPAN("fleet.coordinate_retrain");
  const auto retrainStart = obs::Clock::now();
  const auto nodes = transport_.nodes();
  const std::size_t peers = nodes.empty() ? 0 : nodes.size() - 1;
  const std::uint64_t generation = service_->modelVersion() + 1;
  const auto ttlNanos =
      static_cast<std::uint64_t>(config_.leaseTtlSeconds * 1e9);

  FleetRetrain result;
  result.modelVersion = generation;
  result.quorumNeeded = quorumOf(nodes.size());

  const auto abortRetrain = [&](const std::string& why) {
    counters_.retrainsAborted.fetch_add(1, std::memory_order_relaxed);
    result.aborted = true;
    releaseLease(generation);
    TP_WARN("replica " << config_.id << ": retrain for generation "
                       << generation << " aborted: " << why);
    lastRetrainSeconds_.store(
        std::chrono::duration<double>(obs::Clock::now() - retrainStart)
            .count(),
        std::memory_order_relaxed);
    return result;
  };

  // Phase 1 — the lease. Self-grant first: a coordinator that cannot
  // hold its own lease is already racing a live coordinator. Then ask
  // every peer, and require a quorum of grants (self included) before
  // anything irreversible happens.
  std::string conflict;
  if (!tryGrantLease(config_.id, generation, ttlNanos, &conflict)) {
    return abortRetrain("lease held by " + conflict);
  }
  {
    common::MutexLock lock(leaseMutex_);
    collectingGrants_ = true;
    collectingGeneration_ = generation;
    grantsReceived_ = 0;
    leaseRepliesReceived_ = 0;
  }
  LeaseRequestMsg leaseMsg;
  leaseMsg.generation = generation;
  leaseMsg.ttlNanos = ttlNanos;
  Envelope leaseEnvelope;
  leaseEnvelope.kind = MsgKind::LeaseRequest;
  leaseEnvelope.from = config_.id;
  leaseEnvelope.seq = nextSeq();
  leaseEnvelope.payload = encodeLeaseRequest(leaseMsg);
  for (const std::string& peer : nodes) {
    if (peer == config_.id) continue;
    try {
      transport_.send(config_.id, peer, leaseEnvelope);
    } catch (const std::exception& e) {
      counters_.sendFailures.fetch_add(1, std::memory_order_relaxed);
      TP_WARN("replica " << config_.id << ": lease request to " << peer
                         << " failed: " << e.what());
    }
  }
  std::size_t grants = 1;  // the self-grant
  {
    common::MutexLock lock(leaseMutex_);
    const auto deadline =
        obs::Clock::now() +
        std::chrono::duration<double>(config_.retrainWaitSeconds);
    while (grantsReceived_ + 1 < result.quorumNeeded &&
           leaseRepliesReceived_ < peers) {
      if (leaseCv_.wait_until(leaseMutex_, deadline) ==
          std::cv_status::timeout) {
        break;
      }
    }
    grants += grantsReceived_;
    collectingGrants_ = false;
  }
  result.leaseGrants = grants;
  if (grants < result.quorumNeeded) {
    return abortRetrain("won " + std::to_string(grants) + "/" +
                        std::to_string(result.quorumNeeded) +
                        " lease grants");
  }

  // Phase 2 — feedback fan-in.
  {
    common::MutexLock lock(feedbackMutex_);
    pendingFeedback_.clear();
    collectingFeedback_ = true;
  }
  Envelope pull;
  pull.kind = MsgKind::FeedbackPull;
  pull.from = config_.id;
  pull.seq = nextSeq();
  for (const std::string& peer : nodes) {
    if (peer == config_.id) continue;
    try {
      transport_.send(config_.id, peer, pull);
    } catch (const std::exception& e) {
      counters_.sendFailures.fetch_add(1, std::memory_order_relaxed);
      TP_WARN("replica " << config_.id << ": feedback pull to " << peer
                         << " failed: " << e.what());
    }
  }

  std::vector<runtime::FeatureDatabase> remote;
  {
    common::MutexLock lock(feedbackMutex_);
    // Explicit deadline loop instead of the predicate overload (analysis
    // cannot see through the closure); semantics are identical: wake on
    // quorum or give up at the deadline.
    const auto deadline =
        obs::Clock::now() +
        std::chrono::duration<double>(config_.retrainWaitSeconds);
    while (pendingFeedback_.size() < peers) {
      if (feedbackCv_.wait_until(feedbackMutex_, deadline) ==
          std::cv_status::timeout) {
        break;
      }
    }
    collectingFeedback_ = false;
    remote = std::move(pendingFeedback_);
    pendingFeedback_.clear();
  }
  if (remote.size() + 1 < result.quorumNeeded) {
    result.peersHeard = remote.size();
    return abortRetrain("heard " + std::to_string(remote.size()) +
                        " feedback peers, quorum needs " +
                        std::to_string(result.quorumNeeded - 1));
  }

  // Union of the fleet's traffic, deduplicated the way FeedbackRecorder
  // deduplicates locally: one record per distinct launch.
  runtime::FeatureDatabase db = service_->trafficSnapshot();
  std::unordered_set<std::uint64_t> seen;
  for (const runtime::LaunchRecord& rec : db.records()) {
    seen.insert(recordDedupHash(rec));
  }
  for (const runtime::FeatureDatabase& peerDb : remote) {
    for (const runtime::LaunchRecord& rec : peerDb.records()) {
      if (seen.insert(recordDedupHash(rec)).second) db.add(rec);
    }
  }

  result.recordsUsed = db.size();
  result.peersHeard = remote.size();

  // Phase 3 — train on the union and fan the new generation out.
  ModelInstallMsg msg;
  msg.modelVersion = generation;
  for (const auto& deployed : service_->deployedModels()) {
    if (db.forMachine(deployed.machine).empty()) continue;
    const auto model = runtime::trainDeploymentModel(
        db, deployed.machine, config_.service.retrainSpec,
        runtime::FeatureSet::Combined, config_.service.retrainSeed);
    std::ostringstream os;
    model->save(os);
    msg.models.push_back(ModelBlob{deployed.machine, os.str()});
  }
  result.machinesRetrained = msg.models.size();

  Envelope install;
  install.kind = MsgKind::ModelInstall;
  install.from = config_.id;
  install.seq = nextSeq();
  install.payload = encodeModelInstall(msg);
  for (const std::string& peer : nodes) {
    if (peer == config_.id) continue;
    // A couple of bounded immediate retries: an install send is the one
    // message worth being stubborn about (a missed peer serves a stale
    // generation until the next retrain).
    for (int attempt = 0; attempt < 3; ++attempt) {
      try {
        transport_.send(config_.id, peer, install);
        if (attempt > 0) {
          counters_.sendRetries.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      } catch (const std::exception& e) {
        counters_.sendFailures.fetch_add(1, std::memory_order_relaxed);
        if (attempt == 2) {
          TP_WARN("replica " << config_.id << ": model install to " << peer
                             << " failed after 3 attempts: " << e.what());
        }
      }
    }
  }
  // The coordinator applies the same decoded message it fanned out, so
  // every replica — including this one — serves byte-identical models.
  // A racing coordinator can land a newer generation here between the
  // fan-out above and this self-apply; installModels then rejects the
  // backward move by throwing. Peers contain that throw in handle() —
  // the coordinator must too: the fleet is converging on the newer
  // generation (backward installs are rejected identically everywhere),
  // so this retrain simply lost the race. Counted as an abort.
  try {
    applyModelInstall(decodeModelInstall(install.payload), config_.id);
  } catch (const std::exception& e) {
    return abortRetrain(std::string("superseded before self-install: ") +
                        e.what());
  }
  releaseLease(generation);
  lastRetrainSeconds_.store(
      std::chrono::duration<double>(obs::Clock::now() - retrainStart).count(),
      std::memory_order_relaxed);
  return result;
}

void Replica::registerHealthRules(obs::HealthMonitor& monitor,
                                  const FleetHealthConfig& rules)
    TP_LOCK_FREE_AUDITED(
        "registers rule lambdas doing relaxed loads of the monotonic "
        "gossip-round word and the last-retrain word; the monitor runs "
        "them serially under its own mutex; TSan: test_health "
        "HealthMonitor.BreachWhileDrainStaysConsistent") {
  service_->registerHealthRules(monitor);
  if (bus_ != nullptr) {
    obs::DetectorRule rule;
    rule.name = config_.id + ".gossip_stall";
    rule.triggerAfter = rules.gossipStallEvals;
    rule.clearAfter = 1;  // one advancing round proves liveness again
    rule.evaluate = [this, prev = std::uint64_t{0},
                     baselined = false]() mutable -> std::optional<obs::Firing> {
      const std::uint64_t rounds =
          gossipRounds_.load(std::memory_order_relaxed);
      const std::uint64_t before = prev;
      prev = rounds;
      if (!baselined) {
        baselined = true;
        return std::nullopt;  // first evaluation only takes the baseline
      }
      // Quiet until the first round has run: not-yet-started is not
      // stalled (see FleetHealthConfig).
      if (rounds == 0 || rounds != before) return std::nullopt;
      return obs::Firing{static_cast<double>(rounds), 0.0,
                         "gossip rounds stalled at " + std::to_string(rounds) +
                             " on " + config_.id};
    };
    monitor.addRule(std::move(rule));
  }
  {
    obs::DetectorRule rule;
    rule.name = config_.id + ".retrain_overrun";
    rule.triggerAfter = kRetrainOverrunTriggerAfter;
    rule.clearAfter = kRetrainOverrunClearAfter;
    rule.evaluate = [this]() -> std::optional<obs::Firing> {
      const double last = lastRetrainSeconds_.load(std::memory_order_relaxed);
      if (last <= kRetrainOverrunSeconds) return std::nullopt;
      return obs::Firing{last, kRetrainOverrunSeconds,
                         "last fleet retrain coordinated by " + config_.id +
                             " took " + std::to_string(last) + "s"};
    };
    monitor.addRule(std::move(rule));
  }
}

serve::ServiceStats Replica::stats() const
    TP_LOCK_FREE_AUDITED(
        "relaxed snapshot of independent monotonic counters; readers accept "
        "per-word (not cross-word) consistency by contract; TSan: test_fleet "
        "Fleet.CountersReconcileUnderConcurrentGossipAndRetrain") {
  serve::ServiceStats s = service_->stats();
  using std::memory_order_relaxed;
  s.fleet.winsSent = counters_.winsSent.load(memory_order_relaxed);
  s.fleet.winsReceived = counters_.winsReceived.load(memory_order_relaxed);
  s.fleet.winsMerged = counters_.winsMerged.load(memory_order_relaxed);
  s.fleet.winsAdopted = counters_.winsAdopted.load(memory_order_relaxed);
  s.fleet.winsRejectedStale =
      counters_.winsRejectedStale.load(memory_order_relaxed);
  s.fleet.winsDropped = counters_.winsDropped.load(memory_order_relaxed);
  s.fleet.snapshotsWritten =
      counters_.snapshotsWritten.load(memory_order_relaxed);
  s.fleet.snapshotsLoaded =
      counters_.snapshotsLoaded.load(memory_order_relaxed);
  s.fleet.modelInstalls = counters_.modelInstalls.load(memory_order_relaxed);
  s.fleet.gossipRoundsSkipped =
      counters_.gossipRoundsSkipped.load(memory_order_relaxed);
  s.fleet.sendFailures = counters_.sendFailures.load(memory_order_relaxed);
  s.fleet.sendRetries = counters_.sendRetries.load(memory_order_relaxed);
  s.fleet.envelopesReceived =
      counters_.envelopesReceived.load(memory_order_relaxed);
  s.fleet.decodeFailures = counters_.decodeFailures.load(memory_order_relaxed);
  s.fleet.replaysRejected =
      counters_.replaysRejected.load(memory_order_relaxed);
  s.fleet.retrainsAborted =
      counters_.retrainsAborted.load(memory_order_relaxed);
  s.fleet.installsRejectedLease =
      counters_.installsRejectedLease.load(memory_order_relaxed);
  s.fleet.snapshotsSalvaged =
      store_.has_value() ? store_->corruptSnapshotsSkipped() : 0;
  return s;
}

bool Replica::acceptSeq(const std::string& sender, std::uint64_t seq) {
  common::MutexLock lock(replayMutex_);
  ReplayWindow& window = replayWindows_[sender];
  if (seq > window.high) {
    const std::uint64_t advance = seq - window.high;
    window.bits = advance >= 64 ? 0 : window.bits << advance;
    window.bits |= 1;  // bit 0 tracks `high` itself
    window.high = seq;
    return true;
  }
  const std::uint64_t age = window.high - seq;
  // Older than the window: indistinguishable from a replay, reject.
  if (age >= 64) return false;
  const std::uint64_t bit = std::uint64_t{1} << age;
  if ((window.bits & bit) != 0) return false;  // duplicate
  window.bits |= bit;  // benign reorder inside the window
  return true;
}

void Replica::handle(const Envelope& envelope)
    TP_LOCK_FREE_AUDITED(
        "relaxed monotonic rejection/arrival counters on the delivery "
        "thread; replay window and payload handlers synchronize via their "
        "own mutexes; TSan: test_fleet "
        "Fleet.CountersReconcileUnderConcurrentGossipAndRetrain") {
  counters_.envelopesReceived.fetch_add(1, std::memory_order_relaxed);
  if (!acceptSeq(envelope.from, envelope.seq)) {
    counters_.replaysRejected.fetch_add(1, std::memory_order_relaxed);
    TP_WARN("replica " << config_.id << ": rejecting replayed "
                       << msgKindName(envelope.kind) << " seq " << envelope.seq
                       << " from " << envelope.from);
    return;
  }
  try {
    switch (envelope.kind) {
      case MsgKind::WinsGossip:
        handleWins(envelope);
        return;
      case MsgKind::FeedbackPull:
        handleFeedbackPull(envelope);
        return;
      case MsgKind::FeedbackPush:
        handleFeedbackPush(envelope);
        return;
      case MsgKind::ModelInstall:
        applyModelInstall(decodeModelInstall(envelope.payload),
                          envelope.from);
        return;
      case MsgKind::LeaseRequest:
        handleLeaseRequest(envelope);
        return;
      case MsgKind::LeaseReply:
        handleLeaseReply(envelope);
        return;
    }
    TP_THROW("Replica: unhandled message kind "
             << static_cast<int>(envelope.kind));
  } catch (const std::exception& e) {
    // A malformed or unexpected message must not take the replica down
    // with it (the sender's state is not ours to trust) — counted, so
    // chaos harnesses can reconcile injected corruption against
    // observed rejections.
    counters_.decodeFailures.fetch_add(1, std::memory_order_relaxed);
    TP_WARN("replica " << config_.id << ": dropping "
                       << msgKindName(envelope.kind) << " from "
                       << envelope.from << ": " << e.what());
  }
}

void Replica::handleWins(const Envelope& envelope)
    TP_LOCK_FREE_AUDITED(
        "relaxed monotonic stat bumps after mergeRemoteWins (which holds the "
        "refiner's own locks); TSan: test_fleet "
        "Fleet.CountersReconcileUnderConcurrentGossipAndRetrain") {
  TP_TRACE_SPAN_ARG("fleet.gossip_merge", envelope.payload.size());
  const auto wins = decodeWins(envelope.payload);
  const adapt::MergeResult result = service_->mergeRemoteWins(wins);
  counters_.winsReceived.fetch_add(wins.size(), std::memory_order_relaxed);
  counters_.winsMerged.fetch_add(result.merged(), std::memory_order_relaxed);
  counters_.winsAdopted.fetch_add(result.adopted, std::memory_order_relaxed);
  counters_.winsRejectedStale.fetch_add(result.stale,
                                        std::memory_order_relaxed);
  counters_.winsDropped.fetch_add(result.dropped, std::memory_order_relaxed);
}

void Replica::handleFeedbackPull(const Envelope& envelope) {
  // A pull carries no body; anything else is corruption (the chaos
  // transport's byte-flips land here) and must be a counted rejection.
  TP_REQUIRE(envelope.payload.empty(),
             "FeedbackPull carries no payload, got "
                 << envelope.payload.size() << " bytes");
  Envelope push;
  push.kind = MsgKind::FeedbackPush;
  push.from = config_.id;
  push.seq = nextSeq();
  push.payload = encodeFeedback(service_->trafficSnapshot());
  transport_.send(config_.id, envelope.from, push);
}

void Replica::handleLeaseRequest(const Envelope& envelope) {
  const LeaseRequestMsg msg = decodeLeaseRequest(envelope.payload);
  LeaseReplyMsg reply;
  reply.generation = msg.generation;
  reply.granted =
      tryGrantLease(envelope.from, msg.generation, msg.ttlNanos,
                    &reply.holder);
  Envelope out;
  out.kind = MsgKind::LeaseReply;
  out.from = config_.id;
  out.seq = nextSeq();
  out.payload = encodeLeaseReply(reply);
  transport_.send(config_.id, envelope.from, out);
}

void Replica::handleLeaseReply(const Envelope& envelope) {
  const LeaseReplyMsg msg = decodeLeaseReply(envelope.payload);
  common::MutexLock lock(leaseMutex_);
  if (!collectingGrants_ || msg.generation != collectingGeneration_) {
    return;  // late reply from an abandoned lease round
  }
  ++leaseRepliesReceived_;
  if (msg.granted) ++grantsReceived_;
  leaseCv_.notify_all();
}

void Replica::handleFeedbackPush(const Envelope& envelope) {
  auto db = decodeFeedback(envelope.payload);
  common::MutexLock lock(feedbackMutex_);
  if (!collectingFeedback_) return;  // late reply from a previous pull
  pendingFeedback_.push_back(std::move(db));
  feedbackCv_.notify_all();
}

void Replica::applyModelInstall(const ModelInstallMsg& msg,
                                const std::string& sender)
    TP_LOCK_FREE_AUDITED(
        "relaxed monotonic stat bump; the install itself synchronizes inside "
        "installModels; TSan: test_fleet "
        "Fleet.CountersReconcileUnderConcurrentGossipAndRetrain") {
  TP_TRACE_SPAN_ARG("fleet.model_install", msg.modelVersion);
  {
    // The lease's last line of defense: while this generation is leased,
    // only the holder's install may land. A racing coordinator that lost
    // the quorum but still fanned out (or a replayed install) is a
    // counted no-op, never a conflicting same-version model swap.
    common::MutexLock lock(leaseMutex_);
    if (!leaseHolder_.empty() && leaseHolder_ != sender &&
        obs::nowTicks() < leaseExpiryTicks_ &&
        leaseGeneration_ == msg.modelVersion) {
      counters_.installsRejectedLease.fetch_add(1, std::memory_order_relaxed);
      TP_WARN("replica " << config_.id << ": rejecting model install at "
                         << "leased generation " << msg.modelVersion
                         << " from " << sender << " (lease holder is "
                         << leaseHolder_ << ")");
      return;
    }
  }
  std::vector<serve::PartitionService::ModelUpdate> updates;
  updates.reserve(msg.models.size());
  for (const ModelBlob& blob : msg.models) {
    std::istringstream is(blob.model);
    updates.push_back(serve::PartitionService::ModelUpdate{
        blob.machine,
        std::shared_ptr<const ml::Classifier>(ml::loadClassifier(is))});
  }
  service_->installModels(updates, msg.modelVersion);
  counters_.modelInstalls.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace tp::fleet
