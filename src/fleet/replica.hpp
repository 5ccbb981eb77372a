#pragma once

// Replica — one PartitionService wired into a fleet.
//
// A replica serves traffic like a standalone service, and additionally:
//
//   - publishes its refiner's adopted wins over the transport on each
//     gossip round (skipping no-change rounds via a state digest), and
//     merges win batches arriving from peers — so a partitioning win
//     measured on one machine warms every replica's refiner AND decision
//     cache without a single probe elsewhere;
//   - answers fleet retrain coordination: on FeedbackPull it ships its
//     recorded traffic to the coordinator; on ModelInstall it swaps in
//     the retrained models and invalidates its cache generation;
//   - persists snapshots (models + generation + full refiner state) to a
//     SnapshotStore, and warm-starts from the latest snapshot so a
//     restarted replica serves refined decisions from its first request.
//
// Message handlers run on whatever thread the transport delivers from
// and touch only thread-safe service surfaces. Detach-before-destroy is
// the caller's job (Fleet quiesces gossip before tearing replicas down).
//
// Fault tolerance: every peer-facing edge assumes the transport lies.
// Gossip publishes per-peer with capped exponential backoff (decorrelated
// jitter on the obs::Clock timebase) for peers whose sends threw; the
// envelope handler counts every arrival, rejects replayed/duplicated
// sequence numbers through a per-sender window, and treats any decode
// failure as a counted rejection instead of trusting the bytes.
// coordinateRetrain() only fans out a new generation after winning a
// quorum of expiring, generation-tagged lease grants — a racing second
// coordinator or a partitioned minority aborts as a safe no-op.

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/annotations.hpp"
#include "common/rng.hpp"

#include "fleet/gossip.hpp"
#include "fleet/snapshot.hpp"
#include "fleet/transport.hpp"
#include "obs/health.hpp"
#include "serve/service.hpp"

namespace tp::fleet {

/// The one tunable of the fleet-level detector rules
/// Replica::registerHealthRules() installs on top of the service's
/// stock set (retrain_overrun's 60 s threshold is fixed).
struct FleetHealthConfig {
  /// gossip_stall: consecutive evaluations the replica's gossip-round
  /// counter must fail to advance before the event fires. The rule
  /// stays quiet until the first round has run (a fleet that has not
  /// started gossip yet is not stalled), so start gossip before the
  /// monitor if you want the detector armed from the first evaluation.
  std::size_t gossipStallEvals = 3;
};

struct ReplicaConfig {
  std::string id;                 ///< transport address, must be unique
  serve::ServiceConfig service;   ///< per-replica serving configuration
  std::string snapshotDir;        ///< empty = persistence off
  /// Keep-last-K snapshot retention: older snapshot files are pruned
  /// after each save. 0 keeps every snapshot forever.
  std::size_t snapshotKeepLast = 8;
  /// How long coordinateRetrain() waits for peer feedback (loopback
  /// answers synchronously; a socket transport would not).
  double retrainWaitSeconds = 5.0;
  /// Force a full win-state broadcast after this many consecutive
  /// digest-skipped gossip rounds, so a peer that (re)joined or missed
  /// messages still converges even when the sender's state is static.
  /// 0 disables the refresh (pure digest skipping).
  std::size_t gossipRefreshRounds = 8;
  /// coordinateRetrain() needs floor(nodes * quorumFraction) + 1 lease
  /// grants (its own included, capped at the node count) before it may
  /// train and fan out a new generation; the same bar applies to the
  /// feedback responses it hears. 0.5 = strict majority.
  double quorumFraction = 0.5;
  /// How long a granted retrain lease stays exclusive. Expiry is stamped
  /// by each grantor on its own obs::Clock — a crashed coordinator frees
  /// the fleet after at most this long.
  double leaseTtlSeconds = 30.0;
  /// First retry delay after a peer's gossip send throws; subsequent
  /// failures back off exponentially with decorrelated jitter.
  double retryBackoffBaseSeconds = 0.05;
  /// Ceiling on the per-peer retry delay.
  double retryBackoffCapSeconds = 2.0;
  /// Seed for the backoff jitter stream (deterministic per replica).
  std::uint64_t retrySeed = 0x5EEDull;
};

class Replica {
public:
  /// Attaches to `transport` under config.id; joins `bus` (when given)
  /// with publishWins() as its round function.
  Replica(ReplicaConfig config, Transport& transport, GossipBus* bus = nullptr);
  ~Replica();

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  const std::string& id() const noexcept { return config_.id; }
  serve::PartitionService& service() noexcept { return *service_; }
  const serve::PartitionService& service() const noexcept { return *service_; }

  void addMachine(const sim::MachineConfig& machine,
                  std::shared_ptr<const ml::Classifier> model);
  std::future<serve::LaunchResponse> submit(serve::LaunchRequest request);
  serve::LaunchResponse call(serve::LaunchRequest request);

  /// Load the latest snapshot, if any: install its models at its
  /// generation and merge its refiner state. Call after addMachine()s
  /// and before traffic. Returns whether a snapshot was applied.
  bool warmStart();

  /// Persist the current models + generation + full refiner state.
  /// Returns the snapshot sequence number. Throws without a snapshotDir.
  std::uint64_t saveSnapshot();

  /// One gossip round: broadcast the refiner's measured state — adopted
  /// incumbents plus their evidence (no-op when the state digest is
  /// unchanged since the last publish).
  void publishWins();

  struct FleetRetrain {
    std::uint64_t modelVersion = 0;   ///< generation fanned out (or aborted)
    std::size_t recordsUsed = 0;      ///< union feedback records
    std::size_t machinesRetrained = 0;
    std::size_t peersHeard = 0;       ///< feedback responses received
    std::size_t leaseGrants = 0;      ///< grants won (self-grant included)
    std::size_t quorumNeeded = 0;     ///< quorumFraction over current nodes
    /// True when the retrain stopped as a safe no-op: the coordinator
    /// lost the lease race or could not hear a quorum. Nothing was
    /// trained and no install was fanned out.
    bool aborted = false;
  };
  /// Coordinate a fleet-wide retrain from this replica: win a quorum of
  /// generation-tagged lease grants, pull every peer's recorded traffic,
  /// refit each machine's model on the union, and fan the new generation
  /// out over the transport (cache + refiner state of the old generation
  /// invalidates everywhere). Aborts — result.aborted, counted — when a
  /// racing coordinator holds the lease or a quorum cannot be heard.
  FleetRetrain coordinateRetrain();

  /// Service stats with the fleet counter group populated. Fault-path
  /// accounting there (send failures/retries, envelopes received, decode
  /// failures, replays rejected, retrain aborts, lease-rejected installs,
  /// salvaged snapshots) is exact by construction: every boundary counts
  /// before it drops.
  serve::ServiceStats stats() const;

  /// Install this replica's detector rules into `monitor`: gossip_stall
  /// and retrain_overrun under the "<id>." prefix, plus the wrapped
  /// service's stock rules under its metricsPrefix. The closures
  /// capture `this`: stop the monitor (or removeRulesByPrefix) before
  /// the replica is destroyed.
  void registerHealthRules(obs::HealthMonitor& monitor,
                           const FleetHealthConfig& rules = {});

private:
  void handle(const Envelope& envelope);
  void handleWins(const Envelope& envelope);
  void handleFeedbackPull(const Envelope& envelope);
  void handleFeedbackPush(const Envelope& envelope);
  void handleLeaseRequest(const Envelope& envelope);
  void handleLeaseReply(const Envelope& envelope);
  /// `sender` gates the lease check: an install at a leased generation
  /// from anyone but the holder is rejected (counted).
  void applyModelInstall(const ModelInstallMsg& msg, const std::string& sender);

  /// First-seen check on (sender, seq) through a sliding 64-wide window:
  /// duplicates and too-old sequence numbers return false.
  bool acceptSeq(const std::string& sender, std::uint64_t seq);
  /// Grant the retrain lease on `generation` to `holder` unless a live
  /// conflicting lease exists; `conflictHolder` reports who holds it.
  bool tryGrantLease(const std::string& holder, std::uint64_t generation,
                     std::uint64_t ttlNanos, std::string* conflictHolder);
  /// Drop our own lease record (abort path / after a successful install).
  void releaseLease(std::uint64_t generation);
  std::size_t quorumOf(std::size_t nodes) const;
  /// Record a thrown peer send: bump the failure counters and schedule
  /// the next retry with capped decorrelated-jitter backoff.
  void notePeerSendFailure(const std::string& peer);

  // Relaxed: sequence numbers only need to be unique and monotonic per
  // replica; receivers order messages by value, not by this RMW.
  std::uint64_t nextSeq()
      TP_LOCK_FREE_AUDITED(
          "relaxed unique-ticket counter, ordering carried by the message "
          "payload itself; TSan: test_fleet "
          "Fleet.CountersReconcileUnderConcurrentGossipAndRetrain") {
    return seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  ReplicaConfig config_;
  Transport& transport_;
  GossipBus* bus_ = nullptr;
  std::unique_ptr<serve::PartitionService> service_;
  std::optional<SnapshotStore> store_;

  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::uint64_t> lastWinsDigest_{0};
  std::atomic<std::size_t> skippedSinceBroadcast_{0};
  /// Gossip rounds entered (including digest-skipped ones); the
  /// gossip_stall detector watches this for liveness, not outcomes.
  std::atomic<std::uint64_t> gossipRounds_{0};
  /// Wall seconds of the last coordinateRetrain() (last-write-wins; the
  /// retrain_overrun detector's input).
  std::atomic<double> lastRetrainSeconds_{0.0};

  // Feedback fan-in for coordinateRetrain().
  common::Mutex feedbackMutex_;
  common::CondVar feedbackCv_;
  bool collectingFeedback_ TP_GUARDED_BY(feedbackMutex_) = false;
  std::vector<runtime::FeatureDatabase> pendingFeedback_
      TP_GUARDED_BY(feedbackMutex_);

  // Per-peer gossip retry state: a peer whose send threw is skipped
  // until its backoff elapses, then retried (even on digest-quiet
  // rounds) so a healed link reconverges without waiting for new state.
  struct PeerBackoff {
    std::uint64_t failCount = 0;
    std::uint64_t nextRetryTicks = 0;  ///< obs::Clock ticks when due
    double backoffSeconds = 0.0;
  };
  common::Mutex gossipMutex_;
  common::Rng retryRng_ TP_GUARDED_BY(gossipMutex_);
  std::unordered_map<std::string, PeerBackoff> peerBackoff_
      TP_GUARDED_BY(gossipMutex_);

  // Per-sender replay windows: highest sequence seen plus a 64-bit
  // recency mask, so duplicated deliveries and replayed messages are
  // rejected while benign reorderings inside the window still land.
  struct ReplayWindow {
    std::uint64_t high = 0;
    std::uint64_t bits = 0;  ///< bit i set = seq (high - i) already seen
  };
  common::Mutex replayMutex_;
  std::unordered_map<std::string, ReplayWindow> replayWindows_
      TP_GUARDED_BY(replayMutex_);

  // Retrain lease: one record per replica — who may install which
  // generation, until when (obs::Clock ticks). The CondVar fans in
  // LeaseReply grants for a coordinateRetrain() in progress.
  common::Mutex leaseMutex_;
  common::CondVar leaseCv_;
  std::string leaseHolder_ TP_GUARDED_BY(leaseMutex_);
  std::uint64_t leaseGeneration_ TP_GUARDED_BY(leaseMutex_) = 0;
  std::uint64_t leaseExpiryTicks_ TP_GUARDED_BY(leaseMutex_) = 0;
  bool collectingGrants_ TP_GUARDED_BY(leaseMutex_) = false;
  std::uint64_t collectingGeneration_ TP_GUARDED_BY(leaseMutex_) = 0;
  std::size_t grantsReceived_ TP_GUARDED_BY(leaseMutex_) = 0;
  std::size_t leaseRepliesReceived_ TP_GUARDED_BY(leaseMutex_) = 0;

  struct Counters {
    std::atomic<std::uint64_t> winsSent{0};
    std::atomic<std::uint64_t> winsReceived{0};
    std::atomic<std::uint64_t> winsMerged{0};
    std::atomic<std::uint64_t> winsAdopted{0};
    std::atomic<std::uint64_t> winsRejectedStale{0};
    std::atomic<std::uint64_t> winsDropped{0};
    std::atomic<std::uint64_t> snapshotsWritten{0};
    std::atomic<std::uint64_t> snapshotsLoaded{0};
    std::atomic<std::uint64_t> modelInstalls{0};
    std::atomic<std::uint64_t> gossipRoundsSkipped{0};
    std::atomic<std::uint64_t> sendFailures{0};
    std::atomic<std::uint64_t> sendRetries{0};
    std::atomic<std::uint64_t> envelopesReceived{0};
    std::atomic<std::uint64_t> decodeFailures{0};
    std::atomic<std::uint64_t> replaysRejected{0};
    std::atomic<std::uint64_t> retrainsAborted{0};
    std::atomic<std::uint64_t> installsRejectedLease{0};
  };
  mutable Counters counters_;
};

}  // namespace tp::fleet
