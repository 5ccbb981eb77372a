#pragma once

// Service observability: the latency distribution over striped sliding
// windows plus the aggregate ServiceStats snapshot returned by
// PartitionService::stats().

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "adapt/refiner.hpp"
#include "common/striped.hpp"
#include "runtime/scheduler.hpp"
#include "serve/cache.hpp"

namespace tp::serve {

/// Thread-safe latency reservoir, striped per thread (the PR-5 rework;
/// the original serialized every add() on one mutex).
///
/// Each stripe owns a private ring of up to `window` samples plus
/// lifetime count/sum/max, guarded by a per-stripe sequence word: add()
/// claims the caller's own stripe with one CAS — uncontended unless more
/// threads than stripes are recording — writes one slot, and releases.
/// There is no global lock anywhere on the record path, and after a
/// stripe's first sample (which reserves its ring) no allocation either.
///
/// Merge-order semantics of summary(): each stripe is snapshot atomically
/// (in stripe order; a stripe may absorb new samples after its snapshot
/// was taken), the surviving windows are pooled, and the percentiles are
/// computed with common::percentile over the pooled samples — NOT by
/// averaging per-stripe percentiles, so p50/p95 over the merged
/// reservoirs equal the percentile of the union exactly. count/mean/max
/// aggregate the lifetime fields of every stripe. The retained "window"
/// is therefore per stripe (≈ per recording thread): the pooled
/// percentile pane holds up to `window` of the *most recent samples of
/// each thread* rather than the globally most recent `window`, which
/// keeps a bursty thread from evicting a quiet thread's tail latencies.
class LatencyRecorder {
public:
  explicit LatencyRecorder(std::size_t window = 8192,
                           std::size_t stripes = 0);  ///< 0 = auto

  void add(double seconds)
      TP_LOCK_FREE_AUDITED(
          "per-stripe seqlock: one CAS claim on the caller's own stripe, "
          "release publish; TSan: test_serve "
          "LatencyRecorder.SnapshotRacesWithWritersCleanly");

  struct Summary {
    std::uint64_t count = 0;
    double meanSeconds = 0.0;
    double maxSeconds = 0.0;
    double p50Seconds = 0.0;  ///< over the pooled per-stripe windows
    double p95Seconds = 0.0;
  };
  Summary summary() const
      TP_LOCK_FREE_AUDITED(
          "claims each stripe's seqlock in turn for an atomic per-stripe "
          "snapshot; TSan: test_serve "
          "LatencyRecorder.SnapshotRacesWithWritersCleanly");

private:
  struct alignas(common::kCacheLineBytes) Stripe {
    std::atomic<std::uint32_t> seq{0};  ///< odd = writer (or reader) inside
    std::vector<double> ring;           ///< reserved lazily at first add
    std::size_t next = 0;
    std::uint64_t count = 0;
    double sum = 0.0;
    double max = 0.0;
  };

  std::size_t window_;
  mutable std::vector<Stripe> stripes_;
};

/// Per-machine request accounting, striped per thread: each serving
/// caller adds with relaxed atomics on its own stripe; snapshot() sums. Field-level atomicity only — a snapshot racing
/// a writer may see a makespan whose request count has not landed yet;
/// totals are exact once writers quiesce.
class MachineLoadStats {
public:
  MachineLoadStats(std::size_t numDevices, std::size_t stripes = 0);

  void record(double makespanSeconds,
              const std::vector<runtime::DeviceExecution>& devices) noexcept;

  struct Snapshot {
    std::uint64_t requests = 0;
    double makespanSum = 0.0;
    std::vector<double> deviceBusySeconds;
  };
  Snapshot snapshot() const;

private:
  struct alignas(common::kCacheLineBytes) Stripe {
    std::atomic<std::uint64_t> requests{0};
    std::atomic<double> makespanSum{0.0};
    std::vector<std::atomic<double>> deviceBusy;
  };

  std::size_t numDevices_;
  mutable std::vector<Stripe> stripes_;
};

/// Per-device share of simulated busy time on one machine.
struct DeviceUtilization {
  std::string device;        ///< device name from the machine config
  double busySeconds = 0.0;  ///< transfers + kernel time on this device
  double utilization = 0.0;  ///< busySeconds / sum of request makespans
};

struct MachineStats {
  std::string machine;
  std::uint64_t requests = 0;
  double makespanSeconds = 0.0;  ///< sum of simulated makespans
  std::uint64_t modelVersion = 0;  ///< generation of the deployed model
  std::vector<DeviceUtilization> devices;
};

/// Fleet-replication counters: gossiped refiner wins, snapshot
/// persistence, and the fault boundaries. Populated by
/// fleet::Replica::stats() (all zero when the service is not part of a
/// fleet). Reconciliation invariant:
/// winsReceived == winsMerged + winsRejectedStale + winsDropped.
struct FleetCounters {
  std::uint64_t winsSent = 0;      ///< win records broadcast to peers
  std::uint64_t winsReceived = 0;  ///< win records arrived from peers
  std::uint64_t winsMerged = 0;    ///< accepted (evidence merged)
  std::uint64_t winsAdopted = 0;   ///< merged AND moved an incumbent
  std::uint64_t winsRejectedStale = 0;  ///< dropped: model-version mismatch
  std::uint64_t winsDropped = 0;   ///< dropped: capacity / refiner off
  std::uint64_t snapshotsWritten = 0;
  std::uint64_t snapshotsLoaded = 0;
  std::uint64_t modelInstalls = 0;  ///< fleet retrain fan-ins applied
  std::uint64_t gossipRoundsSkipped = 0;  ///< no-change rounds (digest hit)
  // Fault-path counters (the chaos boundaries; exact by construction).
  std::uint64_t sendFailures = 0;   ///< peer sends that threw
  std::uint64_t sendRetries = 0;    ///< sends re-attempted after a failure
  std::uint64_t envelopesReceived = 0;  ///< every envelope handler entry
  std::uint64_t decodeFailures = 0;  ///< corrupt/unexpected payloads dropped
  std::uint64_t replaysRejected = 0;  ///< duplicate/stale sequence numbers
  std::uint64_t retrainsAborted = 0;  ///< quorum/lease safe no-ops
  std::uint64_t installsRejectedLease = 0;  ///< installs from non-holders
  std::uint64_t snapshotsSalvaged = 0;  ///< corrupt snapshots skipped on load
};

struct ServiceStats {
  std::uint64_t requestsSubmitted = 0;
  std::uint64_t requestsCompleted = 0;
  std::uint64_t requestsFailed = 0;  ///< completed with an exception
  /// Always 0: requests are served on the caller's thread, never
  /// batched. Kept until the benchmark drops its serve.mean_batch and
  /// serve.max_batch readouts.
  std::uint64_t batches = 0;
  std::uint64_t maxBatch = 0;  ///< always 0, see batches
  /// Cache hits (refiner probes excluded) served on a claimed inline lane:
  /// the requests that ran no model inference.
  std::uint64_t requestsInline = 0;
  /// Requests run on a short-lived private context because every inline
  /// lane was busy.
  std::uint64_t inlineLaneExhausted = 0;
  /// Requests fast-failed by an open admission breaker (included in
  /// requestsCompleted; the response carried LaunchResponse::shed).
  std::uint64_t requestsShed = 0;
  /// Closed-to-open admission-breaker transitions across all machines.
  std::uint64_t breakerTrips = 0;
  CacheCounters cache;
  double cacheHitRate = 0.0;
  std::uint64_t modelVersion = 0;
  std::uint64_t retrains = 0;
  std::uint64_t feedbackRecords = 0;  ///< unique launches measured
  std::uint64_t internedPairs = 0;  ///< distinct (machine, program) pairs
  /// intern() calls rejected because the pair table was full; each one
  /// served its launch through the uncached, unrefined model path.
  std::uint64_t internRejections = 0;
  /// Online-refinement counters (all zero when refinement is disabled).
  adapt::RefinerCounters refiner;
  std::uint64_t refinedKeys = 0;  ///< launch signatures under refinement
  FleetCounters fleet;  ///< zero unless serving as a fleet replica
  LatencyRecorder::Summary latency;
  std::vector<MachineStats> machines;  ///< insertion order
};

}  // namespace tp::serve
