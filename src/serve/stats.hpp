#pragma once

// Service observability: the latency distribution over striped sliding
// windows plus the aggregate ServiceStats snapshot returned by
// PartitionService::stats().

#include <array>
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
  static_assert(common::kWholeCacheLines<Stripe>);

  std::size_t window_;
  mutable std::vector<Stripe> stripes_;
};

/// Per-machine request accounting, striped per thread: each serving
/// caller adds with relaxed atomics on its own stripe; snapshot() sums.
/// Field-level atomicity only — a snapshot racing a writer may see a
/// makespan whose request count has not landed yet; totals are exact once
/// writers quiesce.
///
/// A stripe is a run of whole cache lines holding every word its writer
/// touches: word 0 counts requests, word 1 sums makespans and word 2 + d
/// sums device d's busy seconds, the sums kept as the bits of a double.
/// A machine with more than kWordsPerLine - 2 devices gets more lines per
/// stripe, so no device count puts two stripes' words on one line.
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
  static constexpr std::size_t kWordsPerLine =
      common::kCacheLineBytes / sizeof(std::uint64_t);
  struct alignas(common::kCacheLineBytes) Line {
    std::array<std::atomic<std::uint64_t>, kWordsPerLine> words{};
  };
  static_assert(common::kWholeCacheLines<Line>);

  /// Word `i` of stripe `stripe`.
  std::atomic<std::uint64_t>& word(std::size_t stripe,
                                   std::size_t i) const noexcept {
    return lines_[stripe * linesPerStripe_ + i / kWordsPerLine]
        .words[i % kWordsPerLine];
  }

  std::size_t numDevices_;
  std::size_t numStripes_;
  std::size_t linesPerStripe_;
  mutable std::vector<Line> lines_;
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

struct ServiceStats {
  std::uint64_t requestsSubmitted = 0;
  std::uint64_t requestsCompleted = 0;
  std::uint64_t requestsFailed = 0;  ///< completed with an exception
  /// Always 0: requests are served on the caller's thread, never
  /// batched. Kept until the benchmark drops its serve.mean_batch and
  /// serve.max_batch readouts.
  std::uint64_t batches = 0;
  std::uint64_t maxBatch = 0;  ///< always 0, see batches
  /// Cache hits that were not refiner probes: the requests that ran no
  /// model inference.
  std::uint64_t requestsInline = 0;
  /// Always 0: every request executes on its machine's one shared
  /// scheduler, so there are no lanes to exhaust. Kept until the
  /// benchmark drops its serve.lane_exhausted_per_req readout.
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
  LatencyRecorder::Summary latency;
  std::vector<MachineStats> machines;  ///< insertion order
};

}  // namespace tp::serve
