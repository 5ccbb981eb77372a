#pragma once

// tp::obs SLO tracker: sliding-window latency quantiles + error-budget
// burn rate, the judgment layer on top of the raw log-bucketed
// Histogram.
//
// Structure: a ring of K sub-windows, each covering windowSeconds/K of
// wall time on the obs::Clock timebase. A sub-window holds the same
// striped log-bucketed state as obs::Histogram (per-stripe seqlock, one
// CAS claim on the caller's own stripe) plus exact violation counters
// against the configured latency targets. record() maps nowTicks() to a
// slice id; the sub-window at slice % K is lazily rotated (zeroed and
// restamped) by the first recorder to enter a new slice, so there is no
// timer thread and an idle tracker costs nothing. report() merges the
// sub-windows whose slice falls inside the horizon — so quantiles and
// burn rate always cover the last ~windowSeconds, with sub-window
// granularity.
//
// Record-path discipline (the PR 5/7 striping rules):
//   - recording claims only the caller's own stripe (one CAS), exactly
//     like Histogram::record — uncontended except against a concurrent
//     report() drain or a rotation;
//   - rotation is guarded by a per-sub-window ClaimGuard flag; the loser
//     of a rotation race records into whichever slice the winner
//     publishes. At a slice boundary that can mis-attribute a sample by
//     one slice width (documented skew, bounded by one sub-window) —
//     never a torn or lost count;
//   - report() claims each stripe in turn for a per-stripe-consistent
//     copy and re-checks the sub-window's slice stamp afterwards,
//     dropping the copy if a rotation landed mid-read.
//
// Semantics: a sample "violates" a target when it exceeds it. The error
// budget of a p99 target is the classic 1% (p99.9: 0.1%); burn rate is
// the observed violation fraction divided by the budget, so burn > 1
// means the budget is exhausted over the window and the SLO is
// breached. Quantile estimates inherit Histogram's bucket upper-bound
// contract (over-estimate by at most 2x); violation counts are exact.

#include <cstdint>
#include <optional>
#include <vector>

#include "common/annotations.hpp"
#include "common/striped.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"

namespace tp::obs {

struct SloConfig {
  /// Sliding horizon covered by report(); <= 0 disables the tracker.
  double windowSeconds = 10.0;
  /// Ring granularity: the horizon advances in windowSeconds/subWindows
  /// steps. Must be >= 2 (one live slice + history).
  std::size_t subWindows = 8;
  /// Latency targets in seconds; 0 leaves a target unset. A p99 target
  /// carries a 1% error budget, a p99.9 target 0.1%.
  double targetP99Seconds = 0.0;
  double targetP999Seconds = 0.0;
  /// Below this many samples in the window the tracker never reports a
  /// breach (cold starts and idle periods must not page anyone).
  std::uint64_t minSamples = 100;
  /// Stripes per sub-window; 0 = common::defaultStripes(). Memory is
  /// subWindows * stripes * ~0.6 KiB — shrink for per-machine trackers.
  std::size_t stripes = 0;

  /// Whether a tracker built from this config would do anything useful.
  bool enabled() const noexcept {
    return windowSeconds > 0.0 && subWindows >= 2 &&
           (targetP99Seconds > 0.0 || targetP999Seconds > 0.0);
  }
};

class SloTracker {
public:
  /// Slice stamp of a sub-window that has never held samples.
  static constexpr std::uint64_t kIdleSlice = ~std::uint64_t{0};

  explicit SloTracker(SloConfig config);
  SloTracker(const SloTracker&) = delete;
  SloTracker& operator=(const SloTracker&) = delete;

  /// Record one served-request latency at the current clock tick.
  void record(std::uint64_t latencyNs) { record(latencyNs, nowTicks()); }
  /// Deterministic-time seam (tests pin rollover boundaries exactly).
  void record(std::uint64_t latencyNs, std::uint64_t atTicks);

  /// One merged sub-window: the mergeable unit report() is built from.
  /// merge() combines histogram + violation counts; it is associative
  /// and commutative (bucket-wise sums), so merge order never matters.
  /// The slice stamp describes THIS snapshot's origin and is left
  /// untouched by merge().
  struct WindowSnapshot {
    std::uint64_t slice = kIdleSlice;
    Histogram::Snapshot hist;
    std::uint64_t violationsP99 = 0;
    std::uint64_t violationsP999 = 0;
    void merge(const WindowSnapshot& other) noexcept;
  };

  struct Report {
    std::uint64_t count = 0;
    double meanSeconds = 0.0;
    double p50Seconds = 0.0;
    double p99Seconds = 0.0;
    double p999Seconds = 0.0;
    std::uint64_t violationsP99 = 0;
    std::uint64_t violationsP999 = 0;
    /// Violation fraction / error budget; > 1 = budget exhausted. 0 when
    /// the matching target is unset or the window is empty.
    double burnRateP99 = 0.0;
    double burnRateP999 = 0.0;
    /// True when count >= minSamples and a configured budget is burning
    /// past 1.0.
    bool breached = false;
    double windowSeconds = 0.0;   ///< configured horizon
    std::size_t subWindowsMerged = 0;

    /// The burn rate a breach is judged by: max(burnRateP99,
    /// burnRateP999) while breached, std::nullopt otherwise.
    std::optional<double> breachBurnRate() const noexcept;
  };
  Report report() const { return reportAt(nowTicks()); }
  Report reportAt(std::uint64_t atTicks) const;

  /// The live (in-horizon) sub-window snapshots at a given tick, oldest
  /// slice first. report() is exactly the fold of merge() over these —
  /// exposed so tests can pin merge associativity and rollover edges.
  std::vector<WindowSnapshot> liveSubWindows(std::uint64_t atTicks) const;

  const SloConfig& config() const noexcept { return config_; }
  /// Width of one sub-window in clock ticks (ns).
  std::uint64_t sliceTicks() const noexcept { return sliceTicks_; }

private:
  struct alignas(common::kCacheLineBytes) Stripe {
    std::atomic<std::uint32_t> seq{0};  ///< odd = writer/reader inside
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t violationsP99 = 0;
    std::uint64_t violationsP999 = 0;
    std::array<std::uint64_t, Histogram::kBuckets> buckets{};
  };
  static_assert(common::kWholeCacheLines<Stripe>);
  struct SubWindow {
    /// Slice id currently held; kIdleSlice until first rotation.
    std::atomic<std::uint64_t> slice{kIdleSlice};
    /// Rotation ownership flag (ClaimGuard CAS; losers skip).
    std::atomic<std::uint32_t> rotateBusy{0};
    std::vector<Stripe> stripes;
  };

  void rotate(SubWindow& sub, std::uint64_t slice)
      TP_LOCK_FREE_AUDITED(
          "rotation owns the sub-window via a ClaimGuard CAS and zeroes "
          "each stripe under its own seqlock before the release store of "
          "the new slice stamp; racing recorders skip and land in the "
          "published slice (bounded one-slice skew); TSan: test_health "
          "SloTracker.ConcurrentRecordWhileRotateKeepsTotalsSane");
  /// Per-stripe-consistent copy of one sub-window, slice re-checked
  /// after the copy; slice == kIdleSlice when it raced a rotation out.
  WindowSnapshot snapshotSub(SubWindow& sub) const
      TP_LOCK_FREE_AUDITED(
          "claims each stripe's seqlock in turn, then re-checks the "
          "sub-window slice stamp (acquire) and discards the copy if a "
          "rotation landed mid-read; TSan: test_health "
          "SloTracker.ConcurrentRecordWhileRotateKeepsTotalsSane");

  SloConfig config_;
  std::uint64_t sliceTicks_ = 1;
  std::uint64_t targetP99Ticks_ = 0;   ///< 0 = target unset
  std::uint64_t targetP999Ticks_ = 0;
  mutable std::vector<SubWindow> subs_;
};

}  // namespace tp::obs
