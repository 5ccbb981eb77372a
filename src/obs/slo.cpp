#include "obs/slo.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace tp::obs {

namespace {

/// Error budgets implied by the target percentile names: a p99 target
/// tolerates 1% of samples over it, a p99.9 target 0.1%.
constexpr double kBudgetP99 = 0.01;
constexpr double kBudgetP999 = 0.001;

std::uint64_t targetTicks(double seconds) noexcept {
  return seconds <= 0.0 ? 0
                        : static_cast<std::uint64_t>(seconds * 1e9 + 0.5);
}

}  // namespace

SloTracker::SloTracker(SloConfig config) : config_(config) {
  TP_REQUIRE(config_.windowSeconds > 0.0,
             "SloTracker: windowSeconds must be positive, got "
                 << config_.windowSeconds);
  TP_REQUIRE(config_.subWindows >= 2,
             "SloTracker: need at least 2 sub-windows, got "
                 << config_.subWindows);
  const double sliceNs =
      config_.windowSeconds * 1e9 / static_cast<double>(config_.subWindows);
  sliceTicks_ = std::max<std::uint64_t>(1, static_cast<std::uint64_t>(sliceNs));
  targetP99Ticks_ = targetTicks(config_.targetP99Seconds);
  targetP999Ticks_ = targetTicks(config_.targetP999Seconds);
  const std::size_t stripes =
      config_.stripes == 0 ? common::defaultStripes() : config_.stripes;
  subs_ = std::vector<SubWindow>(config_.subWindows);
  for (SubWindow& sub : subs_) {
    sub.stripes = std::vector<Stripe>(stripes);
  }
}

void SloTracker::rotate(SubWindow& sub, std::uint64_t slice) {
  common::ClaimGuard claim(sub.rotateBusy);
  if (!claim.claimed()) return;  // a concurrent rotation owns this window
  const std::uint64_t current = sub.slice.load(std::memory_order_relaxed);
  // Never rotate backwards: a recorder whose tick read is stale must not
  // resurrect an older slice (its sample lands in the newer one instead).
  if (current != kIdleSlice && current >= slice) return;
  for (Stripe& stripe : sub.stripes) {
    const std::uint32_t claimed = common::seqClaim(stripe.seq);
    stripe.count = 0;
    stripe.sum = 0;
    stripe.violationsP99 = 0;
    stripe.violationsP999 = 0;
    stripe.buckets.fill(0);
    common::seqRelease(stripe.seq, claimed);
  }
  // Publishes the zeroed stripes to recorders that saw the new stamp.
  sub.slice.store(slice, std::memory_order_release);
}

void SloTracker::record(std::uint64_t latencyNs, std::uint64_t atTicks)
    TP_LOCK_FREE_AUDITED(
        "per-stripe seqlock on the caller's own stripe, same discipline "
        "as Histogram::record; the slice-stamp acquire pairs with "
        "rotate()'s release of the zeroed window; TSan: test_health "
        "SloTracker.ConcurrentRecordWhileRotateKeepsTotalsSane") {
  const std::uint64_t slice = atTicks / sliceTicks_;
  SubWindow& sub = subs_[slice % subs_.size()];
  if (sub.slice.load(std::memory_order_acquire) != slice) {
    rotate(sub, slice);
  }
  Stripe& stripe = sub.stripes[common::threadStripe(sub.stripes.size())];
  const std::uint32_t claimed = common::seqClaim(stripe.seq);
  ++stripe.count;
  stripe.sum += latencyNs;
  ++stripe.buckets[Histogram::bucketIndex(latencyNs)];
  if (targetP99Ticks_ != 0 && latencyNs > targetP99Ticks_) {
    ++stripe.violationsP99;
  }
  if (targetP999Ticks_ != 0 && latencyNs > targetP999Ticks_) {
    ++stripe.violationsP999;
  }
  common::seqRelease(stripe.seq, claimed);
}

void SloTracker::WindowSnapshot::merge(const WindowSnapshot& other) noexcept {
  hist.merge(other.hist);
  violationsP99 += other.violationsP99;
  violationsP999 += other.violationsP999;
}

SloTracker::WindowSnapshot SloTracker::snapshotSub(SubWindow& sub) const {
  // Bounded retry: a rotation mid-copy restamps the slice, invalidating
  // the mixed old/new stripe contents. Rotations are once per slice per
  // sub-window, so one retry almost always suffices; after the cap the
  // sub-window is reported idle (it was being zeroed anyway).
  for (int attempt = 0; attempt < 4; ++attempt) {
    WindowSnapshot snap;
    snap.slice = sub.slice.load(std::memory_order_acquire);
    if (snap.slice == kIdleSlice) return snap;
    for (Stripe& stripe : sub.stripes) {
      const std::uint32_t claimed = common::seqClaim(stripe.seq);
      snap.hist.count += stripe.count;
      snap.hist.sum += stripe.sum;
      snap.violationsP99 += stripe.violationsP99;
      snap.violationsP999 += stripe.violationsP999;
      for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
        snap.hist.buckets[b] += stripe.buckets[b];
      }
      common::seqRelease(stripe.seq, claimed);
    }
    if (sub.slice.load(std::memory_order_acquire) == snap.slice) return snap;
  }
  return WindowSnapshot{};
}

std::vector<SloTracker::WindowSnapshot> SloTracker::liveSubWindows(
    std::uint64_t atTicks) const {
  const std::uint64_t cur = atTicks / sliceTicks_;
  std::vector<WindowSnapshot> live;
  live.reserve(subs_.size());
  for (SubWindow& sub : subs_) {
    WindowSnapshot snap = snapshotSub(sub);
    if (snap.slice == kIdleSlice) continue;
    if (snap.slice > cur) continue;  // a racing recorder is ahead of us
    if (cur - snap.slice >= subs_.size()) continue;  // aged out of horizon
    live.push_back(std::move(snap));
  }
  std::sort(live.begin(), live.end(),
            [](const WindowSnapshot& a, const WindowSnapshot& b) {
              return a.slice < b.slice;
            });
  return live;
}

std::optional<double> SloTracker::Report::breachBurnRate() const noexcept {
  if (!breached) return std::nullopt;
  return std::max(burnRateP99, burnRateP999);
}

SloTracker::Report SloTracker::reportAt(std::uint64_t atTicks) const {
  Report report;
  report.windowSeconds = config_.windowSeconds;
  WindowSnapshot merged;
  for (const WindowSnapshot& snap : liveSubWindows(atTicks)) {
    merged.merge(snap);
    ++report.subWindowsMerged;
  }
  report.count = merged.hist.count;
  report.meanSeconds = merged.hist.mean() * 1e-9;
  report.p50Seconds =
      static_cast<double>(merged.hist.quantile(0.50)) * 1e-9;
  report.p99Seconds =
      static_cast<double>(merged.hist.quantile(0.99)) * 1e-9;
  report.p999Seconds =
      static_cast<double>(merged.hist.quantile(0.999)) * 1e-9;
  report.violationsP99 = merged.violationsP99;
  report.violationsP999 = merged.violationsP999;
  if (report.count > 0) {
    const double n = static_cast<double>(report.count);
    if (targetP99Ticks_ != 0) {
      report.burnRateP99 =
          (static_cast<double>(report.violationsP99) / n) / kBudgetP99;
    }
    if (targetP999Ticks_ != 0) {
      report.burnRateP999 =
          (static_cast<double>(report.violationsP999) / n) / kBudgetP999;
    }
  }
  report.breached = report.count >= config_.minSamples &&
                    (report.burnRateP99 > 1.0 || report.burnRateP999 > 1.0);
  return report;
}

}  // namespace tp::obs
