#include "serve/stats.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace tp::serve {

LatencyRecorder::LatencyRecorder(std::size_t window, std::size_t stripes)
    : window_(window) {
  TP_REQUIRE(window > 0, "LatencyRecorder: window must be > 0");
  stripes_ =
      std::vector<Stripe>(stripes == 0 ? common::defaultStripes() : stripes);
}

void LatencyRecorder::add(double seconds) {
  Stripe& stripe = stripes_[common::threadStripe(stripes_.size())];
  const std::uint32_t s = common::seqClaim(stripe.seq);
  if (stripe.ring.capacity() == 0) {
    // One-time reservation the first time this stripe records, so the
    // steady-state path never allocates and idle stripes cost nothing.
    stripe.ring.reserve(window_);
  }
  if (stripe.ring.size() < window_) {
    stripe.ring.push_back(seconds);
  } else {
    stripe.ring[stripe.next] = seconds;
  }
  stripe.next = (stripe.next + 1) % window_;
  ++stripe.count;
  stripe.sum += seconds;
  stripe.max = std::max(stripe.max, seconds);
  common::seqRelease(stripe.seq, s);
}

LatencyRecorder::Summary LatencyRecorder::summary() const {
  Summary out;
  std::vector<double> pooled;
  double sum = 0.0;
  for (Stripe& stripe : stripes_) {
    const std::uint32_t s = common::seqClaim(stripe.seq);
    pooled.insert(pooled.end(), stripe.ring.begin(), stripe.ring.end());
    out.count += stripe.count;
    sum += stripe.sum;
    out.maxSeconds = std::max(out.maxSeconds, stripe.max);
    common::seqRelease(stripe.seq, s);
  }
  if (out.count == 0) return out;
  out.meanSeconds = sum / static_cast<double>(out.count);
  // Percentiles over the pooled union of the per-stripe windows — exactly
  // common::percentile of the merged samples (see the class comment for
  // the merge-order semantics).
  out.p50Seconds = common::percentile(pooled, 50.0);
  out.p95Seconds = common::percentile(std::move(pooled), 95.0);
  return out;
}

namespace {

/// Relaxed add of `v` to the double whose bits `word` holds, by CAS
/// (std::atomic<double>::fetch_add is C++20 but patchy across standard
/// libraries).
void addSeconds(std::atomic<std::uint64_t>& word, double v) noexcept {
  std::uint64_t cur = word.load(std::memory_order_relaxed);
  while (!word.compare_exchange_weak(
      cur, std::bit_cast<std::uint64_t>(std::bit_cast<double>(cur) + v),
      std::memory_order_relaxed)) {
  }
}

double loadSeconds(const std::atomic<std::uint64_t>& word) noexcept {
  return std::bit_cast<double>(word.load(std::memory_order_relaxed));
}

}  // namespace

MachineLoadStats::MachineLoadStats(std::size_t numDevices,
                                   std::size_t stripes)
    : numDevices_(numDevices),
      numStripes_(stripes == 0 ? common::defaultStripes() : stripes),
      linesPerStripe_((2 + numDevices + kWordsPerLine - 1) / kWordsPerLine),
      lines_(numStripes_ * linesPerStripe_) {}

void MachineLoadStats::record(
    double makespanSeconds,
    const std::vector<runtime::DeviceExecution>& devices) noexcept {
  const std::size_t stripe = common::threadStripe(numStripes_);
  word(stripe, 0).fetch_add(1, std::memory_order_relaxed);
  addSeconds(word(stripe, 1), makespanSeconds);
  for (const auto& dev : devices) {
    addSeconds(word(stripe, 2 + dev.device),
               dev.transferInSeconds + dev.kernelSeconds +
                   dev.transferOutSeconds);
  }
}

MachineLoadStats::Snapshot MachineLoadStats::snapshot() const {
  Snapshot out;
  out.deviceBusySeconds.assign(numDevices_, 0.0);
  for (std::size_t s = 0; s < numStripes_; ++s) {
    out.requests += word(s, 0).load(std::memory_order_relaxed);
    out.makespanSum += loadSeconds(word(s, 1));
    for (std::size_t d = 0; d < numDevices_; ++d) {
      out.deviceBusySeconds[d] += loadSeconds(word(s, 2 + d));
    }
  }
  return out;
}

}  // namespace tp::serve
