#pragma once

// tp::obs metrics registry: named counters, gauges and log-bucketed
// latency histograms, with JSON and Prometheus-style text exposition.
//
// Every entry is one kind-tagged readout (counter, gauge, histogram or
// summary) sampled at exposition time, fed from one of two sources:
//
//   - OWNED instruments, created on first use (counter()/gauge()/
//     histogram()) and recorded through the returned reference: the
//     entry holds the instrument and reads it back. The hot
//     write paths reuse the common/striped machinery: counters are
//     common::StripedCounter, histograms stripe per thread with the same
//     per-stripe seqlock snapshot discipline as LatencyRecorder.
//   - EXTERNAL readouts (registerCounter()/registerGauge()/
//     registerHistogram()/registerSummary()): callbacks sampling state a
//     subsystem already maintains. This is how PartitionService exposes
//     its existing StripedCounters and LatencyRecorder without double
//     accounting — the service's counters stay the single source of
//     truth, the registry reads them at exposition time.
//
// An owned lookup throws over any other entry, a same-kind readout
// included; register*() replaces whatever the entry held, help kept.
//
// Registration/exposition take the registry mutex; recording through an
// owned instrument reference never does. Readout callbacks run under the
// registry mutex: they must not call back into the registry, and any
// lock they take must never be held around a registry call.
//
// Lifecycle: references returned by counter()/gauge()/histogram() stay
// valid until removeByPrefix() removes the entry. Components register
// under a unique prefix and remove it on destruction (readout callbacks
// capture `this`), so prefixes double as ownership scopes.

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/annotations.hpp"
#include "common/striped.hpp"

namespace tp::obs {

/// Last-write-wins double value (model versions, hit rates, sizes).
class Gauge {
public:
  void set(double v) noexcept
      TP_LOCK_FREE_AUDITED(
          "relaxed last-write-wins word, no payload ordered behind it; "
          "TSan: test_obs Registry.OwnedInstrumentsAndExposition") {
    value_.store(v, std::memory_order_relaxed);
  }
  double value() const noexcept
      TP_LOCK_FREE_AUDITED(
          "relaxed read of the last-write-wins word, see set(); TSan: "
          "test_obs Registry.OwnedInstrumentsAndExposition") {
    return value_.load(std::memory_order_relaxed);
  }

private:
  std::atomic<double> value_{0.0};
};

/// Log-bucketed u64 histogram (bucket b holds values with bit_width b:
/// [2^(b-1), 2^b - 1]; bucket 0 holds exactly 0). Values are typically
/// nanoseconds; 64 power-of-two buckets span 1ns..584 years. Striped per
/// thread: record() claims the caller's own stripe with one CAS (the
/// seqlock discipline of common/striped), so snapshots are per-stripe
/// consistent — count, sum and buckets of one stripe always agree.
class Histogram {
public:
  static constexpr std::size_t kBuckets = 65;

  explicit Histogram(std::size_t stripes = 0);  ///< 0 = auto
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(std::uint64_t value)
      TP_LOCK_FREE_AUDITED(
          "per-stripe seqlock: one CAS claim on the caller's own stripe, "
          "release publish; TSan: test_obs "
          "Histogram.ConcurrentRecordAndSnapshotAgree");

  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::array<std::uint64_t, kBuckets> buckets{};

    /// Associative, commutative bucket-wise sum (merge-order free).
    void merge(const Snapshot& other) noexcept;
    double mean() const noexcept;
    /// Upper bound of the bucket holding rank ceil(q * count); 0 when
    /// empty. An over-estimate by at most 2x (the bucket width).
    std::uint64_t quantile(double q) const noexcept;
  };
  Snapshot snapshot() const
      TP_LOCK_FREE_AUDITED(
          "claims each stripe's seqlock in turn for a per-stripe-atomic "
          "copy; TSan: test_obs Histogram.ConcurrentRecordAndSnapshot"
          "Agree");

  static std::size_t bucketIndex(std::uint64_t value) noexcept {
    return value == 0 ? 0 : static_cast<std::size_t>(std::bit_width(value));
  }
  static std::uint64_t bucketUpperBound(std::size_t bucket) noexcept {
    if (bucket == 0) return 0;
    if (bucket >= 64) return ~std::uint64_t{0};
    return (std::uint64_t{1} << bucket) - 1;
  }

private:
  struct alignas(common::kCacheLineBytes) Stripe {
    std::atomic<std::uint32_t> seq{0};  ///< odd = writer/reader inside
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::array<std::uint64_t, kBuckets> buckets{};
  };
  static_assert(common::kWholeCacheLines<Stripe>);
  mutable std::vector<Stripe> stripes_;
};

/// Pre-digested distribution readout (seconds-domain), the shape
/// LatencyRecorder::Summary already has.
struct SummarySnapshot {
  std::uint64_t count = 0;
  double meanSeconds = 0.0;
  double maxSeconds = 0.0;
  double p50Seconds = 0.0;
  double p95Seconds = 0.0;
};

class Registry {
public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Registered names must match [a-zA-Z_][a-zA-Z0-9_.:]* — dots are the
  /// project's namespacing convention and map to '_' in the Prometheus
  /// exposition. Every registration path validates and throws tp::Error
  /// on a name that would sanitize ambiguously (spaces, dashes, empty).
  static bool validName(const std::string& name) noexcept;

  /// Owned instruments, created on first use. Throws tp::Error when the
  /// name is already registered as a different kind or as a readout.
  common::StripedCounter& counter(const std::string& name)
      TP_EXCLUDES(mutex_);
  Gauge& gauge(const std::string& name) TP_EXCLUDES(mutex_);
  Histogram& histogram(const std::string& name, std::size_t stripes = 0)
      TP_EXCLUDES(mutex_);

  /// External readouts, sampled at exposition time. Re-registering a
  /// name replaces its callback.
  void registerCounter(const std::string& name,
                       std::function<std::uint64_t()> read)
      TP_EXCLUDES(mutex_);
  void registerGauge(const std::string& name, std::function<double()> read)
      TP_EXCLUDES(mutex_);
  void registerHistogram(const std::string& name,
                         std::function<Histogram::Snapshot()> read)
      TP_EXCLUDES(mutex_);
  void registerSummary(const std::string& name,
                       std::function<SummarySnapshot()> read)
      TP_EXCLUDES(mutex_);

  /// Attach a # HELP string to a metric (exposition metadata; the name
  /// itself is emitted when unset). May be called before or after the
  /// instrument exists; removed with the entry by removeByPrefix().
  void setHelp(const std::string& name, const std::string& help)
      TP_EXCLUDES(mutex_);

  /// Drop every entry whose name starts with `prefix` (a component
  /// unhooking its readouts before destruction). Returns the number
  /// removed. Invalidates owned-instrument references under the prefix.
  std::size_t removeByPrefix(const std::string& prefix) TP_EXCLUDES(mutex_);

  std::size_t size() const TP_EXCLUDES(mutex_);

  /// One JSON object: counters/gauges/histograms/summaries keyed by
  /// name, plus (by default) the common/log recent-events tap.
  std::string exportJson(bool includeRecentLog = true) const
      TP_EXCLUDES(mutex_);
  /// Prometheus text exposition (names sanitized, tp_ prefixed): a
  /// # HELP and # TYPE line per metric, cumulative _bucket{le=}/+Inf
  /// plus _sum/_count series for histograms, {quantile=} series plus
  /// _sum/_count for summaries.
  std::string exportPrometheus() const TP_EXCLUDES(mutex_);

private:
  using CounterRead = std::function<std::uint64_t()>;
  using GaugeRead = std::function<double()>;
  using HistogramRead = std::function<Histogram::Snapshot()>;
  using SummaryRead = std::function<SummarySnapshot()>;
  /// The kind tag is the alternative held; monostate is a help-only
  /// entry, which neither exporter emits.
  using Readout = std::variant<std::monostate, CounterRead, GaugeRead,
                               HistogramRead, SummaryRead>;

  struct Entry {
    /// Exposition metadata, orthogonal to the kind (may be set before
    /// the instrument registers).
    std::string help;
    Readout read;
    /// The owned instrument `read` samples; monostate for readouts.
    std::variant<std::monostate, std::unique_ptr<common::StripedCounter>,
                 std::unique_ptr<Gauge>, std::unique_ptr<Histogram>>
        instrument;
  };

  /// Owned lookup: `name`'s instrument of type T, created from `args`
  /// on first use and read back through `sample(const T&)`.
  template <typename T, typename Sample, typename... Args>
  T& owned(const std::string& name, Sample sample, Args... args)
      TP_EXCLUDES(mutex_);
  /// register*(): `read` replaces whatever `name` held, help kept.
  template <typename R>
  void replace(const std::string& name, std::function<R()> read)
      TP_EXCLUDES(mutex_);

  mutable common::Mutex mutex_;
  std::map<std::string, Entry> entries_ TP_GUARDED_BY(mutex_);
};

/// Process-wide registry for tools that expose one exposition endpoint
/// (benches, examples). Libraries take a Registry* instead.
Registry& defaultRegistry();

}  // namespace tp::obs
