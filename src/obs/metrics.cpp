#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <type_traits>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/json.hpp"

namespace tp::obs {

namespace {

/// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. Registry names
/// are validated, so '.' is the one character left to map.
std::string promName(const std::string& name) {
  std::string out = "tp_";
  out += name;
  std::replace(out.begin(), out.end(), '.', '_');
  return out;
}

/// # HELP text: the exposition format escapes backslash and newline.
std::string escapeHelp(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

void requireValidName(const std::string& name) {
  TP_REQUIRE(Registry::validName(name),
             "Registry: invalid metric name '"
                 << name << "' (want [a-zA-Z_][a-zA-Z0-9_.:]*)");
}

}  // namespace

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::size_t stripes)
    : stripes_(stripes == 0 ? common::defaultStripes() : stripes) {}

void Histogram::record(std::uint64_t value) {
  Stripe& stripe = stripes_[common::threadStripe(stripes_.size())];
  const std::uint32_t claimed = common::seqClaim(stripe.seq);
  ++stripe.count;
  stripe.sum += value;
  ++stripe.buckets[bucketIndex(value)];
  common::seqRelease(stripe.seq, claimed);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  for (Stripe& stripe : stripes_) {
    const std::uint32_t claimed = common::seqClaim(stripe.seq);
    snap.count += stripe.count;
    snap.sum += stripe.sum;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      snap.buckets[b] += stripe.buckets[b];
    }
    common::seqRelease(stripe.seq, claimed);
  }
  return snap;
}

void Histogram::Snapshot::merge(const Snapshot& other) noexcept {
  count += other.count;
  sum += other.sum;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    buckets[b] += other.buckets[b];
  }
}

double Histogram::Snapshot::mean() const noexcept {
  return count == 0 ? 0.0
                    : static_cast<double>(sum) / static_cast<double>(count);
}

std::uint64_t Histogram::Snapshot::quantile(double q) const noexcept {
  if (count == 0) return 0;
  const double clamped = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(clamped * static_cast<double>(count)));
  const std::uint64_t target = rank == 0 ? 1 : rank;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets[b];
    if (seen >= target) return bucketUpperBound(b);
  }
  return bucketUpperBound(kBuckets - 1);
}

// ---------------------------------------------------------------------------
// Registry

bool Registry::validName(const std::string& name) noexcept {
  if (name.empty()) return false;
  const char first = name.front();
  const bool firstOk = (first >= 'a' && first <= 'z') ||
                       (first >= 'A' && first <= 'Z') || first == '_';
  if (!firstOk) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == ':';
    if (!ok) return false;
  }
  return true;
}

template <typename T, typename Sample, typename... Args>
T& Registry::owned(const std::string& name, Sample sample, Args... args) {
  using Read = std::function<std::invoke_result_t<Sample, const T&>()>;
  requireValidName(name);
  common::MutexLock lock(mutex_);
  Entry& entry = entries_[name];
  if (auto* mine = std::get_if<std::unique_ptr<T>>(&entry.instrument)) {
    return **mine;
  }
  TP_REQUIRE(std::holds_alternative<std::monostate>(entry.read),
             "Registry: '" << name
                           << "' is already registered as another kind");
  const auto& storage = entry.instrument.emplace<std::unique_ptr<T>>(
      std::make_unique<T>(args...));
  entry.read = Read([sample, raw = storage.get()] { return sample(*raw); });
  return *storage;
}

common::StripedCounter& Registry::counter(const std::string& name) {
  return owned<common::StripedCounter>(
      name, [](const common::StripedCounter& c) { return c.total(); });
}

Gauge& Registry::gauge(const std::string& name) {
  return owned<Gauge>(name, [](const Gauge& g) { return g.value(); });
}

Histogram& Registry::histogram(const std::string& name, std::size_t stripes) {
  return owned<Histogram>(
      name, [](const Histogram& h) { return h.snapshot(); }, stripes);
}

template <typename R>
void Registry::replace(const std::string& name, std::function<R()> read) {
  requireValidName(name);
  common::MutexLock lock(mutex_);
  Entry& entry = entries_[name];
  // An empty callback leaves a help-only entry, as if never registered.
  entry.read = read ? Readout(std::move(read)) : Readout();
  entry.instrument = std::monostate{};
}

void Registry::registerCounter(const std::string& name,
                               std::function<std::uint64_t()> read) {
  replace(name, std::move(read));
}

void Registry::registerGauge(const std::string& name,
                             std::function<double()> read) {
  replace(name, std::move(read));
}

void Registry::registerHistogram(const std::string& name,
                                 std::function<Histogram::Snapshot()> read) {
  replace(name, std::move(read));
}

void Registry::registerSummary(const std::string& name,
                               std::function<SummarySnapshot()> read) {
  replace(name, std::move(read));
}

void Registry::setHelp(const std::string& name, const std::string& help) {
  requireValidName(name);
  common::MutexLock lock(mutex_);
  entries_[name].help = help;
}

std::size_t Registry::removeByPrefix(const std::string& prefix) {
  common::MutexLock lock(mutex_);
  std::size_t removed = 0;
  for (auto it = entries_.lower_bound(prefix); it != entries_.end();) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    it = entries_.erase(it);
    ++removed;
  }
  return removed;
}

std::size_t Registry::size() const {
  common::MutexLock lock(mutex_);
  return entries_.size();
}

std::string Registry::exportJson(bool includeRecentLog) const {
  common::MutexLock lock(mutex_);
  // One section per kind, in Readout alternative order.
  std::ostringstream sections[4];
  for (const auto& [name, entry] : entries_) {
    if (entry.read.index() == 0) continue;  // help only
    std::ostringstream& os = sections[entry.read.index() - 1];
    if (os.tellp() > 0) os << ",";
    os << "\"" << escapeJson(name) << "\":";
    if (const auto* read = std::get_if<CounterRead>(&entry.read)) {
      os << (*read)();
    } else if (const auto* read = std::get_if<GaugeRead>(&entry.read)) {
      appendDouble(os, (*read)());
    } else if (const auto* read = std::get_if<HistogramRead>(&entry.read)) {
      const Histogram::Snapshot snap = (*read)();
      os << "{\"count\":" << snap.count << ",\"sum\":" << snap.sum
         << ",\"mean\":";
      appendDouble(os, snap.mean());
      os << ",\"p50\":" << snap.quantile(0.50)
         << ",\"p90\":" << snap.quantile(0.90)
         << ",\"p99\":" << snap.quantile(0.99) << ",\"buckets\":[";
      bool firstBucket = true;
      for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
        if (snap.buckets[b] == 0) continue;
        if (!firstBucket) os << ",";
        firstBucket = false;
        os << "[" << Histogram::bucketUpperBound(b) << "," << snap.buckets[b]
           << "]";
      }
      os << "]}";
    } else if (const auto* read = std::get_if<SummaryRead>(&entry.read)) {
      const SummarySnapshot snap = (*read)();
      os << "{\"count\":" << snap.count << ",\"mean_seconds\":";
      appendDouble(os, snap.meanSeconds);
      os << ",\"max_seconds\":";
      appendDouble(os, snap.maxSeconds);
      os << ",\"p50_seconds\":";
      appendDouble(os, snap.p50Seconds);
      os << ",\"p95_seconds\":";
      appendDouble(os, snap.p95Seconds);
      os << "}";
    }
  }

  std::ostringstream os;
  os << "{\"counters\":{" << sections[0].str() << "},\"gauges\":{"
     << sections[1].str() << "},\"histograms\":{" << sections[2].str()
     << "},\"summaries\":{" << sections[3].str() << "}";
  if (includeRecentLog) {
    os << ",\"recent_log\":[";
    bool first = true;
    for (const common::LogRecord& rec : common::recentLogRecords()) {
      if (!first) os << ",";
      first = false;
      os << "{\"level\":\"" << common::logLevelName(rec.level)
         << "\",\"seq\":" << rec.seq << ",\"message\":\""
         << escapeJson(rec.message) << "\"}";
    }
    os << "]";
  }
  os << "}";
  return os.str();
}

std::string Registry::exportPrometheus() const {
  // # TYPE names, in Readout alternative order.
  static constexpr const char* kTypes[] = {"", "counter", "gauge",
                                           "histogram", "summary"};
  common::MutexLock lock(mutex_);
  std::ostringstream os;
  for (const auto& [name, entry] : entries_) {
    if (entry.read.index() == 0) continue;  // help only
    // The name doubles as default help.
    const std::string metric = promName(name);
    os << "# HELP " << metric << " "
       << escapeHelp(entry.help.empty() ? name : entry.help) << "\n";
    os << "# TYPE " << metric << " " << kTypes[entry.read.index()] << "\n";
    if (const auto* read = std::get_if<CounterRead>(&entry.read)) {
      os << metric << " " << (*read)() << "\n";
    } else if (const auto* read = std::get_if<GaugeRead>(&entry.read)) {
      os << metric << " " << (*read)() << "\n";
    } else if (const auto* read = std::get_if<HistogramRead>(&entry.read)) {
      const Histogram::Snapshot snap = (*read)();
      std::uint64_t cumulative = 0;
      for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
        if (snap.buckets[b] == 0) continue;
        cumulative += snap.buckets[b];
        os << metric << "_bucket{le=\"" << Histogram::bucketUpperBound(b)
           << "\"} " << cumulative << "\n";
      }
      os << metric << "_bucket{le=\"+Inf\"} " << snap.count << "\n";
      os << metric << "_sum " << snap.sum << "\n";
      os << metric << "_count " << snap.count << "\n";
    } else if (const auto* read = std::get_if<SummaryRead>(&entry.read)) {
      const SummarySnapshot snap = (*read)();
      os << metric << "{quantile=\"0.5\"} " << snap.p50Seconds << "\n";
      os << metric << "{quantile=\"0.95\"} " << snap.p95Seconds << "\n";
      os << metric << "_sum "
         << snap.meanSeconds * static_cast<double>(snap.count) << "\n";
      os << metric << "_count " << snap.count << "\n";
    }
  }
  return os.str();
}

Registry& defaultRegistry() {
  static Registry instance;
  return instance;
}

}  // namespace tp::obs
