// tp::obs: trace recorder (ring wraparound, sampling, epoch retirement,
// Chrome JSON), log-bucketed histogram (boundaries, merge algebra),
// metrics registry (exposition, ownership prefixes), the shared JSON
// writer and the common/log recent-events tap. The two Concurrent* tests
// are the named TSan coverage behind the TP_LOCK_FREE_AUDITED markers in
// obs/.

#include <atomic>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/clock.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using tp::obs::Histogram;
using tp::obs::Registry;
using tp::obs::TraceEvent;
using tp::obs::TraceRecorder;

// The process-wide recorder is shared across tests; each test that uses
// it calls enable() (which retires prior buffers and resets the session)
// and disable()s on exit.
class TraceSession {
public:
  explicit TraceSession(TraceRecorder::Config config) {
    tp::obs::traceRecorder().enable(config);
  }
  ~TraceSession() { tp::obs::traceRecorder().disable(); }
};

std::uint64_t countWithName(const TraceRecorder::Snapshot& snap,
                            const std::string& name) {
  std::uint64_t n = 0;
  for (const auto& thread : snap.threads) {
    for (const TraceEvent& ev : thread.events) {
      if (snap.names.at(ev.nameId) == name) ++n;
    }
  }
  return n;
}

TEST(TraceRecorder, DisabledRecordsNothing) {
  TraceRecorder& rec = tp::obs::traceRecorder();
  rec.disable();
  const auto before = rec.snapshot().totalEvents;
  { TP_TRACE_SPAN("test.disabled"); }
  TP_TRACE_INSTANT("test.disabled_instant", 1);
  EXPECT_EQ(rec.snapshot().totalEvents, before);
}

TEST(TraceRecorder, SpanAndInstantRoundTrip) {
  TraceRecorder::Config config;
  config.sampleEveryN = 1;
  TraceSession session(config);
  TraceRecorder& rec = tp::obs::traceRecorder();
  {
    TP_TRACE_SPAN_ARG("test.span", 42);
    TP_TRACE_INSTANT("test.instant", 7);
  }
  const auto snap = rec.snapshot();
  EXPECT_EQ(countWithName(snap, "test.span"), 1u);
  EXPECT_EQ(countWithName(snap, "test.instant"), 1u);
  for (const auto& thread : snap.threads) {
    for (const TraceEvent& ev : thread.events) {
      if (snap.names.at(ev.nameId) == "test.span") {
        EXPECT_EQ(ev.arg, 42u);
        EXPECT_GE(ev.end, ev.begin);
        EXPECT_GE(ev.begin, snap.baseTicks);
      }
      if (snap.names.at(ev.nameId) == "test.instant") {
        EXPECT_EQ(ev.arg, 7u);
        EXPECT_EQ(ev.end, 0u);  // instant marker
      }
    }
  }
}

TEST(TraceRecorder, RingWraparoundCountsDropsExactly) {
  TraceRecorder::Config config;
  config.ringCapacity = 8;
  config.sampleEveryN = 1;
  TraceSession session(config);
  TraceRecorder& rec = tp::obs::traceRecorder();
  const std::uint32_t id = rec.internName("test.wrap");
  for (std::uint64_t i = 0; i < 11; ++i) {
    rec.record(id, tp::obs::nowTicks(), 0, i);
  }
  const auto snap = rec.snapshot();
  EXPECT_EQ(snap.totalEvents, 8u);
  EXPECT_EQ(snap.totalDropped, 3u);
  // The survivors are the NEWEST 8, oldest first: args 3..10.
  for (const auto& thread : snap.threads) {
    if (thread.events.empty()) continue;
    ASSERT_EQ(thread.events.size(), 8u);
    EXPECT_EQ(thread.dropped, 3u);
    for (std::size_t i = 0; i < thread.events.size(); ++i) {
      EXPECT_EQ(thread.events[i].arg, i + 3);
    }
  }
}

TEST(TraceRecorder, SampledSpanKeepsOneInN) {
  TraceRecorder::Config config;
  config.sampleEveryN = 8;
  TraceSession session(config);
  for (int i = 0; i < 64; ++i) {
    TP_TRACE_SPAN_SAMPLED("test.sampled", i);
  }
  const auto snap = tp::obs::traceRecorder().snapshot();
  EXPECT_EQ(countWithName(snap, "test.sampled"), 8u);
}

TEST(TraceRecorder, NameIdsStableAcrossSessions) {
  TraceRecorder& rec = tp::obs::traceRecorder();
  const std::uint32_t id = rec.internName("test.stable_name");
  rec.enable(TraceRecorder::Config{});
  EXPECT_EQ(rec.internName("test.stable_name"), id);
  rec.disable();
  rec.enable();  // the default-config overload
  EXPECT_EQ(rec.internName("test.stable_name"), id);
  rec.disable();
}

TEST(TraceRecorder, EnableRetiresPreviousSessionBuffers) {
  TraceRecorder& rec = tp::obs::traceRecorder();
  TraceRecorder::Config config;
  config.sampleEveryN = 1;
  rec.enable(config);
  const std::uint32_t id = rec.internName("test.retired");
  rec.record(id, tp::obs::nowTicks(), 0, 1);
  // A new session must not see the previous session's events — even with
  // a different ring capacity (the old buffers are retired, not resized).
  config.ringCapacity = 4;
  rec.enable(config);
  rec.record(id, tp::obs::nowTicks(), 0, 2);
  const auto snap = rec.snapshot();
  rec.disable();
  EXPECT_EQ(snap.totalEvents, 1u);
  for (const auto& thread : snap.threads) {
    for (const TraceEvent& ev : thread.events) EXPECT_EQ(ev.arg, 2u);
  }
}

TEST(TraceRecorder, ChromeTraceJsonShape) {
  TraceRecorder::Config config;
  config.sampleEveryN = 1;
  TraceSession session(config);
  {
    TP_TRACE_SPAN_ARG("test.json_span", 5);
    TP_TRACE_INSTANT("test.json_instant", 6);
  }
  std::ostringstream os;
  tp::obs::traceRecorder().writeChromeTrace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json_span\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json_instant\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
}

TEST(TraceRecorder, ConcurrentRecordAndSnapshotUnderContention) {
  TraceRecorder::Config config;
  config.ringCapacity = 256;
  config.sampleEveryN = 1;
  TraceSession session(config);
  TraceRecorder& rec = tp::obs::traceRecorder();
  const std::uint32_t id = rec.internName("test.contended");
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 4000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&rec, id] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        const std::uint64_t t = tp::obs::nowTicks();
        rec.record(id, t, t + 1, i);
      }
    });
  }
  std::thread reader([&] {
    while (!stop.load()) {
      const auto snap = rec.snapshot();
      // Per-buffer consistency: kept events never exceed capacity, and
      // kept + dropped never exceeds what was written in total.
      for (const auto& thread : snap.threads) {
        EXPECT_LE(thread.events.size(), 256u);
      }
      EXPECT_LE(snap.totalEvents, kWriters * 256u);
    }
  });
  for (auto& t : writers) t.join();
  stop.store(true);
  reader.join();
  const auto snap = rec.snapshot();
  std::uint64_t accounted = snap.totalEvents + snap.totalDropped;
  EXPECT_EQ(accounted, kWriters * kPerWriter);
}

// ---------------------------------------------------------------------------

TEST(Histogram, BucketBoundaries) {
  EXPECT_EQ(Histogram::bucketIndex(0), 0u);
  EXPECT_EQ(Histogram::bucketIndex(1), 1u);
  EXPECT_EQ(Histogram::bucketIndex(2), 2u);
  EXPECT_EQ(Histogram::bucketIndex(3), 2u);
  EXPECT_EQ(Histogram::bucketIndex(4), 3u);
  EXPECT_EQ(Histogram::bucketIndex(7), 3u);
  EXPECT_EQ(Histogram::bucketIndex(8), 4u);
  EXPECT_EQ(Histogram::bucketIndex(1023), 10u);
  EXPECT_EQ(Histogram::bucketIndex(1024), 11u);
  EXPECT_EQ(Histogram::bucketIndex(~std::uint64_t{0}), 64u);
  // Upper bounds invert the mapping: a value lands in the bucket whose
  // bound is the smallest one >= it.
  EXPECT_EQ(Histogram::bucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::bucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::bucketUpperBound(2), 3u);
  EXPECT_EQ(Histogram::bucketUpperBound(3), 7u);
  EXPECT_EQ(Histogram::bucketUpperBound(64), ~std::uint64_t{0});
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1},
                          std::uint64_t{5}, std::uint64_t{1000},
                          std::uint64_t{1} << 40}) {
    const std::size_t b = Histogram::bucketIndex(v);
    EXPECT_LE(v, Histogram::bucketUpperBound(b));
    if (b > 0) {
      EXPECT_GT(v, Histogram::bucketUpperBound(b - 1));
    }
  }
}

TEST(Histogram, RecordAndQuantile) {
  Histogram h(2);
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.sum, 500500u);
  EXPECT_NEAR(snap.mean(), 500.5, 1e-9);
  // Quantiles are bucket upper bounds: within 2x of the true value.
  EXPECT_GE(snap.quantile(0.5), 500u);
  EXPECT_LE(snap.quantile(0.5), 1023u);
  EXPECT_GE(snap.quantile(1.0), 1000u);
}

TEST(Histogram, MergeIsAssociativeAndCommutative) {
  // Property check over deterministic pseudo-random shards: merging
  // per-shard snapshots in any order/grouping equals one pooled count.
  constexpr int kShards = 4;
  std::vector<Histogram::Snapshot> parts(kShards);
  Histogram pooled(1);
  std::uint64_t state = 0x243F6A8885A308D3ull;
  for (int s = 0; s < kShards; ++s) {
    Histogram h(1);
    for (int i = 0; i < 500; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      const std::uint64_t v = state >> (state % 50);
      h.record(v);
      pooled.record(v);
    }
    parts[s] = h.snapshot();
  }
  // Left fold, right fold, and a pair-of-pairs grouping.
  Histogram::Snapshot left;
  for (int s = 0; s < kShards; ++s) left.merge(parts[s]);
  Histogram::Snapshot right;
  for (int s = kShards - 1; s >= 0; --s) right.merge(parts[s]);
  Histogram::Snapshot ab = parts[0];
  ab.merge(parts[1]);
  Histogram::Snapshot cd = parts[2];
  cd.merge(parts[3]);
  Histogram::Snapshot grouped = ab;
  grouped.merge(cd);
  const Histogram::Snapshot expect = pooled.snapshot();
  for (const Histogram::Snapshot* got : {&left, &right, &grouped}) {
    EXPECT_EQ(got->count, expect.count);
    EXPECT_EQ(got->sum, expect.sum);
    EXPECT_EQ(got->buckets, expect.buckets);
  }
}

TEST(Histogram, ConcurrentRecordAndSnapshotAgree) {
  Histogram h;  // auto stripes
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 20000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&h] {
      for (std::uint64_t i = 1; i <= kPerWriter; ++i) h.record(i);
    });
  }
  std::thread reader([&] {
    while (!stop.load()) {
      const auto snap = h.snapshot();
      // Monotone partial sums: sum is consistent with count under the
      // per-writer value schedule (each write adds between 1 and N).
      EXPECT_LE(snap.count, kWriters * kPerWriter);
      EXPECT_GE(snap.sum, snap.count);
    }
  });
  for (auto& t : writers) t.join();
  stop.store(true);
  reader.join();
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, kWriters * kPerWriter);
  EXPECT_EQ(snap.sum, kWriters * (kPerWriter * (kPerWriter + 1) / 2));
}

// The writer sets fixed/precision(3) for its timestamps; the caller's
// stream must come back exactly as it went in.
TEST(TraceRecorder, ChromeTraceRestoresStreamFormat) {
  std::ostringstream os;
  os.precision(10);
  TraceRecorder::writeChromeTrace(os, TraceRecorder::Snapshot{});
  EXPECT_EQ(os.precision(), 10);
  os.str("");
  os << 0.123456789;
  EXPECT_EQ(os.str(), "0.123456789");
}

// ---------------------------------------------------------------------------

TEST(Json, EscapesQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(tp::obs::escapeJson("plain.name_1"), "plain.name_1");
  EXPECT_EQ(tp::obs::escapeJson("a\"b\\c\nd\re\tf"),
            "a\\\"b\\\\c\\nd\\re\\tf");
  EXPECT_EQ(tp::obs::escapeJson(std::string("\x01\x1f\0", 3)),
            "\\u0001\\u001f\\u0000");
  EXPECT_EQ(tp::obs::escapeJson("caf\xc3\xa9 \x7f"), "caf\xc3\xa9 \x7f");
}

TEST(Json, DoublesRoundTripAndNonFiniteIsZero) {
  std::ostringstream os;
  tp::obs::appendDouble(os, 0.1);
  os << " ";
  tp::obs::appendDouble(os, std::numeric_limits<double>::quiet_NaN());
  os << " ";
  tp::obs::appendDouble(os, -std::numeric_limits<double>::infinity());
  os << " " << 0.123456789;  // the stream's own precision is back
  EXPECT_EQ(os.str(), "0.10000000000000001 0 0 0.123457");
}

TEST(Registry, OwnedInstrumentsAndExposition) {
  Registry reg;
  reg.counter("test.requests").add(3);
  reg.gauge("test.depth").set(2.5);
  reg.histogram("test.latency_ns").record(1000);
  reg.registerCounter("test.external", [] { return std::uint64_t{7}; });
  reg.registerSummary("test.summary", [] {
    return tp::obs::SummarySnapshot{10, 0.001, 0.01, 0.001, 0.005};
  });
  EXPECT_EQ(reg.size(), 5u);

  const std::string json = reg.exportJson(/*includeRecentLog=*/false);
  EXPECT_NE(json.find("\"test.requests\":3"), std::string::npos);
  EXPECT_NE(json.find("\"test.external\":7"), std::string::npos);
  EXPECT_NE(json.find("\"test.depth\""), std::string::npos);
  EXPECT_NE(json.find("\"test.latency_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"test.summary\""), std::string::npos);

  const std::string prom = reg.exportPrometheus();
  EXPECT_NE(prom.find("tp_test_requests 3"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE tp_test_requests counter"), std::string::npos);
  EXPECT_NE(prom.find("tp_test_latency_ns_count 1"), std::string::npos);
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);
}

TEST(Registry, KindConflictThrows) {
  Registry reg;
  reg.counter("test.name");
  EXPECT_THROW(reg.gauge("test.name"), tp::Error);
  EXPECT_THROW(reg.histogram("test.name"), tp::Error);
  // Same kind re-lookup returns the same instrument.
  reg.counter("test.name").add();
  EXPECT_EQ(reg.counter("test.name").total(), 1u);
  // An owned lookup over a readout throws, even of the same kind.
  reg.registerCounter("test.readout", [] { return std::uint64_t{4}; });
  EXPECT_THROW(reg.counter("test.readout"), tp::Error);
  // register* replaces an owned instrument and keeps its help text.
  reg.setHelp("test.name", "kept help");
  reg.registerGauge("test.name", [] { return 1.5; });
  EXPECT_NE(reg.exportPrometheus().find("# HELP tp_test_name kept help\n"
                                        "# TYPE tp_test_name gauge\n"
                                        "tp_test_name 1.5\n"),
            std::string::npos);
  EXPECT_THROW(reg.counter("test.name"), tp::Error);
  EXPECT_EQ(reg.size(), 2u);
}

// Every kind, owned and as a readout, plus help text, a help-only entry
// and names the Prometheus exposition must sanitize: both expositions
// are pinned byte for byte.
TEST(Registry, ExpositionBytesArePinned) {
  Registry reg;
  reg.counter("pin.owned_counter").add(3);
  reg.registerCounter("pin.read_counter", [] { return std::uint64_t{7}; });
  reg.gauge("pin.owned_gauge").set(0.1);
  reg.registerGauge("pin.read_gauge", [] { return -2.5; });
  reg.registerGauge("pin.inf_gauge",
                    [] { return std::numeric_limits<double>::infinity(); });
  Histogram& hist = reg.histogram("pin.owned_hist", 2);
  hist.record(0);
  hist.record(1);
  hist.record(1000);
  reg.registerHistogram("pin.read_hist", [] {
    Histogram::Snapshot snap;
    snap.count = 2;
    snap.sum = 300;
    snap.buckets[Histogram::bucketIndex(100)] = 1;
    snap.buckets[Histogram::bucketIndex(200)] = 1;
    return snap;
  });
  reg.registerSummary("pin.read_summary", [] {
    return tp::obs::SummarySnapshot{4, 0.25, 1.0 / 3.0, 0.125, 0.5};
  });
  reg.setHelp("pin.owned_counter", "Owned \"counter\"\nwith \\ escapes");
  reg.setHelp("pin.read_hist", "a readout histogram");
  reg.setHelp("pin.help_only", "help before any instrument");
  reg.counter("Ns:colon.mixed_Case").add(1);

  EXPECT_EQ(
      reg.exportJson(/*includeRecentLog=*/false),
      R"({"counters":{"Ns:colon.mixed_Case":1,"pin.owned_counter":3,)"
      R"("pin.read_counter":7},"gauges":{"pin.inf_gauge":0,)"
      R"("pin.owned_gauge":0.10000000000000001,"pin.read_gauge":-2.5},)"
      R"("histograms":{"pin.owned_hist":{"count":3,"sum":1001,)"
      R"("mean":333.66666666666669,"p50":1,"p90":1023,"p99":1023,)"
      R"("buckets":[[0,1],[1,1],[1023,1]]},"pin.read_hist":{"count":2,)"
      R"("sum":300,"mean":150,"p50":127,"p90":255,"p99":255,)"
      R"("buckets":[[127,1],[255,1]]}},"summaries":{"pin.read_summary":)"
      R"({"count":4,"mean_seconds":0.25,"max_seconds":0.33333333333333331,)"
      R"("p50_seconds":0.125,"p95_seconds":0.5}}})");
  EXPECT_EQ(reg.exportPrometheus(),
            R"(# HELP tp_Ns:colon_mixed_Case Ns:colon.mixed_Case
# TYPE tp_Ns:colon_mixed_Case counter
tp_Ns:colon_mixed_Case 1
# HELP tp_pin_inf_gauge pin.inf_gauge
# TYPE tp_pin_inf_gauge gauge
tp_pin_inf_gauge inf
# HELP tp_pin_owned_counter Owned "counter"\nwith \\ escapes
# TYPE tp_pin_owned_counter counter
tp_pin_owned_counter 3
# HELP tp_pin_owned_gauge pin.owned_gauge
# TYPE tp_pin_owned_gauge gauge
tp_pin_owned_gauge 0.1
# HELP tp_pin_owned_hist pin.owned_hist
# TYPE tp_pin_owned_hist histogram
tp_pin_owned_hist_bucket{le="0"} 1
tp_pin_owned_hist_bucket{le="1"} 2
tp_pin_owned_hist_bucket{le="1023"} 3
tp_pin_owned_hist_bucket{le="+Inf"} 3
tp_pin_owned_hist_sum 1001
tp_pin_owned_hist_count 3
# HELP tp_pin_read_counter pin.read_counter
# TYPE tp_pin_read_counter counter
tp_pin_read_counter 7
# HELP tp_pin_read_gauge pin.read_gauge
# TYPE tp_pin_read_gauge gauge
tp_pin_read_gauge -2.5
# HELP tp_pin_read_hist a readout histogram
# TYPE tp_pin_read_hist histogram
tp_pin_read_hist_bucket{le="127"} 1
tp_pin_read_hist_bucket{le="255"} 2
tp_pin_read_hist_bucket{le="+Inf"} 2
tp_pin_read_hist_sum 300
tp_pin_read_hist_count 2
# HELP tp_pin_read_summary pin.read_summary
# TYPE tp_pin_read_summary summary
tp_pin_read_summary{quantile="0.5"} 0.125
tp_pin_read_summary{quantile="0.95"} 0.5
tp_pin_read_summary_sum 1
tp_pin_read_summary_count 4
)");
}

TEST(Registry, RemoveByPrefixScopesOwnership) {
  Registry reg;
  reg.counter("a.x");
  reg.counter("a.y");
  reg.counter("ab.z");  // shares the character prefix, not the scope "a."
  reg.counter("b.x");
  EXPECT_EQ(reg.removeByPrefix("a."), 2u);
  EXPECT_EQ(reg.size(), 2u);
  const std::string json = reg.exportJson(false);
  EXPECT_EQ(json.find("\"a.x\""), std::string::npos);
  EXPECT_NE(json.find("\"ab.z\""), std::string::npos);
  EXPECT_NE(json.find("\"b.x\""), std::string::npos);
}

// Exposition-format conformance: every metric carries a # HELP + # TYPE
// preamble, histograms expose cumulative _bucket/_sum/_count series,
// summaries expose quantile-labelled samples, and names outside the
// Prometheus charset are sanitized under the tp_ prefix.
TEST(Registry, PrometheusExpositionConformance) {
  Registry reg;
  reg.counter("test.requests").add(3);
  reg.setHelp("test.requests", "Requests served\nsince boot \\ total");
  reg.gauge("test.depth").set(2.5);
  Histogram& hist = reg.histogram("test.latency_ns");
  hist.record(1);     // bucket le="1"
  hist.record(1000);  // bucket le="1023"
  hist.record(1000);
  reg.registerSummary("test.summary", [] {
    return tp::obs::SummarySnapshot{10, 0.002, 0.01, 0.001, 0.005};
  });

  const std::string prom = reg.exportPrometheus();

  // HELP precedes TYPE precedes samples; newline/backslash escaped.
  const auto helpPos =
      prom.find("# HELP tp_test_requests Requests served\\nsince boot "
                "\\\\ total\n");
  const auto typePos = prom.find("# TYPE tp_test_requests counter\n");
  const auto samplePos = prom.find("tp_test_requests 3\n");
  ASSERT_NE(helpPos, std::string::npos);
  ASSERT_NE(typePos, std::string::npos);
  ASSERT_NE(samplePos, std::string::npos);
  EXPECT_LT(helpPos, typePos);
  EXPECT_LT(typePos, samplePos);

  // Unset help falls back to the registry name.
  EXPECT_NE(prom.find("# HELP tp_test_depth test.depth\n"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE tp_test_depth gauge\n"), std::string::npos);

  // Histogram: cumulative buckets, then _sum and _count.
  EXPECT_NE(prom.find("# TYPE tp_test_latency_ns histogram\n"),
            std::string::npos);
  EXPECT_NE(prom.find("tp_test_latency_ns_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(prom.find("tp_test_latency_ns_bucket{le=\"1023\"} 3\n"),
            std::string::npos)
      << "buckets must be cumulative, not per-bucket";
  EXPECT_NE(prom.find("tp_test_latency_ns_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(prom.find("tp_test_latency_ns_sum 2001\n"), std::string::npos);
  EXPECT_NE(prom.find("tp_test_latency_ns_count 3\n"), std::string::npos);

  // Summary: quantile-labelled samples plus _sum/_count.
  EXPECT_NE(prom.find("# TYPE tp_test_summary summary\n"),
            std::string::npos);
  EXPECT_NE(prom.find("tp_test_summary{quantile=\"0.5\"} 0.001\n"),
            std::string::npos);
  EXPECT_NE(prom.find("tp_test_summary{quantile=\"0.95\"} 0.005\n"),
            std::string::npos);
  EXPECT_NE(prom.find("tp_test_summary_count 10\n"), std::string::npos);

  // '.' is legal in the registry but not in Prometheus: every exported
  // token must be sanitized ([a-zA-Z0-9_:] only after the tp_ prefix).
  EXPECT_EQ(prom.find("tp_test."), std::string::npos);
  std::istringstream lines(prom);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# ", 0) == 0) continue;  // HELP/TYPE free text
    const auto nameEnd = line.find_first_of(" {");
    ASSERT_NE(nameEnd, std::string::npos) << line;
    for (const char c : line.substr(0, nameEnd)) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == ':';
      EXPECT_TRUE(ok) << "bad exposition name char '" << c << "' in "
                      << line;
    }
  }
}

// Registration-time name validation: one malformed name would poison
// the whole exposition, so every path rejects it up front.
TEST(Registry, InvalidMetricNamesThrowOnEveryRegistrationPath) {
  Registry reg;
  for (const std::string bad :
       {"", "9starts.with.digit", "has space", "has-dash", "emoji\xF0\x9F",
        ".leading.dot"}) {
    EXPECT_THROW(reg.counter(bad), tp::Error) << "counter('" << bad << "')";
    EXPECT_THROW(reg.gauge(bad), tp::Error);
    EXPECT_THROW(reg.histogram(bad), tp::Error);
    EXPECT_THROW(reg.registerCounter(bad, [] { return std::uint64_t{0}; }),
                 tp::Error);
    EXPECT_THROW(reg.registerGauge(bad, [] { return 0.0; }), tp::Error);
    EXPECT_THROW(
        reg.registerHistogram(bad, [] { return Histogram::Snapshot{}; }),
        tp::Error);
    EXPECT_THROW(
        reg.registerSummary(bad, [] { return tp::obs::SummarySnapshot{}; }),
        tp::Error);
    EXPECT_THROW(reg.setHelp(bad, "help"), tp::Error);
  }
  EXPECT_EQ(reg.size(), 0u) << "rejected names must not leave entries";
  // The accepted charset: letters, digits, '_', '.', ':'.
  reg.counter("Ok_name.with:all4");
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, HelpSurvivesReRegistration) {
  Registry reg;
  reg.registerGauge("test.replaced", [] { return 1.0; });
  reg.setHelp("test.replaced", "the original help text");
  // Components re-register readouts on reconfiguration (addMachine does
  // this); operator-facing help must not vanish when they do.
  reg.registerGauge("test.replaced", [] { return 2.0; });
  const std::string prom = reg.exportPrometheus();
  EXPECT_NE(prom.find("# HELP tp_test_replaced the original help text\n"),
            std::string::npos);
  EXPECT_NE(prom.find("tp_test_replaced 2\n"), std::string::npos)
      << "the new readout, with the old help";
}

// ---------------------------------------------------------------------------

TEST(LogTap, CapturesRecentRecordsBounded) {
  tp::common::setLogCaptureCapacity(4);
  for (int i = 0; i < 10; ++i) {
    TP_INFO("logtap message " << i);
  }
  const auto records = tp::common::recentLogRecords();
  ASSERT_EQ(records.size(), 4u);
  // The newest 4 survive, in order, with monotone sequence numbers.
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_NE(records[i].message.find("logtap message " + std::to_string(6 + i)),
              std::string::npos);
    if (i > 0) {
      EXPECT_GT(records[i].seq, records[i - 1].seq);
    }
  }
  tp::common::setLogCaptureCapacity(0);
  TP_INFO("logtap not captured");
  EXPECT_TRUE(tp::common::recentLogRecords().empty());
  tp::common::setLogCaptureCapacity(256);  // restore the default
}

TEST(LogTap, AppearsInRegistryJson) {
  tp::common::setLogCaptureCapacity(8);
  TP_WARN("logtap registry marker");
  Registry reg;
  const std::string json = reg.exportJson(/*includeRecentLog=*/true);
  EXPECT_NE(json.find("\"recent_log\""), std::string::npos);
  EXPECT_NE(json.find("logtap registry marker"), std::string::npos);
  EXPECT_EQ(reg.exportJson(false).find("\"recent_log\""), std::string::npos);
}

}  // namespace
