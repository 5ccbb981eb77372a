// tp::obs health layer: SloTracker window algebra (empty window, single
// sample, exact rollover boundaries, merge associativity, burn-rate and
// minSamples gating), the Hysteresis/WindowedRatio primitives (exact
// trip/clear streaks, windowed deltas), HealthMonitor state machine (debounce, dedup,
// hysteresis clear, bounded history, throwing rules, background thread)
// and FlightRecorder bundles (schema, prune, sequence continuation,
// attach-once-per-breach). The two Concurrent* tests are the named TSan
// coverage behind the TP_LOCK_FREE_AUDITED markers in obs/slo.* and the
// registerHealthRules sites in serve/ and fleet/.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "obs/clock.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"

namespace {

using tp::obs::DetectorRule;
using tp::obs::Firing;
using tp::obs::FlightRecorder;
using tp::obs::FlightRecorderConfig;
using tp::obs::HealthCounters;
using tp::obs::HealthEvent;
using tp::obs::HealthMonitor;
using tp::obs::Registry;
using tp::obs::Severity;
using tp::obs::SloConfig;
using tp::obs::SloTracker;

// ---------------------------------------------------------------------------
// Helpers

/// Fresh per-test directory under gtest's temp root, removed on exit.
class TempDir {
public:
  explicit TempDir(const std::string& name)
      : path_(std::filesystem::path(::testing::TempDir()) /
              ("tp_health_" + name)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

private:
  std::filesystem::path path_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// A rule driven by an external atomic flag (the test is the detector's
/// world): fires with a fixed payload whenever the flag is up.
DetectorRule flagRule(const std::string& name, std::atomic<bool>& flag,
                      Severity severity = Severity::Warning,
                      std::size_t triggerAfter = 1,
                      std::size_t clearAfter = 1) {
  DetectorRule rule;
  rule.name = name;
  rule.severity = severity;
  rule.triggerAfter = triggerAfter;
  rule.clearAfter = clearAfter;
  rule.evaluate = [&flag]() -> std::optional<Firing> {
    if (!flag.load(std::memory_order_relaxed)) return std::nullopt;
    return Firing{42.0, 7.0, "flag is up"};
  };
  return rule;
}

SloConfig baseSlo() {
  SloConfig config;
  config.windowSeconds = 8.0;  // 4 sub-windows of 2s = 2e9 ticks
  config.subWindows = 4;
  config.targetP99Seconds = 1e-6;   // 1000 ticks
  config.targetP999Seconds = 4e-6;  // 4000 ticks
  config.minSamples = 1;
  config.stripes = 4;
  return config;
}

// ---------------------------------------------------------------------------
// SloTracker: config + empty-window edges

TEST(SloConfig, EnabledNeedsWindowSubWindowsAndATarget) {
  SloConfig config = baseSlo();
  EXPECT_TRUE(config.enabled());
  config.windowSeconds = 0.0;
  EXPECT_FALSE(config.enabled());
  config = baseSlo();
  config.subWindows = 1;
  EXPECT_FALSE(config.enabled());
  config = baseSlo();
  config.targetP99Seconds = 0.0;
  config.targetP999Seconds = 0.0;
  EXPECT_FALSE(config.enabled());
  config.targetP999Seconds = 1e-3;
  EXPECT_TRUE(config.enabled());
}

TEST(SloTracker, EmptyWindowReportsZeroAndNeverBreaches) {
  SloTracker tracker(baseSlo());
  const SloTracker::Report r = tracker.report();
  EXPECT_EQ(r.count, 0u);
  EXPECT_EQ(r.subWindowsMerged, 0u);
  EXPECT_DOUBLE_EQ(r.p50Seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.p99Seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.burnRateP99, 0.0);
  EXPECT_DOUBLE_EQ(r.burnRateP999, 0.0);
  EXPECT_FALSE(r.breached);
  EXPECT_TRUE(tracker.liveSubWindows(tp::obs::nowTicks()).empty());
}

TEST(SloTracker, SingleSampleIsEveryQuantile) {
  SloTracker tracker(baseSlo());
  const std::uint64_t st = tracker.sliceTicks();
  tracker.record(500, st + 5);
  const SloTracker::Report r = tracker.reportAt(st + 10);
  EXPECT_EQ(r.count, 1u);
  EXPECT_EQ(r.subWindowsMerged, 1u);
  EXPECT_GT(r.p50Seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.p50Seconds, r.p99Seconds);
  EXPECT_DOUBLE_EQ(r.p99Seconds, r.p999Seconds);
  // 500ns is inside both targets: no violations, no burn.
  EXPECT_EQ(r.violationsP99, 0u);
  EXPECT_EQ(r.violationsP999, 0u);
  EXPECT_FALSE(r.breached);
}

TEST(SloTracker, ViolationCountsAreExactAndBurnScalesByBudget) {
  SloTracker tracker(baseSlo());
  const std::uint64_t st = tracker.sliceTicks();
  tracker.record(500, st);   // violates neither (<= 1000 and 4000)
  tracker.record(2000, st);  // violates p99 target only
  tracker.record(5000, st);  // violates both
  const SloTracker::Report r = tracker.reportAt(st + 1);
  EXPECT_EQ(r.count, 3u);
  EXPECT_EQ(r.violationsP99, 2u);
  EXPECT_EQ(r.violationsP999, 1u);
  // burn = (violations/count) / budget, budgets 1% and 0.1%.
  EXPECT_NEAR(r.burnRateP99, (2.0 / 3.0) / 0.01, 1e-9);
  EXPECT_NEAR(r.burnRateP999, (1.0 / 3.0) / 0.001, 1e-9);
  EXPECT_TRUE(r.breached);  // minSamples = 1 in baseSlo()
}

TEST(SloTracker, MinSamplesGatesBreachReporting) {
  SloConfig config = baseSlo();
  config.minSamples = 10;
  SloTracker tracker(config);
  const std::uint64_t st = tracker.sliceTicks();
  for (int i = 0; i < 5; ++i) tracker.record(50000, st);
  SloTracker::Report r = tracker.reportAt(st + 1);
  EXPECT_GT(r.burnRateP99, 1.0);
  EXPECT_FALSE(r.breached) << "below minSamples the budget cannot page";
  for (int i = 0; i < 5; ++i) tracker.record(50000, st);
  r = tracker.reportAt(st + 1);
  EXPECT_EQ(r.count, 10u);
  EXPECT_TRUE(r.breached);
}

// ---------------------------------------------------------------------------
// SloTracker: rollover boundaries + merge algebra

TEST(SloTracker, ExactRolloverBoundaryAgesSamplesOut) {
  SloTracker tracker(baseSlo());  // 4 sub-windows
  const std::uint64_t st = tracker.sliceTicks();
  tracker.record(100, 1 * st);  // lands exactly at the slice-1 boundary

  // Visible through the whole horizon: current slice in [1, 4].
  EXPECT_EQ(tracker.reportAt(1 * st).count, 1u);
  EXPECT_EQ(tracker.reportAt(2 * st - 1).count, 1u);
  EXPECT_EQ(tracker.reportAt(5 * st - 1).count, 1u)
      << "last tick of slice 4 still covers slice 1";
  // First tick of slice 5: cur - slice == subWindows, aged out exactly.
  EXPECT_EQ(tracker.reportAt(5 * st).count, 0u);
  EXPECT_EQ(tracker.reportAt(5 * st).subWindowsMerged, 0u);
}

TEST(SloTracker, ReportSkipsSubWindowsFromTheFuture) {
  SloTracker tracker(baseSlo());
  const std::uint64_t st = tracker.sliceTicks();
  tracker.record(100, 3 * st);
  // Reporting at an earlier tick must not see slice 3.
  EXPECT_EQ(tracker.reportAt(1 * st).count, 0u);
  EXPECT_EQ(tracker.reportAt(3 * st).count, 1u);
}

TEST(SloTracker, MergeIsAssociativeAndFoldsIntoReport) {
  SloTracker tracker(baseSlo());
  const std::uint64_t st = tracker.sliceTicks();
  // Spread mixed samples across three slices.
  for (std::uint64_t s = 1; s <= 3; ++s) {
    tracker.record(500 + s, s * st);
    tracker.record(2000 + s, s * st + 1);
    tracker.record(5000 + s, s * st + 2);
  }
  const std::uint64_t at = 3 * st + 10;
  const std::vector<SloTracker::WindowSnapshot> snaps =
      tracker.liveSubWindows(at);
  ASSERT_EQ(snaps.size(), 3u);
  // Oldest slice first.
  EXPECT_LT(snaps[0].slice, snaps[1].slice);
  EXPECT_LT(snaps[1].slice, snaps[2].slice);

  // Left fold, right fold, and a pairwise tree must all agree.
  SloTracker::WindowSnapshot left = snaps[0];
  left.merge(snaps[1]);
  left.merge(snaps[2]);
  SloTracker::WindowSnapshot right = snaps[2];
  right.merge(snaps[1]);
  right.merge(snaps[0]);
  SloTracker::WindowSnapshot pair = snaps[1];
  pair.merge(snaps[2]);
  SloTracker::WindowSnapshot tree = snaps[0];
  tree.merge(pair);

  for (const SloTracker::WindowSnapshot* snap : {&right, &tree}) {
    EXPECT_EQ(left.hist.count, snap->hist.count);
    EXPECT_EQ(left.hist.sum, snap->hist.sum);
    EXPECT_EQ(left.violationsP99, snap->violationsP99);
    EXPECT_EQ(left.violationsP999, snap->violationsP999);
    EXPECT_EQ(left.hist.quantile(0.5), snap->hist.quantile(0.5));
    EXPECT_EQ(left.hist.quantile(0.99), snap->hist.quantile(0.99));
  }

  // report() is exactly the fold of merge() over the live sub-windows.
  const SloTracker::Report r = tracker.reportAt(at);
  EXPECT_EQ(r.count, left.hist.count);
  EXPECT_EQ(r.count, 9u);
  EXPECT_EQ(r.violationsP99, left.violationsP99);
  EXPECT_EQ(r.violationsP999, left.violationsP999);
  EXPECT_EQ(r.subWindowsMerged, snaps.size());
}

TEST(SloTracker, RingReusesSubWindowsAcrossManyRotations) {
  SloTracker tracker(baseSlo());  // 4 sub-windows
  const std::uint64_t st = tracker.sliceTicks();
  // 20 slices over a 4-slot ring: each rotation must zero the reused
  // slot, so every report sees only its own slice's single sample.
  for (std::uint64_t s = 1; s <= 20; ++s) {
    tracker.record(100, s * st);
    const SloTracker::Report r = tracker.reportAt(s * st);
    EXPECT_LE(r.count, 4u) << "stale samples leaked through rotation";
  }
  EXPECT_EQ(tracker.reportAt(20 * st).count, 4u);
}

// The named TSan coverage behind the TP_LOCK_FREE_AUDITED markers on
// SloTracker::rotate / snapshotSub / record: recorders hammer a tracker
// whose slices roll over every ~1ms (forcing rotation races) while a
// reader drains reports. Per-stripe seqlock copies must stay internally
// consistent — bucket sums equal counts, violations never exceed counts
// — and no sample may be torn into a partial state.
TEST(SloTracker, ConcurrentRecordWhileRotateKeepsTotalsSane) {
  SloConfig config;
  config.windowSeconds = 0.004;  // 4 slices of 1ms: rotations are hot
  config.subWindows = 4;
  config.targetP99Seconds = 1e-6;
  config.targetP999Seconds = 4e-6;
  config.minSamples = 1;
  config.stripes = 4;
  SloTracker tracker(config);

  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 20000;
  std::atomic<bool> done{false};

  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::uint64_t at = tp::obs::nowTicks();
      for (const SloTracker::WindowSnapshot& snap :
           tracker.liveSubWindows(at)) {
        std::uint64_t bucketSum = 0;
        for (const std::uint64_t b : snap.hist.buckets) bucketSum += b;
        EXPECT_EQ(bucketSum, snap.hist.count) << "torn stripe copy";
        EXPECT_LE(snap.violationsP99, snap.hist.count);
        EXPECT_LE(snap.violationsP999, snap.hist.count);
      }
      const SloTracker::Report r = tracker.reportAt(at);
      EXPECT_LE(r.violationsP99, r.count);
      EXPECT_LE(r.violationsP999, r.count);
      EXPECT_LE(r.count, kThreads * kPerThread);
    }
  });

  std::vector<std::thread> recorders;
  recorders.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    recorders.emplace_back([&tracker, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        tracker.record(100 + (i + static_cast<std::uint64_t>(t)) % 6000);
      }
    });
  }
  for (std::thread& worker : recorders) worker.join();
  done.store(true, std::memory_order_release);
  reader.join();

  // After the dust settles the live window still reports sanely (the
  // horizon may have aged early samples out, so <= is the contract).
  const SloTracker::Report r = tracker.report();
  EXPECT_LE(r.count, kThreads * kPerThread);
  EXPECT_LE(r.violationsP99, r.count);
}

// ---------------------------------------------------------------------------
// Hysteresis and WindowedRatio: the shared debounce and rate primitives

TEST(Hysteresis, TripsAndClearsOnExactStreaks) {
  // Inputs: H = firing, c = quiet. Edges: O = opened, C = closed,
  // . = none.
  struct Row {
    const char* what;
    std::size_t tripAfter;
    std::size_t clearAfter;
    const char* inputs;
    const char* edges;
  };
  const Row rows[] = {
      {"trips on exactly the third firing", 3, 1, "HHH", "..O"},
      {"firings while active emit nothing", 2, 1, "HHHHH", ".O..."},
      {"clears on exactly the third quiet", 1, 3, "Hccc", "O..C"},
      {"quiets while closed emit nothing", 1, 1, "cccHcc", "...OC."},
      {"alternating never trips at tripAfter 2", 2, 2, "HcHcHcHc",
       "........"},
      {"a quiet resets the firing streak", 2, 1, "HcHH", "...O"},
      {"a firing resets the quiet streak", 1, 2, "HcHccH", "O...CO"},
  };
  for (const Row& row : rows) {
    tp::obs::Hysteresis hysteresis(row.tripAfter, row.clearAfter);
    std::string edges;
    bool active = false;
    for (const char* in = row.inputs; *in != '\0'; ++in) {
      switch (hysteresis.update(*in == 'H')) {
        case tp::obs::Hysteresis::Edge::Opened: edges += 'O'; active = true; break;
        case tp::obs::Hysteresis::Edge::Closed: edges += 'C'; active = false; break;
        case tp::obs::Hysteresis::Edge::None: edges += '.'; break;
      }
      EXPECT_EQ(hysteresis.active(), active) << row.what;
    }
    EXPECT_EQ(edges, row.edges) << row.what;
  }

  // Zero counts are rejected, as addRule rejects a rule carrying them.
  EXPECT_THROW(tp::obs::Hysteresis(0, 1), tp::Error);
  EXPECT_THROW(tp::obs::Hysteresis(1, 0), tp::Error);
  HealthMonitor monitor;
  std::atomic<bool> flag{false};
  EXPECT_THROW(monitor.addRule(flagRule("zero.trigger", flag,
                                        Severity::Warning, 0, 1)),
               tp::Error);
  EXPECT_THROW(monitor.addRule(flagRule("zero.clear", flag,
                                        Severity::Warning, 1, 0)),
               tp::Error);
  EXPECT_EQ(monitor.ruleCount(), 0u);
}

TEST(WindowedRatio, JudgesDeltasAndAdvancesEveryCall) {
  tp::obs::WindowedRatio window(10);
  EXPECT_EQ(window.update(3, 9), std::nullopt) << "9 < 10: not judged";
  EXPECT_EQ(window.lastSpan(), 9u);
  // The skipped window still advanced: only growth since (3, 9) counts.
  EXPECT_EQ(window.update(8, 29), std::optional<double>(0.25));
  EXPECT_EQ(window.lastSpan(), 20u);
  EXPECT_EQ(window.update(8, 30), std::nullopt);
  EXPECT_EQ(window.update(18, 40), std::optional<double>(1.0));
  // A minimum of 0 still refuses an empty window (no 0/0).
  tp::obs::WindowedRatio any(0);
  EXPECT_EQ(any.update(0, 0), std::nullopt);
  EXPECT_EQ(any.update(1, 2), std::optional<double>(0.5));
}

// ---------------------------------------------------------------------------
// HealthMonitor: state machine

TEST(HealthMonitor, SeverityNamesMatchExposition) {
  EXPECT_STREQ(tp::obs::severityName(Severity::Info), "info");
  EXPECT_STREQ(tp::obs::severityName(Severity::Warning), "warning");
  EXPECT_STREQ(tp::obs::severityName(Severity::Critical), "critical");
}

TEST(HealthMonitor, RejectsMalformedRules) {
  HealthMonitor monitor;
  DetectorRule unnamed;
  unnamed.evaluate = [] { return std::nullopt; };
  EXPECT_THROW(monitor.addRule(unnamed), tp::Error);
  DetectorRule noFn;
  noFn.name = "x";
  EXPECT_THROW(monitor.addRule(noFn), tp::Error);
  std::atomic<bool> flag{false};
  monitor.addRule(flagRule("x", flag));
  EXPECT_THROW(monitor.addRule(flagRule("x", flag)), tp::Error)
      << "duplicate rule names must be rejected";
  EXPECT_EQ(monitor.ruleCount(), 1u);
}

TEST(HealthMonitor, DebounceEmitsExactlyOneEventPerSustainedBreach) {
  HealthMonitor monitor;
  std::atomic<bool> flag{true};
  monitor.addRule(flagRule("test.breach", flag, Severity::Critical,
                           /*triggerAfter=*/2, /*clearAfter=*/2));

  EXPECT_EQ(monitor.evaluateOnce(), 0u) << "debounce holds the first firing";
  EXPECT_EQ(monitor.evaluateOnce(), 1u);
  EXPECT_EQ(monitor.evaluateOnce(), 0u) << "sustained breach is deduped";
  EXPECT_EQ(monitor.evaluateOnce(), 0u);

  const std::vector<HealthEvent> events = monitor.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[0].rule, "test.breach");
  EXPECT_EQ(events[0].severity, Severity::Critical);
  EXPECT_EQ(events[0].message, "flag is up");
  EXPECT_DOUBLE_EQ(events[0].value, 42.0);
  EXPECT_DOUBLE_EQ(events[0].threshold, 7.0);
  EXPECT_FALSE(events[0].cleared);
  EXPECT_GT(events[0].ticks, 0u);

  const HealthCounters hc = monitor.counters();
  EXPECT_EQ(hc.evaluations, 4u);
  EXPECT_EQ(hc.firings, 4u);
  EXPECT_EQ(hc.eventsEmitted, 1u);
  EXPECT_EQ(hc.suppressedFirings, 2u);
  EXPECT_EQ(hc.eventsCleared, 0u);
}

TEST(HealthMonitor, HysteresisClearsOnceThenRefires) {
  HealthMonitor monitor;
  std::atomic<bool> flag{true};
  monitor.addRule(flagRule("test.flap", flag, Severity::Warning,
                           /*triggerAfter=*/1, /*clearAfter=*/2));

  EXPECT_EQ(monitor.evaluateOnce(), 1u);  // active
  flag = false;
  EXPECT_EQ(monitor.evaluateOnce(), 0u) << "one quiet pass is not recovery";
  EXPECT_EQ(monitor.evaluateOnce(), 1u);  // cleared event
  EXPECT_EQ(monitor.evaluateOnce(), 0u) << "staying quiet emits nothing";

  std::vector<HealthEvent> events = monitor.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_TRUE(events[1].cleared);
  EXPECT_EQ(events[1].severity, Severity::Info) << "recoveries are info";
  EXPECT_EQ(events[1].message, "recovered");
  EXPECT_DOUBLE_EQ(events[1].value, 42.0) << "echoes the last firing";
  EXPECT_DOUBLE_EQ(events[1].threshold, 7.0);
  EXPECT_EQ(events[1].seq, 2u);

  // A genuine re-breach is a NEW event, not a suppressed one.
  flag = true;
  EXPECT_EQ(monitor.evaluateOnce(), 1u);
  events = monitor.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_FALSE(events[2].cleared);
  EXPECT_EQ(events[2].seq, 3u);
  const HealthCounters hc = monitor.counters();
  EXPECT_EQ(hc.eventsEmitted, 2u);
  EXPECT_EQ(hc.eventsCleared, 1u);
}

TEST(HealthMonitor, CallbackRunsOutsideMutexOncePerEvent) {
  HealthMonitor monitor;
  std::atomic<bool> flag{true};
  monitor.addRule(flagRule("test.cb", flag));
  std::vector<std::uint64_t> seen;
  std::size_t historyAtCallback = 0;
  monitor.onEvent([&](const HealthEvent& event) {
    seen.push_back(event.seq);
    // Reading the monitor from the callback would deadlock if the
    // monitor mutex were still held — the contract says it is not.
    historyAtCallback = monitor.events().size();
  });
  monitor.evaluateOnce();  // emit
  flag = false;
  monitor.evaluateOnce();  // clear (clearAfter = 1)
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], 1u);
  EXPECT_EQ(seen[1], 2u);
  EXPECT_EQ(historyAtCallback, 2u) << "event visible in history by callback";
}

TEST(HealthMonitor, HistoryIsBoundedOldestFirst) {
  HealthMonitor monitor(/*historyCapacity=*/4);
  std::atomic<bool> flag{false};
  monitor.addRule(flagRule("test.bound", flag));
  // Toggle every pass: each evaluation emits (event, cleared, event, ...).
  for (int i = 0; i < 10; ++i) {
    flag = (i % 2) == 0;
    EXPECT_EQ(monitor.evaluateOnce(), 1u);
  }
  const std::vector<HealthEvent> events = monitor.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().seq, 7u) << "oldest events dropped";
  EXPECT_EQ(events.back().seq, 10u);
  const HealthCounters hc = monitor.counters();
  EXPECT_EQ(hc.eventsEmitted + hc.eventsCleared, 10u);
}

TEST(HealthMonitor, ThrowingRuleIsCountedAndOthersStillRun) {
  HealthMonitor monitor;
  DetectorRule bad;
  bad.name = "test.bad";
  bad.evaluate = []() -> std::optional<Firing> {
    throw std::runtime_error("detector exploded");
  };
  monitor.addRule(bad);
  std::atomic<bool> flag{true};
  monitor.addRule(flagRule("test.good", flag));
  EXPECT_EQ(monitor.evaluateOnce(), 1u) << "good rule still evaluated";
  const HealthCounters hc = monitor.counters();
  EXPECT_EQ(hc.ruleErrors, 1u);
  EXPECT_EQ(hc.eventsEmitted, 1u);
  ASSERT_EQ(monitor.events().size(), 1u);
  EXPECT_EQ(monitor.events()[0].rule, "test.good");
}

TEST(HealthMonitor, RemoveRulesByPrefixUnhooksComponents) {
  HealthMonitor monitor;
  std::atomic<bool> flag{false};
  monitor.addRule(flagRule("serve.a", flag));
  monitor.addRule(flagRule("serve.b", flag));
  monitor.addRule(flagRule("fleet.c", flag));
  EXPECT_EQ(monitor.ruleCount(), 3u);
  EXPECT_EQ(monitor.removeRulesByPrefix("serve."), 2u);
  EXPECT_EQ(monitor.ruleCount(), 1u);
  EXPECT_EQ(monitor.removeRulesByPrefix("nomatch."), 0u);
}

TEST(HealthMonitor, BackgroundThreadEvaluatesAndStopsIdempotently) {
  HealthMonitor monitor;
  std::atomic<bool> flag{false};
  monitor.addRule(flagRule("test.bg", flag));
  EXPECT_FALSE(monitor.running());
  EXPECT_THROW(monitor.start(0.0), tp::Error);
  monitor.start(0.0005);
  EXPECT_TRUE(monitor.running());
  EXPECT_THROW(monitor.start(0.0005), tp::Error) << "already running";
  // Wait (bounded) for a few background passes.
  for (int i = 0; i < 2000 && monitor.counters().evaluations < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(monitor.counters().evaluations, 3u);
  monitor.stop();
  EXPECT_FALSE(monitor.running());
  monitor.stop();  // idempotent
  // Restart after stop is allowed.
  monitor.start(0.0005);
  EXPECT_TRUE(monitor.running());
  monitor.stop();
}

// The named TSan coverage behind the registerHealthRules audits in
// serve::PartitionService and fleet::Replica: rules fire and clear while
// the background thread, foreground evaluators, history/counter readers
// and an attached FlightRecorder all drain the monitor concurrently.
// Event seqs must stay strictly increasing, recoveries must stay Info,
// and the counters must reconcile with what the history shows.
TEST(HealthMonitor, BreachWhileDrainStaysConsistent) {
  TempDir dir("breach_drain");
  HealthMonitor monitor(/*historyCapacity=*/64);
  std::atomic<bool> flag{false};
  monitor.addRule(flagRule("test.storm", flag, Severity::Warning,
                           /*triggerAfter=*/2, /*clearAfter=*/2));

  Registry registry;
  registry.counter("test.drain_counter").add(3);
  FlightRecorderConfig rc;
  rc.dir = dir.str();
  rc.keepLast = 4;
  rc.metrics = &registry;
  rc.health = &monitor;
  FlightRecorder recorder(rc);
  recorder.attach();

  std::atomic<bool> done{false};
  monitor.start(0.0002);

  std::thread mutator([&] {
    for (int i = 0; i < 100; ++i) {
      flag.store((i % 2) == 0, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
    flag.store(false, std::memory_order_relaxed);
  });
  std::vector<std::thread> evaluators;
  for (int t = 0; t < 2; ++t) {
    evaluators.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        monitor.evaluateOnce();
      }
    });
  }
  std::thread drainer([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::vector<HealthEvent> events = monitor.events();
      std::uint64_t lastSeq = 0;
      for (const HealthEvent& event : events) {
        EXPECT_GT(event.seq, lastSeq) << "history seqs must increase";
        lastSeq = event.seq;
        if (event.cleared) {
          EXPECT_EQ(event.severity, Severity::Info);
        }
      }
      const HealthCounters hc = monitor.counters();
      EXPECT_LE(events.size(), hc.eventsEmitted + hc.eventsCleared);
      EXPECT_LE(hc.eventsEmitted, hc.firings);
    }
  });

  mutator.join();
  done.store(true, std::memory_order_release);
  for (std::thread& worker : evaluators) worker.join();
  drainer.join();
  monitor.stop();

  const HealthCounters hc = monitor.counters();
  EXPECT_GE(hc.evaluations, 100u);
  EXPECT_GE(hc.eventsEmitted, 1u) << "the storm must have breached";
  EXPECT_GE(recorder.bundleCount(), 1u) << "attach() must have dumped";
  EXPECT_LE(recorder.bundleCount(), 4u) << "keepLast must prune";
}

// ---------------------------------------------------------------------------
// FlightRecorder: bundles

TEST(FlightRecorder, DumpWritesSchemaBundleWithAllSections) {
  TempDir dir("dump_schema");
  Registry registry;
  registry.counter("test.requests").add(5);
  HealthMonitor monitor;
  std::atomic<bool> flag{true};
  monitor.addRule(flagRule("test.rule", flag, Severity::Critical));
  monitor.evaluateOnce();

  FlightRecorderConfig rc;
  rc.dir = dir.str();
  rc.metrics = &registry;
  rc.health = &monitor;
  FlightRecorder recorder(rc);
  EXPECT_EQ(recorder.highestSequence(), 0u);
  EXPECT_EQ(recorder.bundleCount(), 0u);

  const std::uint64_t seq = recorder.dump("unit test");
  EXPECT_EQ(seq, 1u);
  EXPECT_EQ(recorder.highestSequence(), 1u);
  EXPECT_EQ(recorder.bundleCount(), 1u);

  const std::string body = slurp(recorder.pathFor(seq));
  EXPECT_NE(body.find("\"schema\":\"tp-postmortem-v1\""), std::string::npos);
  EXPECT_NE(body.find("\"reason\":\"unit test\""), std::string::npos);
  EXPECT_NE(body.find("\"seq\":1"), std::string::npos);
  EXPECT_NE(body.find("\"kept_events\":"), std::string::npos);
  EXPECT_NE(body.find("\"trace\":"), std::string::npos);
  EXPECT_NE(body.find("\"test.requests\":5"), std::string::npos);
  EXPECT_NE(body.find("\"rule\":\"test.rule\""), std::string::npos);
  EXPECT_NE(body.find("\"severity\":\"critical\""), std::string::npos);
  EXPECT_NE(body.find("\"health_counters\":"), std::string::npos);
}

TEST(FlightRecorder, NullSourcesEmitEmptyButValidSections) {
  TempDir dir("dump_null");
  FlightRecorderConfig rc;
  rc.dir = dir.str();
  FlightRecorder recorder(rc);  // no metrics, no trace, no health
  recorder.dump("bare");
  const std::string body = slurp(recorder.pathFor(1));
  EXPECT_NE(body.find("\"kept_events\":0"), std::string::npos);
  EXPECT_NE(body.find("\"health_events\":[]"), std::string::npos);
  EXPECT_NE(body.find("\"schema\":\"tp-postmortem-v1\""), std::string::npos);
}

TEST(FlightRecorder, KeepLastPrunesOldestBundles) {
  TempDir dir("prune");
  FlightRecorderConfig rc;
  rc.dir = dir.str();
  rc.keepLast = 2;
  FlightRecorder recorder(rc);
  for (int i = 0; i < 4; ++i) recorder.dump("prune test");
  EXPECT_EQ(recorder.highestSequence(), 4u);
  EXPECT_EQ(recorder.bundleCount(), 2u);
  EXPECT_FALSE(std::filesystem::exists(recorder.pathFor(1)));
  EXPECT_FALSE(std::filesystem::exists(recorder.pathFor(2)));
  EXPECT_TRUE(std::filesystem::exists(recorder.pathFor(3)));
  EXPECT_TRUE(std::filesystem::exists(recorder.pathFor(4)));
}

TEST(FlightRecorder, SequencesContinueAcrossRecorderInstances) {
  TempDir dir("reopen");
  FlightRecorderConfig rc;
  rc.dir = dir.str();
  {
    FlightRecorder first(rc);
    EXPECT_EQ(first.dump("a"), 1u);
    EXPECT_EQ(first.dump("b"), 2u);
  }
  FlightRecorder second(rc);
  EXPECT_EQ(second.highestSequence(), 2u);
  EXPECT_EQ(second.dump("c"), 3u) << "black box never reuses a sequence";
}

TEST(FlightRecorder, AttachDumpsOncePerBreachAndIgnoresRecoveries) {
  TempDir dir("attach");
  HealthMonitor monitor;
  std::atomic<bool> flag{true};
  monitor.addRule(flagRule("test.attach", flag, Severity::Warning));
  FlightRecorderConfig rc;
  rc.dir = dir.str();
  rc.health = &monitor;
  rc.dumpAtOrAbove = Severity::Warning;
  FlightRecorder recorder(rc);
  recorder.attach();

  monitor.evaluateOnce();  // breach -> 1 bundle
  EXPECT_EQ(recorder.bundleCount(), 1u);
  monitor.evaluateOnce();  // suppressed -> no new bundle
  monitor.evaluateOnce();
  EXPECT_EQ(recorder.bundleCount(), 1u) << "dedup means one bundle";
  flag = false;
  monitor.evaluateOnce();  // cleared (info) -> recoveries never dump
  EXPECT_EQ(recorder.bundleCount(), 1u);
  flag = true;
  monitor.evaluateOnce();  // re-breach -> second bundle
  EXPECT_EQ(recorder.bundleCount(), 2u);
}

TEST(FlightRecorder, AttachRespectsSeverityFloor) {
  TempDir dir("floor");
  HealthMonitor monitor;
  std::atomic<bool> flag{true};
  monitor.addRule(flagRule("test.floor", flag, Severity::Info));
  FlightRecorderConfig rc;
  rc.dir = dir.str();
  rc.health = &monitor;
  rc.dumpAtOrAbove = Severity::Warning;
  FlightRecorder recorder(rc);
  recorder.attach();
  monitor.evaluateOnce();
  EXPECT_EQ(monitor.counters().eventsEmitted, 1u);
  EXPECT_EQ(recorder.bundleCount(), 0u) << "info events stay below the floor";
}

}  // namespace
