#pragma once

// tp::obs health monitor: registered detector rules evaluated against
// live telemetry, emitting structured HealthEvents with hysteresis and
// dedup — a sustained breach is ONE event, not a log flood.
//
// A DetectorRule is a named closure returning std::nullopt (quiet) or a
// Firing{value, threshold, message}. The monitor evaluates every rule
// serially (manually via evaluateOnce(), or from a background thread
// via start(period)) and debounces each rule with an obs::Hysteresis:
//
//     quiet --triggerAfter consecutive firings--> active  (emit event)
//     active --stays firing--> active                     (suppressed)
//     active --clearAfter consecutive quiets--> quiet     (emit cleared)
//
// so a breach produces exactly one event until it genuinely recovers,
// and a recovery produces exactly one cleared event (severity Info).
// Rate rules judge counter deltas between evaluations through an
// obs::WindowedRatio. serve::PartitionService's admission breaker runs
// on the same two primitives.
//
// Threading contract: rule closures run on the evaluating thread under
// the monitor mutex, one at a time — they may keep mutable state (delta
// counters between evaluations) without their own locking, must be
// fast, must only touch thread-safe surfaces (striped counters, SLO
// reports, cache counter snapshots), and must never call back into the
// monitor. The onEvent callback runs on the same thread AFTER the
// mutex is released, so it may read the monitor (the FlightRecorder
// dumps event history from inside it). A throwing rule is counted
// (ruleErrors) and skipped, never fatal. Components registering rules
// must outlive the monitor's last evaluation: stop() the monitor (or
// removeRulesByPrefix()) before tearing the component down.

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/annotations.hpp"
#include "obs/clock.hpp"

namespace tp::obs {

/// Trip/clear debounce: the one state machine behind every detector
/// rule and the admission breaker.
///
///     closed --tripAfter consecutive firing updates--> active  (Opened)
///     active --clearAfter consecutive quiet updates--> closed  (Closed)
///
/// A quiet update resets the firing streak and a firing update resets
/// the quiet streak, so alternating evaluations never change state. Not
/// thread-safe: one owner drives update().
class Hysteresis {
public:
  enum class Edge { None, Opened, Closed };

  /// Both counts must be >= 1; throws tp::Error otherwise.
  Hysteresis(std::size_t tripAfter, std::size_t clearAfter);

  /// Feed one evaluation; returns the transition it caused, if any.
  Edge update(bool firing) noexcept;
  bool active() const noexcept { return active_; }

private:
  std::size_t tripAfter_;
  std::size_t clearAfter_;
  std::size_t firingStreak_ = 0;  ///< consecutive firings while closed
  std::size_t quietStreak_ = 0;   ///< consecutive quiets while active
  bool active_ = false;
};

/// The ratio of two monotonic counters' growth between consecutive
/// update() calls ("evictions per lookup since the last evaluation").
/// Every call advances the window, judged or not. Not thread-safe: one
/// owner drives update().
class WindowedRatio {
public:
  /// Windows whose denominator grew by less than minDenominator (at
  /// least 1) are not judged.
  explicit WindowedRatio(std::uint64_t minDenominator) noexcept;

  /// Advance to the counters' current totals; the numerator's growth
  /// over the denominator's since the previous call, or std::nullopt
  /// when the denominator grew too little.
  std::optional<double> update(std::uint64_t numerator,
                               std::uint64_t denominator) noexcept;
  /// Denominator growth over the most recent update()'s window.
  std::uint64_t lastSpan() const noexcept { return lastSpan_; }

private:
  std::uint64_t minDenominator_;
  std::uint64_t numerator_ = 0;
  std::uint64_t denominator_ = 0;
  std::uint64_t lastSpan_ = 0;
};

enum class Severity { Info = 0, Warning = 1, Critical = 2 };

const char* severityName(Severity severity) noexcept;

/// What a rule reports when its condition holds.
struct Firing {
  double value = 0.0;      ///< the observed quantity
  double threshold = 0.0;  ///< the configured bound it crossed
  std::string message;     ///< human-readable description
};

struct DetectorRule {
  /// Namespaced like metrics ("serve.latency_slo", "replica-0.gossip_stall").
  std::string name;
  Severity severity = Severity::Warning;
  /// Consecutive firing evaluations before the event is emitted
  /// (debounce); >= 1.
  std::size_t triggerAfter = 1;
  /// Consecutive quiet evaluations before the cleared event; >= 1.
  std::size_t clearAfter = 2;
  std::function<std::optional<Firing>()> evaluate;
};

/// One emitted judgment. cleared == true marks a recovery event (its
/// value/threshold repeat the last firing's).
struct HealthEvent {
  std::uint64_t seq = 0;    ///< monotonic per monitor, from 1
  std::uint64_t ticks = 0;  ///< nowTicks() at emission
  Severity severity = Severity::Warning;
  std::string rule;
  std::string message;
  double value = 0.0;
  double threshold = 0.0;
  bool cleared = false;
};

struct HealthCounters {
  std::uint64_t evaluations = 0;       ///< evaluateOnce() passes
  std::uint64_t firings = 0;           ///< rule evaluations that fired
  std::uint64_t eventsEmitted = 0;     ///< non-cleared events
  std::uint64_t eventsCleared = 0;
  std::uint64_t suppressedFirings = 0; ///< firings deduped into an active event
  std::uint64_t ruleErrors = 0;        ///< rule closures that threw
};

class HealthMonitor {
public:
  explicit HealthMonitor(std::size_t historyCapacity = 256);
  ~HealthMonitor();  ///< stop()s the background thread

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  void addRule(DetectorRule rule) TP_EXCLUDES(mutex_);
  /// Drop every rule whose name starts with `prefix` (a component
  /// unhooking before destruction). Returns the number removed.
  std::size_t removeRulesByPrefix(const std::string& prefix)
      TP_EXCLUDES(mutex_);
  std::size_t ruleCount() const TP_EXCLUDES(mutex_);

  /// Run every rule once; returns how many events (incl. cleared) this
  /// pass emitted. Safe concurrently with the background thread and
  /// with events()/counters() readers.
  std::size_t evaluateOnce() TP_EXCLUDES(mutex_);

  /// Start/stop a background thread evaluating every periodSeconds.
  /// Idempotent stop; start throws if already running.
  void start(double periodSeconds) TP_EXCLUDES(mutex_);
  void stop() TP_EXCLUDES(mutex_);
  bool running() const TP_EXCLUDES(mutex_);

  /// Invoked once per emitted event, outside the monitor mutex, on the
  /// evaluating thread. Replaces any previous callback.
  void onEvent(std::function<void(const HealthEvent&)> callback)
      TP_EXCLUDES(mutex_);

  /// Bounded event history, oldest first.
  std::vector<HealthEvent> events() const TP_EXCLUDES(mutex_);
  HealthCounters counters() const TP_EXCLUDES(mutex_);

private:
  struct RuleState {
    DetectorRule rule;
    Hysteresis hysteresis;
    Firing lastFiring;  ///< echoed into the cleared event
  };

  void runLoop(double periodSeconds);

  mutable common::Mutex mutex_;
  common::CondVar stopCv_;
  std::vector<RuleState> rules_ TP_GUARDED_BY(mutex_);
  std::deque<HealthEvent> history_ TP_GUARDED_BY(mutex_);
  std::function<void(const HealthEvent&)> callback_ TP_GUARDED_BY(mutex_);
  HealthCounters counters_ TP_GUARDED_BY(mutex_);
  std::uint64_t nextSeq_ TP_GUARDED_BY(mutex_) = 0;
  std::size_t historyCapacity_;
  bool stopRequested_ TP_GUARDED_BY(mutex_) = false;
  std::thread thread_ TP_GUARDED_BY(mutex_);
};

}  // namespace tp::obs
