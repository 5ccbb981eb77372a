#include "obs/health.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"

namespace tp::obs {

const char* severityName(Severity severity) noexcept {
  switch (severity) {
    case Severity::Info: return "info";
    case Severity::Warning: return "warning";
    case Severity::Critical: return "critical";
  }
  return "unknown";
}

Hysteresis::Hysteresis(std::size_t tripAfter, std::size_t clearAfter)
    : tripAfter_(tripAfter), clearAfter_(clearAfter) {
  TP_REQUIRE(tripAfter >= 1 && clearAfter >= 1,
             "Hysteresis: tripAfter/clearAfter must be >= 1, got "
                 << tripAfter << "/" << clearAfter);
}

Hysteresis::Edge Hysteresis::update(bool firing) noexcept {
  if (firing) {
    quietStreak_ = 0;
    if (active_ || ++firingStreak_ < tripAfter_) return Edge::None;
    active_ = true;
    return Edge::Opened;
  }
  firingStreak_ = 0;
  if (!active_ || ++quietStreak_ < clearAfter_) return Edge::None;
  active_ = false;
  quietStreak_ = 0;
  return Edge::Closed;
}

WindowedRatio::WindowedRatio(std::uint64_t minDenominator) noexcept
    : minDenominator_(std::max<std::uint64_t>(1, minDenominator)) {}

std::optional<double> WindowedRatio::update(std::uint64_t numerator,
                                            std::uint64_t denominator) noexcept {
  const std::uint64_t dNumerator = numerator - numerator_;
  lastSpan_ = denominator - denominator_;
  numerator_ = numerator;
  denominator_ = denominator;
  if (lastSpan_ < minDenominator_) return std::nullopt;
  return static_cast<double>(dNumerator) / static_cast<double>(lastSpan_);
}

HealthMonitor::HealthMonitor(std::size_t historyCapacity)
    : historyCapacity_(historyCapacity == 0 ? 1 : historyCapacity) {}

HealthMonitor::~HealthMonitor() { stop(); }

void HealthMonitor::addRule(DetectorRule rule) {
  TP_REQUIRE(!rule.name.empty(), "HealthMonitor: rule needs a name");
  TP_REQUIRE(rule.evaluate != nullptr,
             "HealthMonitor: rule '" << rule.name << "' has no evaluate fn");
  Hysteresis hysteresis(rule.triggerAfter, rule.clearAfter);
  common::MutexLock lock(mutex_);
  for (const RuleState& state : rules_) {
    TP_REQUIRE(state.rule.name != rule.name,
               "HealthMonitor: duplicate rule '" << rule.name << "'");
  }
  rules_.push_back(RuleState{std::move(rule), hysteresis, Firing{}});
}

std::size_t HealthMonitor::removeRulesByPrefix(const std::string& prefix) {
  common::MutexLock lock(mutex_);
  const std::size_t before = rules_.size();
  rules_.erase(std::remove_if(rules_.begin(), rules_.end(),
                              [&](const RuleState& state) {
                                return state.rule.name.compare(
                                           0, prefix.size(), prefix) == 0;
                              }),
               rules_.end());
  return before - rules_.size();
}

std::size_t HealthMonitor::ruleCount() const {
  common::MutexLock lock(mutex_);
  return rules_.size();
}

std::size_t HealthMonitor::evaluateOnce() {
  std::vector<HealthEvent> emitted;
  std::function<void(const HealthEvent&)> callback;
  {
    common::MutexLock lock(mutex_);
    ++counters_.evaluations;
    for (RuleState& state : rules_) {
      std::optional<Firing> firing;
      try {
        firing = state.rule.evaluate();
      } catch (const std::exception& e) {
        ++counters_.ruleErrors;
        TP_WARN("HealthMonitor: rule '" << state.rule.name
                                        << "' threw: " << e.what());
        continue;
      } catch (...) {
        ++counters_.ruleErrors;
        TP_WARN("HealthMonitor: rule '" << state.rule.name << "' threw");
        continue;
      }
      if (firing.has_value()) {
        ++counters_.firings;
        state.lastFiring = *firing;
        if (state.hysteresis.active()) ++counters_.suppressedFirings;
      }
      const Hysteresis::Edge edge = state.hysteresis.update(firing.has_value());
      if (edge == Hysteresis::Edge::None) continue;
      const bool cleared = edge == Hysteresis::Edge::Closed;
      HealthEvent event;
      event.seq = ++nextSeq_;
      event.ticks = nowTicks();
      event.severity = cleared ? Severity::Info : state.rule.severity;
      event.rule = state.rule.name;
      event.message = cleared ? "recovered" : state.lastFiring.message;
      event.value = state.lastFiring.value;
      event.threshold = state.lastFiring.threshold;
      event.cleared = cleared;
      ++(cleared ? counters_.eventsCleared : counters_.eventsEmitted);
      history_.push_back(event);
      emitted.push_back(std::move(event));
    }
    while (history_.size() > historyCapacity_) history_.pop_front();
    callback = callback_;
  }
  // Outside the mutex: the callback may read the monitor (the flight
  // recorder snapshots event history from here). A failing callback (a
  // bundle that cannot be written) must not take the evaluator down.
  if (callback) {
    for (const HealthEvent& event : emitted) {
      try {
        callback(event);
      } catch (const std::exception& e) {
        TP_WARN("HealthMonitor: event callback for '"
                << event.rule << "' threw: " << e.what());
        common::MutexLock lock(mutex_);
        ++counters_.callbackErrors;
      } catch (...) {
        TP_WARN("HealthMonitor: event callback for '" << event.rule
                                                      << "' threw");
        common::MutexLock lock(mutex_);
        ++counters_.callbackErrors;
      }
    }
  }
  return emitted.size();
}

void HealthMonitor::start(double periodSeconds) {
  TP_REQUIRE(periodSeconds > 0.0,
             "HealthMonitor: period must be positive, got " << periodSeconds);
  common::MutexLock lock(mutex_);
  TP_REQUIRE(!thread_.joinable(), "HealthMonitor: already started");
  stopRequested_ = false;
  thread_ = std::thread([this, periodSeconds] { runLoop(periodSeconds); });
}

void HealthMonitor::stop() {
  std::thread worker;
  {
    common::MutexLock lock(mutex_);
    if (!thread_.joinable()) return;
    stopRequested_ = true;
    stopCv_.notify_all();
    worker = std::move(thread_);
  }
  worker.join();
}

bool HealthMonitor::running() const {
  common::MutexLock lock(mutex_);
  return thread_.joinable();
}

void HealthMonitor::runLoop(double periodSeconds) {
  const auto period = std::chrono::duration<double>(periodSeconds);
  for (;;) {
    {
      common::MutexLock lock(mutex_);
      if (stopRequested_) return;
    }
    evaluateOnce();
    common::MutexLock lock(mutex_);
    while (!stopRequested_) {
      if (stopCv_.wait_for(mutex_, period) == std::cv_status::timeout) break;
    }
    if (stopRequested_) return;
  }
}

void HealthMonitor::onEvent(std::function<void(const HealthEvent&)> callback) {
  common::MutexLock lock(mutex_);
  callback_ = std::move(callback);
}

std::vector<HealthEvent> HealthMonitor::events() const {
  common::MutexLock lock(mutex_);
  return std::vector<HealthEvent>(history_.begin(), history_.end());
}

HealthCounters HealthMonitor::counters() const {
  common::MutexLock lock(mutex_);
  return counters_;
}

}  // namespace tp::obs
