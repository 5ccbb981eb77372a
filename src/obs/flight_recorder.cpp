#include "obs/flight_recorder.hpp"

#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace tp::obs {

namespace {

constexpr const char* kSchema = "tp-postmortem-v1";
constexpr const char* kPrefix = "postmortem-";
constexpr const char* kSuffix = ".json";

void appendEvent(std::ostringstream& os, const HealthEvent& event) {
  os << "{\"seq\":" << event.seq << ",\"ticks\":" << event.ticks
     << ",\"severity\":\"" << severityName(event.severity) << "\",\"rule\":\""
     << escapeJson(event.rule) << "\",\"message\":\""
     << escapeJson(event.message) << "\",\"value\":";
  appendDouble(os, event.value);
  os << ",\"threshold\":";
  appendDouble(os, event.threshold);
  os << ",\"cleared\":" << (event.cleared ? "true" : "false") << "}";
}

}  // namespace

FlightRecorder::FlightRecorder(FlightRecorderConfig config)
    : config_(std::move(config)),
      files_(config_.dir, kPrefix, kSuffix, config_.keepLast) {}

std::uint64_t FlightRecorder::dump(const std::string& reason) {
  // Snapshot and render the sources BEFORE publish() takes the store's
  // mutex: none of these reads depend on it, and the trace drain can
  // spin against recording threads. One snapshot feeds both the
  // embedded trace and the kept/dropped accounting, so they agree.
  TraceRecorder::Snapshot traceSnap;
  if (config_.trace != nullptr) traceSnap = config_.trace->snapshot();
  std::string metricsJson =
      config_.metrics != nullptr
          ? config_.metrics->exportJson()
          : std::string(
                "{\"counters\":{},\"gauges\":{},\"histograms\":{},"
                "\"summaries\":{},\"recent_log\":[]}");
  std::vector<HealthEvent> events;
  HealthCounters health;
  if (config_.health != nullptr) {
    events = config_.health->events();
    health = config_.health->counters();
  }

  std::ostringstream os;
  os << "{\"schema\":\"" << kSchema << "\"";
  os << ",\"reason\":\"" << escapeJson(reason) << "\"";
  os << ",\"ticks\":" << nowTicks();
  os << ",\"kept_events\":" << traceSnap.totalEvents;
  os << ",\"dropped_events\":" << traceSnap.totalDropped;
  os << ",\"health_events\":[";
  bool first = true;
  for (const HealthEvent& event : events) {
    if (!first) os << ",";
    first = false;
    appendEvent(os, event);
  }
  os << "],\"health_counters\":{\"evaluations\":" << health.evaluations
     << ",\"firings\":" << health.firings
     << ",\"events_emitted\":" << health.eventsEmitted
     << ",\"events_cleared\":" << health.eventsCleared
     << ",\"suppressed_firings\":" << health.suppressedFirings
     << ",\"rule_errors\":" << health.ruleErrors
     << ",\"callback_errors\":" << health.callbackErrors << "}";
  os << ",\"metrics\":" << metricsJson;
  os << ",\"trace\":";
  TraceRecorder::writeChromeTrace(os, traceSnap);
  const std::string body = os.str();

  // The bundle ends with its own sequence, which publish() allocates.
  return files_.publish([&body](std::ostream& out, std::uint64_t seq) {
    out << body << ",\"seq\":" << seq << "}\n";
  });
}

void FlightRecorder::attach() {
  TP_REQUIRE(config_.health != nullptr,
             "FlightRecorder: attach() needs a HealthMonitor source");
  const Severity bar = config_.dumpAtOrAbove;
  config_.health->onEvent([this, bar](const HealthEvent& event) {
    if (event.cleared) return;
    if (static_cast<int>(event.severity) < static_cast<int>(bar)) return;
    dump("health: " + event.rule);
  });
}

}  // namespace tp::obs
