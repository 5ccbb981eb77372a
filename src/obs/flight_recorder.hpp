#pragma once

// tp::obs flight recorder: the black box. On a health breach (or on
// demand) it freezes the process's telemetry into one atomic postmortem
// bundle — `postmortem-%08d.json`, one file of a common::NumberedFiles
// directory (written tmp+rename, pruned to the newest K by sequence),
// the same store fleet::SnapshotStore keeps its snapshots in — so the
// evidence of what went wrong survives the process that produced it.
//
// Bundle anatomy (schema "tp-postmortem-v1", validated by
// scripts/validate_postmortem.py):
//
//   {
//     "schema": "tp-postmortem-v1",
//     "seq": 3, "reason": "health: serve.latency_slo", "ticks": ...,
//     "kept_events": N, "dropped_events": M,   // trace ring accounting
//     "trace": { Chrome trace-event object },  // drained rings
//     "metrics": { Registry::exportJson },     // incl. recent-log tap
//     "health_events": [ HealthEvent... ],     // bounded history
//     "health_counters": { ... }               // incl. callback_errors
//   }
//
// kept/dropped and the embedded trace come from ONE TraceRecorder
// snapshot, so `kept_events == len(trace.traceEvents)` and
// `dropped_events == trace.otherData.dropped_events` hold exactly —
// the validator asserts the accounting carried through. Sections whose
// source is not configured are emitted empty-but-valid, never omitted.
//
// dump() is safe concurrently with traffic: it renders from thread-safe
// snapshot surfaces, and NumberedFiles serializes the sequence
// allocation and the filesystem window. attach() wires dump() as the monitor's
// onEvent callback: every non-cleared event at or above dumpAtOrAbove
// severity writes one bundle — the monitor's dedup/hysteresis already
// guarantees one event (hence one bundle) per sustained breach.

#include <cstdint>
#include <string>

#include "common/numbered_files.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tp::obs {

struct FlightRecorderConfig {
  std::string dir;          ///< bundle directory, created on first dump
  std::size_t keepLast = 8; ///< prune older bundles; 0 keeps every one
  /// Sources; any may be nullptr (its section is emitted empty).
  Registry* metrics = nullptr;
  TraceRecorder* trace = nullptr;
  HealthMonitor* health = nullptr;
  /// attach(): minimum severity of a non-cleared event that triggers an
  /// automatic dump.
  Severity dumpAtOrAbove = Severity::Warning;
};

class FlightRecorder {
public:
  explicit FlightRecorder(FlightRecorderConfig config);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Write one bundle; returns its sequence number. Sequences continue
  /// past bundles already in the directory (tmp+rename, then prune).
  /// Throws tp::IoError when the bundle cannot be written.
  std::uint64_t dump(const std::string& reason);

  /// Register as config.health's event callback (replaces any previous
  /// one): dump on every non-cleared event at or above dumpAtOrAbove.
  /// Requires config.health. The recorder must outlive the monitor's
  /// last evaluation.
  void attach();

  std::string pathFor(std::uint64_t seq) const { return files_.path(seq); }
  /// Highest bundle sequence in dir (0 = none).
  std::uint64_t highestSequence() const { return files_.highest(); }
  /// Bundles currently on disk.
  std::size_t bundleCount() const { return files_.count(); }
  const std::string& dir() const noexcept { return config_.dir; }

private:
  FlightRecorderConfig config_;
  common::NumberedFiles files_;
};

}  // namespace tp::obs
