#pragma once

// The traced run: per-layer numbers for the metric-to-layer map in
// perfbench/README.md.
//
// Spans are recorded from the benchmark's own files, around the calls it
// makes into each module's public functions, into tp::obs::traceRecorder()
// and written as Chrome JSON when the run ends. A request's spans share its
// id (the span arg). Stage costs are measured in isolation, on private
// instances of each layer over the served launch mix, so that the call time
// they leave unexplained (queue hand-off, admission, response build) is a
// number.

#include <cstdint>
#include <string>
#include <vector>

#include "fixture.hpp"
#include "traffic.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct TracedOptions {
  std::uint64_t seed = 1;
  std::size_t seconds = 10;
  std::string tracePath;  ///< Chrome JSON output; empty = not written
  std::size_t requests = 0;  ///< per client in every pass; 0 = default
};

/// Requests per client of a traced pass: the named workload runs at half
/// its untraced size, the others only long enough for stable span medians,
/// and a retraining workload always long enough to call retrain() a few
/// times.
std::size_t tracedRequests(const WorkloadSpec& spec, bool named,
                           const TracedOptions& options);

/// Run every workload traced (the named one at half its untraced size,
/// the others briefly), the named one once more untraced for the tracing
/// overhead, and the isolated stages. `correct` is cleared when any
/// traced or untraced pass fails its checks.
std::vector<Metric> tracedRun(const Fixture& fx, const AnswerKey& key,
                              const WorkloadSpec& named,
                              const TracedOptions& options, bool& correct,
                              std::uint64_t& attempted, std::uint64_t& failed);

}  // namespace perfbench
