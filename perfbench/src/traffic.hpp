#pragma once

// Workloads, deployment and the closed-loop clients.
//
// A workload fixes the service configuration and the traffic shape; the
// seed only orders the draws. Each client sends its next request when the
// previous call() returns, and each run is bounded by a request count per
// client (not by time), so retrain counts and decision sequences repeat
// exactly from run to run. The timed phase is split into rounds separated
// by a barrier, each with its own throughput and latency percentiles.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fixture.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  std::size_t clients = 0;  ///< 0 = one per hardware thread
  std::size_t cacheCapacity = 1024;
  bool zipf = true;  ///< Zipf(s=1) over a fixed ranking; else uniform
  bool refine = false;
  std::size_t retrainEvery = 0;  ///< client 0 calls retrain(); 0 = never
  /// Requests per second over all clients, sized on a 4-core x86-64 host
  /// so that one run takes about --seconds; the clients share them.
  std::size_t requestsPerSecond = 0;
};

const std::vector<WorkloadSpec>& workloads();
/// nullptr for an unknown name.
const WorkloadSpec* findWorkload(const std::string& name);
std::size_t clientCount(const WorkloadSpec& spec);
/// Each client's share of requestsPerSecond x seconds (at least 1), so a
/// run's length follows `seconds` whatever the client count.
std::size_t requestsPerClient(const WorkloadSpec& spec, std::size_t seconds);

/// What every response is checked against, derived from the fixture's
/// sweep (see fixture.hpp).
struct AnswerKey {
  std::vector<std::vector<double>> expectedMakespan;  ///< [launch][label]
  std::vector<std::vector<double>> logOracle;  ///< log(best / time[label])
  std::vector<std::vector<double>> logCpu;     ///< log(cpu-only / time)
  std::vector<std::vector<double>> logGpu;     ///< log(single-GPU / time)
  std::vector<std::size_t> bestLabel;
};
AnswerKey makeAnswerKey(const Fixture& fx);

/// A configured service that has answered every launch once.
struct Deployment {
  tp::obs::Registry registry;  ///< declared first: outlives the service
  std::unique_ptr<tp::serve::PartitionService> service;
  std::uint64_t warmupMismatches = 0;
};
std::unique_ptr<Deployment> deploy(const Fixture& fx, const AnswerKey& key,
                                   const WorkloadSpec& spec);

/// Per-client launch indices: [client][request].
using Draws = std::vector<std::vector<std::uint8_t>>;
Draws makeDraws(const Fixture& fx, const WorkloadSpec& spec,
                std::uint64_t seed, std::size_t requestsPerClient);

/// Nearest-rank quantile of `samples` (reorders them); 0 when empty.
std::uint32_t quantileNs(std::vector<std::uint32_t>& samples, double q);

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;  ///< call() threw
  std::uint64_t shed = 0;
  std::uint64_t mismatches = 0;  ///< makespan != sweep's times[label]
  std::uint64_t labelChecks = 0;
  std::uint64_t labelFailures = 0;  ///< last unrefined label != predictLabel
  std::string counterError;  ///< empty when service counters reconcile

  std::vector<double> roundReqPerSec;
  std::vector<double> roundP50Ns;  ///< call() latency quantiles per round
  std::vector<double> roundP90Ns;
  double wallSeconds = 0.0;
  std::uint64_t beginTicks = 0;  ///< obs::nowTicks() at the first round
  std::uint64_t endTicks = 0;    ///< ... and when the last client finished
  std::vector<std::uint32_t> latencyNs;  ///< every call() time (not absorbed)
  std::uint64_t samples = 0;  ///< call() times measured, absorbed runs too
  double logOracleSum = 0.0;
  double logCpuSum = 0.0;
  double logGpuSum = 0.0;
  std::uint64_t oracleLabels = 0;  ///< served label == best label
  std::uint64_t hits = 0;
  std::uint64_t explored = 0;
  std::uint64_t refined = 0;
  std::vector<double> retrainSeconds;
  tp::serve::ServiceStats before;
  tp::serve::ServiceStats after;

  bool correct() const {
    return mismatches == 0 && labelFailures == 0 && failed == 0 &&
           shed == 0 && counterError.empty();
  }
  /// Add another run's counts (rounds, service stats and latencyNs stay).
  void absorb(const RunResult& other);
};

/// Rounds per runTraffic() call.
inline constexpr std::size_t kRounds = 5;

/// Drive `dep` with one client thread per entry of `draws`. With `traced`
/// set, record bench.* spans into tp::obs::traceRecorder() (which must be
/// enabled); the span arg is the request id.
RunResult runTraffic(Deployment& dep, const Fixture& fx, const AnswerKey& key,
                     const WorkloadSpec& spec, const Draws& draws,
                     bool traced);

}  // namespace perfbench
