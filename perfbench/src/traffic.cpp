#include "traffic.hpp"

#include <algorithm>
#include <barrier>
#include <cmath>
#include <exception>
#include <numeric>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/striped.hpp"
#include "obs/clock.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using namespace tp;

namespace {

/// Seeds the popularity ranking. It is a constant on purpose: a seed that
/// also chose which launches are hot would move oracle_fraction from seed
/// to seed (0.89 to 0.97 measured), so the seed only orders the draws.
constexpr std::uint64_t kRankingSeed = 0x7A1F;

/// Relative tolerance of the makespan check.
constexpr double kMakespanTolerance = 1e-9;

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = {
      // Every timed request is an inline cache hit.
      {"warm_hits", 0, 1024, true, false, 0, 800000},
      // A 16-slot cache under uniform draws: most requests miss and take
      // the queue, features, predict, insert/evict and feedback dedup.
      {"miss_stream", 0, 16, false, false, 0, 80000},
      // One client, so the decision sequence is a function of the seed.
      {"adapt_churn", 1, 1024, true, true, 20000, 100000},
  };
  return all;
}

const WorkloadSpec* findWorkload(const std::string& name) {
  for (const auto& spec : workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::size_t clientCount(const WorkloadSpec& spec) {
  if (spec.clients != 0) return spec.clients;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : hw;
}

std::size_t requestsPerClient(const WorkloadSpec& spec, std::size_t seconds) {
  return std::max<std::size_t>(
      1, spec.requestsPerSecond * seconds / clientCount(spec));
}

AnswerKey makeAnswerKey(const Fixture& fx) {
  AnswerKey key;
  const std::size_t cpu = fx.space.cpuOnlyIndex();
  const std::size_t gpu = fx.space.singleDeviceIndex(1);
  for (const auto& launch : fx.launches) {
    const auto& times = launch.record.times;
    const double best = launch.record.bestTime();
    std::vector<double> oracle, overCpu, overGpu;
    for (const double t : times) {
      oracle.push_back(std::log(best / t));
      overCpu.push_back(std::log(times[cpu] / t));
      overGpu.push_back(std::log(times[gpu] / t));
    }
    key.expectedMakespan.push_back(times);
    key.logOracle.push_back(std::move(oracle));
    key.logCpu.push_back(std::move(overCpu));
    key.logGpu.push_back(std::move(overGpu));
    key.bestLabel.push_back(
        static_cast<std::size_t>(launch.record.bestLabel()));
  }
  return key;
}

namespace {

bool makespanMatches(const AnswerKey& key, std::size_t launch,
                     const serve::LaunchResponse& response) {
  const auto& expected = key.expectedMakespan[launch];
  if (response.label >= expected.size()) return false;
  const double want = expected[response.label];
  return std::abs(response.execution.makespan - want) <=
         kMakespanTolerance * want;
}

serve::LaunchRequest makeRequest(const Fixture& fx, const Launch& launch) {
  serve::LaunchRequest request;
  request.machine = fx.machines[launch.machine].name;
  request.task = fx.tasks[launch.task];
  return request;
}

}  // namespace

std::unique_ptr<Deployment> deploy(const Fixture& fx, const AnswerKey& key,
                                   const WorkloadSpec& spec) {
  auto dep = std::make_unique<Deployment>();
  // Production-like: metrics registry on, a p99 SLO target, feedback
  // recording on, the admission breaker off.
  serve::ServiceConfig config;
  config.cacheCapacity = spec.cacheCapacity;
  config.recordFeedback = true;
  config.retrainSpec = kModelSpec;
  config.refine = spec.refine;
  config.metrics = &dep->registry;
  config.slo.targetP99Seconds = 1e-3;
  dep->service = std::make_unique<serve::PartitionService>(config);
  for (std::size_t m = 0; m < fx.machines.size(); ++m) {
    dep->service->addMachine(fx.machines[m], fx.models[m]);
  }
  for (std::size_t l = 0; l < fx.launches.size(); ++l) {
    const auto response =
        dep->service->call(makeRequest(fx, fx.launches[l]));
    if (!makespanMatches(key, l, response)) ++dep->warmupMismatches;
  }
  return dep;
}

Draws makeDraws(const Fixture& fx, const WorkloadSpec& spec,
                std::uint64_t seed, std::size_t requestsPerClient) {
  const std::size_t n = fx.launches.size();
  TP_REQUIRE(n > 0 && n <= 256, "perfbench: " << n << " launches");
  std::vector<std::uint8_t> ranking(n);
  std::iota(ranking.begin(), ranking.end(), std::uint8_t{0});
  common::Rng(kRankingSeed).shuffle(ranking);
  std::vector<double> cdf(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / static_cast<double>(k + 1);
    cdf[k] = total;
  }

  Draws draws(clientCount(spec));
  for (std::size_t c = 0; c < draws.size(); ++c) {
    common::Rng rng(seed * 0x9E3779B97F4A7C15ull + c + 1);
    auto& out = draws[c];
    out.resize(requestsPerClient);
    for (auto& launch : out) {
      if (spec.zipf) {
        const auto it =
            std::upper_bound(cdf.begin(), cdf.end(), rng.uniform() * total);
        launch = ranking[std::min<std::size_t>(
            static_cast<std::size_t>(it - cdf.begin()), n - 1)];
      } else {
        launch = static_cast<std::uint8_t>(rng.below(n));
      }
    }
  }
  return draws;
}

std::uint32_t quantileNs(std::vector<std::uint32_t>& samples, double q) {
  if (samples.empty()) return 0;
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(q * static_cast<double>(samples.size()))));
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

void RunResult::absorb(const RunResult& o) {
  auto append = [](auto& to, const auto& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  attempted += o.attempted;
  succeeded += o.succeeded;
  failed += o.failed;
  shed += o.shed;
  mismatches += o.mismatches;
  labelChecks += o.labelChecks;
  labelFailures += o.labelFailures;
  counterError += o.counterError;
  wallSeconds += o.wallSeconds;
  samples += o.samples;
  logOracleSum += o.logOracleSum;
  logCpuSum += o.logCpuSum;
  logGpuSum += o.logGpuSum;
  oracleLabels += o.oracleLabels;
  hits += o.hits;
  explored += o.explored;
  refined += o.refined;
  append(retrainSeconds, o.retrainSeconds);
}

namespace {

struct SpanNames {
  std::uint32_t request, build, callHit, callMiss, callProbe, check;
};

SpanNames internSpanNames() {
  auto& rec = obs::traceRecorder();
  return {rec.internName("bench.request"),
          rec.internName("bench.request_build"),
          rec.internName("serve.call_hit"),
          rec.internName("serve.call_miss"),
          rec.internName("serve.call_probe"),
          rec.internName("bench.check")};
}

/// The last response a client saw for one launch.
struct LastServed {
  std::uint64_t version = 0;
  std::uint32_t label = 0;
  bool unrefined = false;
  bool valid = false;
};

/// One client's tallies, written on every request: cache-line aligned so
/// that the clients do not contend through the benchmark's own state.
struct alignas(common::kCacheLineBytes) ClientState {
  std::vector<std::uint32_t> latencyNs;
  std::vector<std::size_t> roundEnd;  ///< latencyNs.size() after each round
  std::uint64_t attempted = 0, succeeded = 0, failed = 0, shed = 0;
  std::uint64_t mismatches = 0, oracleLabels = 0;
  std::uint64_t hits = 0, explored = 0, refined = 0;
  double logOracle = 0.0, logCpu = 0.0, logGpu = 0.0;
  std::vector<LastServed> last;
  std::vector<double> retrainSeconds;
  std::string retrainError;
};

}  // namespace

RunResult runTraffic(Deployment& dep, const Fixture& fx, const AnswerKey& key,
                     const WorkloadSpec& spec, const Draws& draws,
                     bool traced) {
  serve::PartitionService& service = *dep.service;
  const std::size_t clients = draws.size();
  const std::size_t perClient = draws.front().size();
  const std::size_t rounds =
      std::max<std::size_t>(1, std::min(kRounds, perClient));
  const SpanNames names = internSpanNames();

  std::vector<ClientState> states(clients);
  for (auto& s : states) {
    s.last.resize(fx.launches.size());
    s.latencyNs.reserve(perClient);
  }
  // phaseTicks[k] is stamped when every client reached barrier k:
  // round r runs from phaseTicks[r] to phaseTicks[r + 1].
  std::vector<std::uint64_t> phaseTicks(rounds + 1, 0);
  std::size_t phase = 0;
  std::barrier sync(static_cast<std::ptrdiff_t>(clients), [&]() noexcept {
    phaseTicks[phase++] = obs::nowTicks();
  });

  RunResult result;
  result.before = service.stats();

  auto client = [&](std::size_t c) {
    ClientState& s = states[c];
    const auto& mine = draws[c];
    for (std::size_t r = 0; r < rounds; ++r) {
      sync.arrive_and_wait();
      const std::size_t end = (r + 1) * perClient / rounds;
      for (std::size_t i = r * perClient / rounds; i < end; ++i) {
        if (spec.retrainEvery != 0 && c == 0 && i != 0 &&
            i % spec.retrainEvery == 0) {
          const std::uint64_t r0 = obs::nowTicks();
          try {
            service.retrain();
          } catch (const std::exception& e) {
            s.retrainError = e.what();
          }
          s.retrainSeconds.push_back(obs::secondsBetween(r0, obs::nowTicks()));
        }
        const std::size_t l = mine[i];
        const Launch& launch = fx.launches[l];
        const std::uint64_t t0 = traced ? obs::nowTicks() : 0;
        serve::LaunchRequest request = makeRequest(fx, launch);
        ++s.attempted;
        const std::uint64_t t1 = obs::nowTicks();
        serve::LaunchResponse response;
        try {
          response = service.call(std::move(request));
        } catch (const std::exception&) {
          ++s.failed;
          continue;
        }
        const std::uint64_t t2 = obs::nowTicks();
        s.latencyNs.push_back(static_cast<std::uint32_t>(t2 - t1));
        if (response.shed) {
          ++s.shed;
          continue;
        }
        ++s.succeeded;
        if (!makespanMatches(key, l, response)) {
          ++s.mismatches;
          continue;
        }
        s.logOracle += key.logOracle[l][response.label];
        s.logCpu += key.logCpu[l][response.label];
        s.logGpu += key.logGpu[l][response.label];
        s.oracleLabels += response.label == key.bestLabel[l] ? 1 : 0;
        s.hits += response.cacheHit ? 1 : 0;
        s.explored += response.explored ? 1 : 0;
        s.refined += response.refined ? 1 : 0;
        s.last[l] = LastServed{response.modelVersion,
                               static_cast<std::uint32_t>(response.label),
                               !response.explored && !response.refined, true};
        if (traced) {
          const std::uint64_t t3 = obs::nowTicks();
          const std::uint64_t id = c * perClient + i + 1;
          auto& rec = obs::traceRecorder();
          const std::uint32_t call = response.explored   ? names.callProbe
                                     : response.cacheHit ? names.callHit
                                                         : names.callMiss;
          rec.record(names.build, t0, t1, id);
          rec.record(call, t1, t2, id);
          rec.record(names.check, t2, t3, id);
          rec.record(names.request, t0, t3, id);
        }
      }
      s.roundEnd.push_back(s.latencyNs.size());
    }
    sync.arrive_and_wait();
  };

  // Every client gets a fresh thread, so in a traced run each one has its
  // own trace ring and no workload's spans overwrite another's.
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) threads.emplace_back(client, c);
  for (auto& t : threads) t.join();

  result.after = service.stats();
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::size_t perRound =
        (r + 1) * perClient / rounds - r * perClient / rounds;
    result.roundReqPerSec.push_back(
        static_cast<double>(perRound * clients) /
        obs::secondsBetween(phaseTicks[r], phaseTicks[r + 1]));
    std::vector<std::uint32_t> round;
    for (const auto& s : states) {
      const std::size_t from = r == 0 ? 0 : s.roundEnd[r - 1];
      const auto begin = s.latencyNs.begin();
      round.insert(round.end(), begin + static_cast<std::ptrdiff_t>(from),
                   begin + static_cast<std::ptrdiff_t>(s.roundEnd[r]));
    }
    result.roundP50Ns.push_back(quantileNs(round, 0.50));
    result.roundP90Ns.push_back(quantileNs(round, 0.90));
  }
  result.beginTicks = phaseTicks.front();
  result.endTicks = phaseTicks.back();
  result.wallSeconds = obs::secondsBetween(result.beginTicks, result.endTicks);

  for (const auto& s : states) {
    result.attempted += s.attempted;
    result.succeeded += s.succeeded;
    result.failed += s.failed;
    result.shed += s.shed;
    result.mismatches += s.mismatches;
    result.oracleLabels += s.oracleLabels;
    result.hits += s.hits;
    result.explored += s.explored;
    result.refined += s.refined;
    result.logOracleSum += s.logOracle;
    result.logCpuSum += s.logCpu;
    result.logGpuSum += s.logGpu;
    result.latencyNs.insert(result.latencyNs.end(), s.latencyNs.begin(),
                            s.latencyNs.end());
    result.samples += s.latencyNs.size();
    result.retrainSeconds.insert(result.retrainSeconds.end(),
                                 s.retrainSeconds.begin(),
                                 s.retrainSeconds.end());
    if (!s.retrainError.empty()) {
      result.counterError += "retrain: " + s.retrainError + "; ";
    }
  }

  // Every admitted request is answered exactly once: the service's own
  // counters must reconcile with what the clients saw.
  const auto& b = result.before;
  const auto& a = result.after;
  std::ostringstream err;
  if (a.requestsSubmitted - b.requestsSubmitted != result.attempted) {
    err << "submitted " << a.requestsSubmitted - b.requestsSubmitted
        << " != attempted " << result.attempted << "; ";
  }
  if (a.requestsCompleted - b.requestsCompleted !=
      result.succeeded + result.shed) {
    err << "completed " << a.requestsCompleted - b.requestsCompleted
        << " != succeeded+shed " << result.succeeded + result.shed << "; ";
  }
  if (a.requestsFailed - b.requestsFailed != result.failed) {
    err << "service failed " << a.requestsFailed - b.requestsFailed
        << " != client failed " << result.failed << "; ";
  }
  if (a.requestsShed - b.requestsShed != result.shed) {
    err << "service shed " << a.requestsShed - b.requestsShed
        << " != client shed " << result.shed << "; ";
  }
  result.counterError += err.str();

  // Every launch last served without refinement, under the model now
  // deployed, must carry the label the reference predict path gives.
  const std::uint64_t version = service.modelVersion();
  for (std::size_t l = 0; l < fx.launches.size(); ++l) {
    const Launch& launch = fx.launches[l];
    std::size_t predicted = 0;
    bool havePrediction = false;
    for (const auto& s : states) {
      const LastServed& last = s.last[l];
      if (!last.valid || !last.unrefined || last.version != version) continue;
      if (!havePrediction) {
        predicted = service.predictLabel(fx.machines[launch.machine].name,
                                         fx.tasks[launch.task]);
        havePrediction = true;
      }
      ++result.labelChecks;
      if (last.label != predicted) ++result.labelFailures;
    }
  }
  return result;
}

}  // namespace perfbench
