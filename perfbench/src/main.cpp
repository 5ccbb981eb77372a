// perfbench: end-to-end and per-layer benchmark of serve::PartitionService.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--git-sha SHA] [--trace-out PATH] [--requests N]
//                  [--setup-only] [--inject-wrong-expectation]
//
// With --trace 0 it sets the service up once (setup_s runs from process
// start to the end of the warm-up, just before the first timed request),
// then runs kTrials trials, each a deployed service driven by the
// workload's closed-loop clients through call() on its share of the
// requests. It checks every response and prints the end-to-end metrics.
// With --setup-only it stops after the set-up and prints only setup_s;
// run.py runs it beside the full run to take a median of cold set-ups.
// With --trace 1 it runs the traced pass of layers.hpp and prints the
// per-layer metrics. The last line of stdout is one JSON object; the exit
// code is 0 only when every check passed. --requests overrides the request
// count per client (tests), and --inject-wrong-expectation corrupts one
// expected makespan so the correctness gate must trip. See
// perfbench/README.md.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "common/stats.hpp"
#include "fixture.hpp"
#include "layers.hpp"
#include "obs/clock.hpp"
#include "traffic.hpp"

using namespace perfbench;
using namespace tp;

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::size_t seconds = 10;
  bool trace = false;
  std::string gitSha = "unknown";
  std::string traceOut;
  std::size_t requests = 0;  ///< per client; 0 = requestsPerClient()
  bool setupOnly = false;
  bool injectWrongExpectation = false;
};

/// Timed trials per end-to-end run.
constexpr std::size_t kTrials = 10;

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--git-sha SHA] [--trace-out PATH] "
               "[--requests N] [--setup-only] [--inject-wrong-expectation]\n",
               error.c_str());
  std::exit(2);
}

std::uint64_t parseUint(const std::string& flag, const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') usage("bad value for " + flag);
  return v;
}

Options parseArgs(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--inject-wrong-expectation") {
      opt.injectWrongExpectation = true;
      continue;
    }
    if (arg == "--setup-only") {
      opt.setupOnly = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const char* value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = parseUint(arg, value);
    } else if (arg == "--seconds") {
      opt.seconds = parseUint(arg, value);
    } else if (arg == "--trace") {
      opt.trace = parseUint(arg, value) != 0;
    } else if (arg == "--git-sha") {
      opt.gitSha = value;
    } else if (arg == "--trace-out") {
      opt.traceOut = value;
    } else if (arg == "--requests") {
      opt.requests = parseUint(arg, value);
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (findWorkload(opt.workload) == nullptr) {
    usage("unknown workload '" + opt.workload + "'");
  }
  if (opt.seconds == 0) usage("--seconds must be > 0");
  return opt;
}

double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Every expected makespan of launch 0 off by 1e-6: the gate must trip.
void corrupt(AnswerKey& key) {
  for (double& t : key.expectedMakespan[0]) t *= 1.0 + 1e-6;
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
       << "\": {\"value\": " << jsonNumber(metrics[i].value)
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
}

void printHeader(const Options& opt, const WorkloadSpec& spec,
                 std::size_t perClient, bool trials) {
  std::printf("# perfbench workload=%s seed=%llu trace=%d\n",
              spec.name.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0);
  std::printf("# git=%s nproc=%u compiler=\"%s\" build=%s\n",
              opt.gitSha.c_str(), std::thread::hardware_concurrency(),
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
  std::printf("# clients=%zu requests_per_client=%zu", clientCount(spec),
              perClient);
  if (trials) std::printf(" trials=%zu", kTrials);
  std::printf("\n");
}

int runEndToEnd(const Options& opt, const WorkloadSpec& spec,
                std::uint64_t processStart) {
  const std::size_t perClient = opt.requests != 0
                                    ? opt.requests
                                    : requestsPerClient(spec, opt.seconds);
  printHeader(opt, spec, perClient, !opt.setupOnly);

  // The set-up as a deployment does it: suite instances, sweep, training,
  // service construction and the warm-up pass, timed from process start.
  const Fixture fx = buildFixture();
  AnswerKey key = makeAnswerKey(fx);
  if (opt.injectWrongExpectation) corrupt(key);
  auto first = deploy(fx, key, spec);
  const double setupSeconds =
      obs::secondsBetween(processStart, obs::nowTicks());
  std::uint64_t warmupMismatches = first->warmupMismatches;
  if (opt.setupOnly) {
    const bool correct = warmupMismatches == 0;
    printResult(correct, fx.launches.size(), 0,
                {{"setup_s", setupSeconds, "s"}});
    return correct ? 0 : 1;
  }

  // kTrials timed trials, each on a freshly deployed service (the first on
  // the set-up's) with fresh client threads and its own share of the
  // requests. A trial's throughput and latency sit at one of two or three
  // levels that hold for the whole trial (where the scheduler puts the
  // client and lane threads, how the service's shared state lands in
  // memory). The median of a trial's rounds drops bursts of outside
  // interference; the mean over trials then averages the placement draw,
  // which a median over a two-level mix would not.
  const std::size_t perTrial = std::max<std::size_t>(1, perClient / kTrials);
  RunResult r;
  std::vector<double> trialRps, trialP50Ns, trialP90Ns;
  for (std::size_t t = 0; t < kTrials; ++t) {
    auto dep = t == 0 ? std::move(first) : deploy(fx, key, spec);
    if (t != 0) warmupMismatches += dep->warmupMismatches;
    const Draws draws = makeDraws(fx, spec, (opt.seed << 8) | t, perTrial);
    const RunResult trial = runTraffic(*dep, fx, key, spec, draws, false);
    trialRps.push_back(common::median(trial.roundReqPerSec));
    trialP50Ns.push_back(common::median(trial.roundP50Ns));
    trialP90Ns.push_back(common::median(trial.roundP90Ns));
    r.absorb(trial);
  }
  const bool correct = r.correct() && warmupMismatches == 0;

  const std::uint64_t checked = r.succeeded - r.mismatches;
  auto geomean = [&](double logSum) {
    return checked == 0 ? 0.0 : std::exp(logSum / static_cast<double>(checked));
  };
  std::printf("# trials=%zu rounds_per_trial=%zu latency_samples=%llu "
              "(~%llu per round percentile)\n",
              kTrials, kRounds, static_cast<unsigned long long>(r.samples),
              static_cast<unsigned long long>(r.samples / (kTrials * kRounds)));
  std::printf("# attempted=%llu succeeded=%llu failed=%llu shed=%llu "
              "mismatches=%llu warmup_mismatches=%llu label_checks=%llu "
              "label_failures=%llu retrains=%zu\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.succeeded),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.shed),
              static_cast<unsigned long long>(r.mismatches),
              static_cast<unsigned long long>(warmupMismatches),
              static_cast<unsigned long long>(r.labelChecks),
              static_cast<unsigned long long>(r.labelFailures),
              r.retrainSeconds.size());
  std::printf("# hits=%llu explored=%llu refined=%llu wall_s=%.3f\n",
              static_cast<unsigned long long>(r.hits),
              static_cast<unsigned long long>(r.explored),
              static_cast<unsigned long long>(r.refined), r.wallSeconds);
  auto printTrials = [](const char* name, const std::vector<double>& xs,
                        double scale) {
    std::printf("# trial_%s=", name);
    for (const double x : xs) std::printf(" %.3f", x * scale);
    std::printf("\n");
  };
  printTrials("req_per_s", trialRps, 1.0);
  printTrials("p50_us", trialP50Ns, 1e-3);
  printTrials("p90_us", trialP90Ns, 1e-3);
  if (!r.counterError.empty()) {
    std::printf("# counter mismatch: %s\n", r.counterError.c_str());
  }

  printResult(correct, r.attempted, r.failed + r.shed,
              {
                  {"setup_s", setupSeconds, "s"},
                  {"req_per_s", common::mean(trialRps), "1/s"},
                  {"latency_p50_us", common::mean(trialP50Ns) / 1e3, "us"},
                  {"latency_p90_us", common::mean(trialP90Ns) / 1e3, "us"},
                  {"oracle_fraction", geomean(r.logOracleSum), "ratio"},
                  {"speedup_vs_cpu", geomean(r.logCpuSum), "x"},
                  {"speedup_vs_gpu", geomean(r.logGpuSum), "x"},
                  {"peak_rss_mb", peakRssMb(), "MB"},
              });
  return correct ? 0 : 1;
}

int runTraced(const Options& opt, const WorkloadSpec& spec) {
  TracedOptions traced;
  traced.seed = opt.seed;
  traced.seconds = opt.seconds;
  traced.tracePath = opt.traceOut;
  traced.requests = opt.requests;
  printHeader(opt, spec, tracedRequests(spec, true, traced), false);
  const Fixture fx = buildFixture();
  AnswerKey key = makeAnswerKey(fx);
  if (opt.injectWrongExpectation) corrupt(key);
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto metrics =
      tracedRun(fx, key, spec, traced, correct, attempted, failed);
  for (const auto& m : metrics) {
    std::printf("# %-30s %14.3f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  printResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t processStart = obs::nowTicks();
  common::setLogLevel(common::LogLevel::Warn);
  const Options opt = parseArgs(argc, argv);
  const WorkloadSpec& spec = *findWorkload(opt.workload);
  try {
    return opt.trace ? runTraced(opt, spec)
                     : runEndToEnd(opt, spec, processStart);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
