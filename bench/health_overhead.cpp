// Health-layer overhead: what the PR 9 SLO/health stack costs the
// serving hot path on top of the PR 7 obs stack, and what its probes
// cost in nanoseconds.
//
//   - Macro phases replay the serve_throughput warm workload through two
//     configurations, both with the obs baseline attached (metrics
//     registry + idle tracing, exactly the BENCH_obs gate
//     configuration): first without any health machinery, then with
//     per-machine SloTrackers, the full detector-rule set evaluating on
//     a background HealthMonitor, and an attached FlightRecorder. The
//     SLO targets are generous, so the run measures steady-state cost,
//     not breach handling. The ISSUE gate compares the health-on warm
//     throughput against BENCH_obs.json's requests_per_sec_warm with a
//     5% bar (bench.sh / CI).
//   - Micro phases time single probes: SloTracker::record on the live
//     clock, a full SloTracker::report merge, and one HealthMonitor
//     evaluation pass over the service's registered rules.
//
// Usage: health_overhead [--requests N] [--threads T] [--programs P]
//                        [--reps R] [--json PATH] [--baseline-rps RPS]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "harness_util.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "runtime/evaluation.hpp"
#include "serve/service.hpp"
#include "sim/machine.hpp"

using namespace tp;

namespace {

struct Options {
  // Mirrors obs_overhead: the 5% gate needs the window well above
  // scheduler jitter, and best-of-N absorbs placement luck.
  std::size_t requests = 40000;
  std::size_t reps = 3;
  std::size_t threads = 8;
  std::size_t programs = 8;
  std::string jsonPath;
  /// Externally measured no-health warm rps (e.g. BENCH_obs.json's
  /// requests_per_sec_warm); overrides the in-process baseline for the
  /// overhead percentage.
  double baselineRps = 0.0;
};

Options parseArgs(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--requests") {
      opt.requests = static_cast<std::size_t>(std::atoll(value()));
    } else if (arg == "--threads") {
      opt.threads = static_cast<std::size_t>(std::atoll(value()));
    } else if (arg == "--programs") {
      opt.programs = static_cast<std::size_t>(std::atoll(value()));
    } else if (arg == "--reps") {
      opt.reps = std::max<std::size_t>(1, std::atoll(value()));
    } else if (arg == "--json") {
      opt.jsonPath = value();
    } else if (arg == "--baseline-rps") {
      opt.baselineRps = std::atof(value());
    } else {
      std::fprintf(stderr,
                   "unknown argument '%s'\nusage: health_overhead "
                   "[--requests N] [--threads T] [--programs P] "
                   "[--reps R] [--json PATH] [--baseline-rps RPS]\n",
                   arg.c_str());
      std::exit(2);
    }
  }
  return opt;
}

/// Generous-target SLO config: the tracker does its full per-request
/// work (stripe claim, violation checks, lazy rotation) but never
/// breaches, so the wave measures steady-state cost.
obs::SloConfig steadySlo() {
  obs::SloConfig slo;
  slo.windowSeconds = 10.0;
  slo.subWindows = 8;
  slo.targetP99Seconds = 0.5;
  slo.targetP999Seconds = 1.0;
  slo.minSamples = 100;
  return slo;
}

/// One warm service, optionally with the full PR 9 stack riding along:
/// per-machine SLO trackers, the service detector rules on a 10ms
/// background monitor, and an attached (never-triggered, generous
/// targets) flight recorder. Both rigs stay alive for the whole run so
/// their waves can interleave — machine-condition drift between the two
/// configurations would otherwise swamp the overhead being measured.
class Rig {
public:
  Rig(const std::vector<sim::MachineConfig>& machines,
      const runtime::FeatureDatabase& db, obs::Registry* metrics,
      bool withHealth) {
    serve::ServiceConfig config;
    config.cacheCapacity = 1024;
    config.recordFeedback = false;
    config.metrics = metrics;
    config.metricsPrefix = withHealth ? "bench.health." : "bench.serve.";
    if (withHealth) config.slo = steadySlo();
    service_ = std::make_unique<serve::PartitionService>(config);
    for (const auto& machine : machines) {
      service_->addMachine(
          machine, std::shared_ptr<const ml::Classifier>(
                       runtime::trainDeploymentModel(db, machine.name,
                                                     "forest:32")));
    }
    if (withHealth) {
      obs::FlightRecorderConfig recorderConfig;
      recorderConfig.dir = (std::filesystem::temp_directory_path() /
                            "tp_health_overhead_postmortems")
                               .string();
      recorderConfig.health = &monitor_;
      recorderConfig.metrics = metrics;
      recorder_ = std::make_unique<obs::FlightRecorder>(recorderConfig);
      service_->registerHealthRules(monitor_);
      recorder_->attach();
      monitor_.start(0.01);
    }
  }

  ~Rig() {
    monitor_.stop();
    monitor_.removeRulesByPrefix("");  // rules reference the service
  }

  /// Cold pass filling the decision cache (untimed).
  void coldPass(const Options& opt, const std::vector<runtime::Task>& tasks,
                const std::vector<sim::MachineConfig>& machines) {
    const std::size_t coldRequests =
        std::max<std::size_t>(tasks.size() * machines.size(), 64);
    (void)bench::serveWave(*service_, tasks, machines, opt.threads,
                           coldRequests, 0xC01D);
  }

  /// One timed warm wave; returns requests/sec.
  double wave(const Options& opt, const std::vector<runtime::Task>& tasks,
              const std::vector<sim::MachineConfig>& machines,
              std::uint64_t seed) {
    const auto before = service_->stats();
    const double seconds = bench::serveWave(*service_, tasks, machines,
                                            opt.threads, opt.requests, seed);
    const auto after = service_->stats();
    return static_cast<double>(after.requestsCompleted -
                               before.requestsCompleted) /
           seconds;
  }

private:
  std::unique_ptr<serve::PartitionService> service_;
  obs::HealthMonitor monitor_;
  std::unique_ptr<obs::FlightRecorder> recorder_;
};

/// Nanoseconds per iteration of `body` over `iters` runs (bench/ may use
/// std::chrono directly — see lint rule R8).
template <typename Body>
double nsPerOp(std::size_t iters, Body&& body) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) body(i);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(iters);
}

}  // namespace

int main(int argc, char** argv) {
  common::setLogLevel(common::LogLevel::Warn);
  const Options opt = parseArgs(argc, argv);

  const auto machines = sim::evaluationMachines();
  const runtime::PartitioningSpace space(machines[0].numDevices(), 10);
  auto [tasks, db] = bench::buildServeWorkload(opt.programs, machines, space);

  // ---- macro: warm throughput with and without the health stack ----------
  // Both rigs run the obs-enabled baseline configuration (idle tracing
  // + metrics registry) so the delta isolates the health layer; their
  // warm waves interleave rep by rep and each side reports its best.
  // Discarded warm-up waves absorb frequency ramp and allocator growth.
  obs::TraceRecorder::Config idle;  // default 1-in-64 sampling
  obs::traceRecorder().enable(idle);
  obs::Registry registry;
  double rpsBaseline = 0.0;
  double rpsHealth = 0.0;
  {
    Rig baselineRig(machines, db, &registry, /*withHealth=*/false);
    Rig healthRig(machines, db, &registry, /*withHealth=*/true);
    baselineRig.coldPass(opt, tasks, machines);
    healthRig.coldPass(opt, tasks, machines);
    (void)baselineRig.wave(opt, tasks, machines, 0xD15C);
    (void)healthRig.wave(opt, tasks, machines, 0xD15C);
    for (std::size_t rep = 0; rep < opt.reps; ++rep) {
      rpsBaseline = std::max(
          rpsBaseline, baselineRig.wave(opt, tasks, machines, 0x3A83 + rep));
      rpsHealth = std::max(
          rpsHealth, healthRig.wave(opt, tasks, machines, 0x3A83 + rep));
    }
  }
  obs::traceRecorder().disable();

  // ---- micro: single-probe costs -----------------------------------------
  obs::SloTracker tracker(steadySlo());
  constexpr std::size_t kRecordIters = 1 << 20;
  const double nsSloRecord = nsPerOp(kRecordIters, [&](std::size_t i) {
    tracker.record(100 + (i % 100000));  // live clock, mixed buckets
  });
  constexpr std::size_t kReportIters = 1 << 12;
  const double nsSloReport = nsPerOp(
      kReportIters, [&](std::size_t) { (void)tracker.report(); });

  // One evaluation pass over the real service rule set (the cost the
  // background monitor pays every period).
  double nsHealthEvaluate = 0.0;
  {
    serve::ServiceConfig config;
    config.cacheCapacity = 1024;
    config.recordFeedback = false;
    config.slo = steadySlo();
    serve::PartitionService service(config);
    for (const auto& machine : machines) {
      service.addMachine(
          machine, std::shared_ptr<const ml::Classifier>(
                       runtime::trainDeploymentModel(db, machine.name,
                                                     "forest:32")));
    }
    obs::HealthMonitor monitor;
    service.registerHealthRules(monitor);
    constexpr std::size_t kEvalIters = 1 << 12;
    nsHealthEvaluate = nsPerOp(
        kEvalIters, [&](std::size_t) { (void)monitor.evaluateOnce(); });
    monitor.removeRulesByPrefix("");
  }

  std::printf("health_overhead: %zu clients, %zu warm requests per config\n\n",
              opt.threads, opt.requests);
  bench::TablePrinter table({"configuration", "req/s", "vs baseline"});
  const double baseline =
      opt.baselineRps > 0.0 ? opt.baselineRps : rpsBaseline;
  auto pct = [&](double rps) {
    return bench::fmt(100.0 * (rps - baseline) / baseline, 1) + "%";
  };
  table.addRow({"obs baseline (no health)", bench::fmt(rpsBaseline, 0),
                opt.baselineRps > 0.0 ? pct(rpsBaseline) : "--"});
  table.addRow({"slo + monitor + recorder", bench::fmt(rpsHealth, 0),
                pct(rpsHealth)});
  table.print();
  std::printf("\nmicro-costs (ns/op): slo record %.1f, slo report %.1f, "
              "health evaluate pass %.1f\n",
              nsSloRecord, nsSloReport, nsHealthEvaluate);

  if (!opt.jsonPath.empty()) {
    bench::JsonObject json;
    json.set("bench", "health_overhead");
    json.setInt("threads", opt.threads);
    json.setInt("requests_warm", opt.requests);
    json.setInt("reps", opt.reps);
    // Gate metric: warm throughput with the full health stack riding
    // along. bench.sh / CI compare it against BENCH_obs.json's
    // requests_per_sec_warm with a 5% bar.
    json.set("requests_per_sec_warm", rpsHealth);
    json.set("requests_per_sec_baseline", rpsBaseline);
    json.set("health_overhead_pct",
             100.0 * (baseline - rpsHealth) / baseline);
    json.set("ns_slo_record", nsSloRecord);
    json.set("ns_slo_report", nsSloReport);
    json.set("ns_health_evaluate", nsHealthEvaluate);
    bench::writeJson(opt.jsonPath, json);
    std::printf("\nwrote %s\n", opt.jsonPath.c_str());
  }
  return 0;
}
