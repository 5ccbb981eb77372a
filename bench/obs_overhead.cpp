// Observability overhead: what tp::obs costs the serving hot path, and
// what individual probes cost in nanoseconds.
//
//   - Macro phases replay the serve_throughput warm workload through
//     three configurations: obs fully off (tracing runtime-disabled, no
//     metrics registry), tracing enabled but idle (no *_SAMPLED hits kept
//     beyond 1-in-N, registry attached), and tracing enabled with
//     sample-every-request. The ISSUE gate compares the enabled-sampled
//     warm throughput against a TP_TRACING=OFF build of this same binary
//     (bench.sh runs both and passes the compiled-out number back in via
//     --compiled-out-rps).
//   - Micro phases time single probes in a tight loop: span record when
//     disabled / sampled-out / kept, counter add, histogram record.
//
// Usage: obs_overhead [--requests N] [--threads T] [--programs P]
//                     [--reps R] [--json PATH] [--compiled-out-rps RPS]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "harness_util.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/evaluation.hpp"
#include "serve/service.hpp"
#include "sim/machine.hpp"
#include "suite/benchmark.hpp"

using namespace tp;

namespace {

struct Options {
  // Warm-phase requests per configuration. Larger than serve_throughput's
  // default: the 5% CI gate needs the measurement window well above
  // scheduler jitter (4k requests is a ~10ms window at warm speeds).
  std::size_t requests = 40000;
  // Runs per configuration; the best one is reported. Thread placement
  // and frequency-ramp luck swing a single closed-loop wave by far more
  // than the overhead being measured — best-of-N compares the
  // configurations at their respective best case, which is the stable
  // statistic for an overhead gate.
  std::size_t reps = 3;
  std::size_t threads = 8;
  std::size_t programs = 8;
  std::string jsonPath;
  double compiledOutRps = 0.0;  ///< warm rps of a TP_TRACING=OFF build
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
    } else if (arg == "--compiled-out-rps") {
      opt.compiledOutRps = std::atof(value());
    } else {
      std::fprintf(stderr,
                   "unknown argument '%s'\nusage: obs_overhead "
                   "[--requests N] [--threads T] [--programs P] "
                   "[--reps R] [--json PATH] [--compiled-out-rps RPS]\n",
                   arg.c_str());
      std::exit(2);
    }
  }
  return opt;
}

/// Warm requests/sec of one service configuration: fresh service, cold
/// pass to fill the cache, then the best of opt.reps timed warm waves.
double warmRps(const Options& opt, const std::vector<runtime::Task>& tasks,
               const std::vector<sim::MachineConfig>& machines,
               const runtime::FeatureDatabase& db, obs::Registry* metrics) {
  serve::ServiceConfig config;
  config.cacheCapacity = 1024;
  config.recordFeedback = false;
  config.metrics = metrics;
  config.metricsPrefix = "bench.serve.";
  serve::PartitionService service(config);
  for (const auto& machine : machines) {
    service.addMachine(
        machine, std::shared_ptr<const ml::Classifier>(
                     runtime::trainDeploymentModel(db, machine.name,
                                                   "forest:32")));
  }
  const std::size_t coldRequests =
      std::max<std::size_t>(tasks.size() * machines.size(), 64);
  (void)bench::serveWave(service, tasks, machines, opt.threads, coldRequests,
                         0xC01D);
  double best = 0.0;
  for (std::size_t rep = 0; rep < opt.reps; ++rep) {
    const auto before = service.stats();
    const double seconds = bench::serveWave(
        service, tasks, machines, opt.threads, opt.requests, 0x3A83 + rep);
    const auto after = service.stats();
    const double rps = static_cast<double>(after.requestsCompleted -
                                           before.requestsCompleted) /
                       seconds;
    best = std::max(best, rps);
  }
  return best;
}

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

  // ---- macro: warm serving throughput per obs configuration --------------
  // Discarded warm-up pass first: the very first wave pays for CPU
  // frequency ramp, allocator arenas and page faults, which would
  // otherwise be billed entirely to whichever configuration runs first.
  obs::traceRecorder().disable();
  (void)warmRps(opt, tasks, machines, db, nullptr);

  const double rpsOff = warmRps(opt, tasks, machines, db, nullptr);

  obs::TraceRecorder::Config idle;  // default 1-in-64 sampling
  obs::traceRecorder().enable(idle);
  obs::Registry registry;
  const double rpsIdle = warmRps(opt, tasks, machines, db, &registry);

  obs::TraceRecorder::Config everyHit;
  everyHit.sampleEveryN = 1;  // keep every warm-hit span
  obs::traceRecorder().enable(everyHit);
  const double rpsSampled = warmRps(opt, tasks, machines, db, &registry);
  obs::traceRecorder().disable();

  // ---- micro: single-probe costs -----------------------------------------
  constexpr std::size_t kIters = 1 << 20;
  const double nsSpanDisabled = nsPerOp(kIters, [](std::size_t i) {
    TP_TRACE_SPAN_ARG("bench.disabled_span", i);
  });

  obs::TraceRecorder::Config micro;
  micro.sampleEveryN = 64;
  obs::traceRecorder().enable(micro);
  const double nsSpanSampledOut = nsPerOp(kIters, [](std::size_t i) {
    TP_TRACE_SPAN_SAMPLED("bench.sampled_span", i);  // kept 1-in-64
  });
  const double nsSpanKept = nsPerOp(kIters, [](std::size_t i) {
    TP_TRACE_SPAN_ARG("bench.kept_span", i);  // recorded every time
  });
  obs::traceRecorder().disable();

  common::StripedCounter& counter = registry.counter("bench.micro_counter");
  const double nsCounterAdd =
      nsPerOp(kIters, [&](std::size_t) { counter.add(1); });
  obs::Histogram& histogram = registry.histogram("bench.micro_histogram");
  const double nsHistogramRecord =
      nsPerOp(kIters, [&](std::size_t i) { histogram.record(i); });

  const bool tracingCompiled = TP_OBS_TRACING != 0;
  std::printf("obs_overhead: %zu clients, %zu warm requests per config, "
              "tracing %s\n\n",
              opt.threads, opt.requests,
              tracingCompiled ? "compiled in" : "compiled out");
  bench::TablePrinter table({"configuration", "req/s", "vs off"});
  auto pct = [&](double rps) {
    return bench::fmt(100.0 * (rps - rpsOff) / rpsOff, 1) + "%";
  };
  table.addRow({"obs off (runtime)", bench::fmt(rpsOff, 0), "--"});
  table.addRow({"tracing idle + metrics", bench::fmt(rpsIdle, 0),
                pct(rpsIdle)});
  table.addRow({"tracing every-hit + metrics", bench::fmt(rpsSampled, 0),
                pct(rpsSampled)});
  table.print();
  std::printf("\nmicro-costs (ns/op): span disabled %.1f, sampled-out %.1f, "
              "kept %.1f; counter add %.1f, histogram record %.1f\n",
              nsSpanDisabled, nsSpanSampledOut, nsSpanKept, nsCounterAdd,
              nsHistogramRecord);

  if (!opt.jsonPath.empty()) {
    bench::JsonObject json;
    json.set("bench", "obs_overhead");
    json.setInt("tracing_compiled_in", tracingCompiled ? 1 : 0);
    json.setInt("threads", opt.threads);
    json.setInt("requests_warm", opt.requests);
    json.setInt("reps", opt.reps);
    // Gate metric: warm throughput with obs fully enabled (sampled
    // tracing + metrics registry). bench.sh compares it against the
    // compiled-out build's number with a 5% bar.
    json.set("requests_per_sec_warm", rpsIdle);
    json.set("requests_per_sec_disabled", rpsOff);
    json.set("requests_per_sec_every_hit", rpsSampled);
    if (opt.compiledOutRps > 0.0) {
      json.set("requests_per_sec_compiled_out", opt.compiledOutRps);
      json.set("enabled_overhead_pct",
               100.0 * (opt.compiledOutRps - rpsIdle) / opt.compiledOutRps);
    }
    json.set("ns_span_disabled", nsSpanDisabled);
    json.set("ns_span_sampled_out", nsSpanSampledOut);
    json.set("ns_span_kept", nsSpanKept);
    json.set("ns_counter_add", nsCounterAdd);
    json.set("ns_histogram_record", nsHistogramRecord);
    bench::writeJson(opt.jsonPath, json);
    std::printf("\nwrote %s\n", opt.jsonPath.c_str());
  }
  return 0;
}
