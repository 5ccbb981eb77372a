// Serving throughput: requests/sec and cache hit-rate of tp::serve under
// closed-loop multi-threaded load, cold (empty cache) vs. warm.
//
// Usage: serve_throughput [--requests N] [--threads T] [--programs P]
//                         [--json PATH] [--trace PATH] [--metrics PATH]
//
// With --json the headline numbers are also written as a flat JSON object
// (see scripts/bench.sh, which appends to the repo's perf trajectory as
// BENCH_serve.json). --trace captures a Chrome trace of both waves
// (1-in-64 sampled warm hits); --metrics dumps the obs registry on exit.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
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
  std::size_t requests = 4000;  ///< warm-phase request count
  std::size_t threads = 8;
  std::size_t programs = 8;
  std::string jsonPath;
  std::string tracePath;
  std::string metricsPath;
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
    } else if (arg == "--json") {
      opt.jsonPath = value();
    } else if (arg == "--trace") {
      opt.tracePath = value();
    } else if (arg == "--metrics") {
      opt.metricsPath = value();
    } else {
      std::fprintf(stderr,
                   "unknown argument '%s'\nusage: serve_throughput "
                   "[--requests N] [--threads T] [--programs P] "
                   "[--json PATH] [--trace PATH] [--metrics PATH]\n",
                   arg.c_str());
      std::exit(2);
    }
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  common::setLogLevel(common::LogLevel::Warn);
  const Options opt = parseArgs(argc, argv);

  const auto machines = sim::evaluationMachines();
  const runtime::PartitioningSpace space(machines[0].numDevices(), 10);

  // Workload + per-machine deployment models (2 sizes per program);
  // shared with serve_scaling so both benches measure one traffic mix.
  auto [tasks, db] = bench::buildServeWorkload(opt.programs, machines, space);

  if (!opt.tracePath.empty()) obs::traceRecorder().enable();

  serve::ServiceConfig config;
  config.cacheCapacity = 1024;
  config.recordFeedback = false;  // isolate the serving hot path
  if (!opt.metricsPath.empty()) config.metrics = &obs::defaultRegistry();
  serve::PartitionService service(config);
  for (const auto& machine : machines) {
    service.addMachine(
        machine, std::shared_ptr<const ml::Classifier>(
                     runtime::trainDeploymentModel(db, machine.name,
                                                   "forest:32")));
  }

  // Cold: first pass over the distinct keys fills the cache.
  const std::size_t coldRequests =
      std::max<std::size_t>(tasks.size() * machines.size(), 64);
  const double coldSeconds =
      bench::serveWave(service, tasks, machines, opt.threads,
                       coldRequests, 0xC01D);
  const auto coldStats = service.stats();

  // Warm: replayed traffic should mostly hit the decision cache.
  const double warmSeconds =
      bench::serveWave(service, tasks, machines, opt.threads,
                       opt.requests, 0x3A83);
  const auto warmStats = service.stats();

  const auto warmLookups = warmStats.cache.lookups - coldStats.cache.lookups;
  const auto warmHits = warmStats.cache.hits - coldStats.cache.hits;
  const double warmHitRate =
      warmLookups == 0
          ? 0.0
          : static_cast<double>(warmHits) / static_cast<double>(warmLookups);
  const double coldRps =
      static_cast<double>(coldStats.requestsCompleted) / coldSeconds;
  const double warmRps =
      static_cast<double>(warmStats.requestsCompleted -
                          coldStats.requestsCompleted) /
      warmSeconds;

  bench::TablePrinter table(
      {"phase", "requests", "req/s", "hit-rate", "p50 us", "p95 us"});
  table.addRow({"cold", std::to_string(coldStats.requestsCompleted),
                bench::fmt(coldRps, 0),
                bench::fmt(100.0 * coldStats.cacheHitRate, 1) + "%",
                bench::fmt(coldStats.latency.p50Seconds * 1e6, 0),
                bench::fmt(coldStats.latency.p95Seconds * 1e6, 0)});
  table.addRow({"warm",
                std::to_string(warmStats.requestsCompleted -
                               coldStats.requestsCompleted),
                bench::fmt(warmRps, 0), bench::fmt(100.0 * warmHitRate, 1) + "%",
                bench::fmt(warmStats.latency.p50Seconds * 1e6, 0),
                bench::fmt(warmStats.latency.p95Seconds * 1e6, 0)});
  std::printf("serve_throughput: %zu clients, %zu launches x %zu machines, "
              "cache %zu\n\n",
              opt.threads, tasks.size(), machines.size(),
              config.cacheCapacity);
  table.print();

  if (!opt.jsonPath.empty()) {
    bench::JsonObject json;
    json.set("bench", "serve_throughput");
    json.setInt("threads", opt.threads);
    json.setInt("programs", opt.programs);
    json.setInt("distinct_launches", tasks.size() * machines.size());
    json.setInt("requests_cold", coldStats.requestsCompleted);
    json.setInt("requests_warm",
                warmStats.requestsCompleted - coldStats.requestsCompleted);
    json.set("requests_per_sec_cold", coldRps);
    json.set("requests_per_sec_warm", warmRps);
    json.set("hit_rate_warm", warmHitRate);
    json.set("p50_latency_us", warmStats.latency.p50Seconds * 1e6);
    json.set("p95_latency_us", warmStats.latency.p95Seconds * 1e6);
    json.setInt("cache_capacity", config.cacheCapacity);
    json.setInt("cache_evictions", warmStats.cache.evictions);
    bench::writeJson(opt.jsonPath, json);
    std::printf("\nwrote %s\n", opt.jsonPath.c_str());
  }

  if (!opt.tracePath.empty()) {
    obs::traceRecorder().disable();
    obs::traceRecorder().writeChromeTraceFile(opt.tracePath);
    std::printf("trace written to %s\n", opt.tracePath.c_str());
  }
  if (!opt.metricsPath.empty()) {
    // Dump before the service destructor unregisters its readouts.
    std::ofstream out(opt.metricsPath);
    out << obs::defaultRegistry().exportJson() << "\n";
    std::printf("metrics written to %s\n", opt.metricsPath.c_str());
  }
  return 0;
}
