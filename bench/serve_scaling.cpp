// Warm-path thread-scaling sweep: closed-loop warm throughput of
// tp::serve at 1/2/4/8/16 client threads against one shared service.
//
// Usage: serve_scaling [--requests N] [--programs P] [--json PATH]
//
// `--requests` is the per-sweep-point warm request budget. The cache is
// filled once before the sweep, so every timed wave exercises the inline
// hit path. With --json the per-thread-count throughputs are written as a
// flat JSON object (scripts/bench.sh appends it to the repo's perf
// trajectory as BENCH_serve_scaling.json).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "harness_util.hpp"
#include "runtime/evaluation.hpp"
#include "serve/service.hpp"
#include "sim/machine.hpp"
#include "suite/benchmark.hpp"

using namespace tp;

namespace {

struct Options {
  std::size_t requests = 20000;  ///< per sweep point and repetition
  std::size_t reps = 3;          ///< repetitions per point (best kept)
  std::size_t programs = 8;
  std::string jsonPath;
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
    } else if (arg == "--reps") {
      opt.reps = std::max<std::size_t>(1, static_cast<std::size_t>(
                                              std::atoll(value())));
    } else if (arg == "--programs") {
      opt.programs = static_cast<std::size_t>(std::atoll(value()));
    } else if (arg == "--json") {
      opt.jsonPath = value();
    } else {
      std::fprintf(stderr,
                   "unknown argument '%s'\nusage: serve_scaling "
                   "[--requests N] [--reps R] [--programs P] [--json PATH]\n",
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

  // Shared with serve_throughput: one definition of the traffic mix.
  auto [tasks, db] = bench::buildServeWorkload(opt.programs, machines, space);

  serve::ServiceConfig config;
  config.cacheCapacity = 1024;
  config.inlineLanes = 32;  // cover the widest sweep point
  config.recordFeedback = false;  // isolate the serving hot path
  serve::PartitionService service(config);
  for (const auto& machine : machines) {
    service.addMachine(
        machine, std::shared_ptr<const ml::Classifier>(
                     runtime::trainDeploymentModel(db, machine.name,
                                                   "forest:32")));
  }

  // Fill the cache once; the sweep below times pure warm traffic.
  const std::size_t warmup =
      std::max<std::size_t>(tasks.size() * machines.size(), 64);
  (void)bench::serveWave(service, tasks, machines, 2, warmup, 0xF111);

  const std::vector<std::size_t> sweep = {1, 2, 4, 8, 16};
  std::vector<double> rps(sweep.size(), 0.0);
  bench::TablePrinter table({"threads", "requests", "req/s", "hit-rate"});
  auto before = service.stats();
  for (std::size_t p = 0; p < sweep.size(); ++p) {
    // Best of `reps`: sweep points are short, so one descheduled client
    // (or the thread-spawn cost itself) can dominate a single wave.
    double best = 0.0;
    std::uint64_t requests = 0;
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    for (std::size_t rep = 0; rep < opt.reps; ++rep) {
      const double seconds =
          bench::serveWave(service, tasks, machines, sweep[p], opt.requests,
                           0x5CA1E + 31 * p + 7 * rep);
      const auto after = service.stats();
      const auto served = after.requestsCompleted - before.requestsCompleted;
      best = std::max(best, static_cast<double>(served) / seconds);
      requests += served;
      lookups += after.cache.lookups - before.cache.lookups;
      hits += after.cache.hits - before.cache.hits;
      before = after;
    }
    rps[p] = best;
    table.addRow({std::to_string(sweep[p]), std::to_string(requests),
                  bench::fmt(rps[p], 0),
                  bench::fmt(lookups == 0 ? 0.0
                                          : 100.0 * static_cast<double>(hits) /
                                                static_cast<double>(lookups),
                             1) +
                      "%"});
  }

  std::printf("serve_scaling: %zu launches x %zu machines, %zu warm "
              "requests x %zu reps per point (best kept)\n\n",
              tasks.size(), machines.size(), opt.requests, opt.reps);
  table.print();

  if (!opt.jsonPath.empty()) {
    bench::JsonObject json;
    json.set("bench", "serve_scaling");
    json.setInt("programs", opt.programs);
    json.setInt("requests_per_point", opt.requests);
    json.setInt("distinct_launches", tasks.size() * machines.size());
    for (std::size_t p = 0; p < sweep.size(); ++p) {
      json.set("requests_per_sec_t" + std::to_string(sweep[p]), rps[p]);
    }
    const auto stats = service.stats();
    json.setInt("requests_inline", stats.requestsInline);
    json.set("hit_rate_total", stats.cacheHitRate);
    bench::writeJson(opt.jsonPath, json);
    std::printf("\nwrote %s\n", opt.jsonPath.c_str());
  }
  return 0;
}
