// Online-refinement convergence: how much simulated execution time the
// adapt::Refiner claws back over a deliberately weak deployment model,
// wave by wave, until steady state.
//
// The deployment model is trained with a weak spec (default: mostfreq,
// i.e. one static label for all traffic — the paper's "default strategy"
// failure mode), so the refiner has headroom. Each wave replays closed-
// loop traffic, then the steady-state cost is probed per launch with the
// first non-explored (exploiting) response. The steady-state mean is
// monotonically non-increasing in a deterministic simulation: wins
// require strict measured improvement.
//
// Usage: adapt_convergence [--waves W] [--requests N] [--threads T]
//                          [--programs P] [--explore F] [--spec S]
//                          [--json PATH]
//
// With --json the headline numbers are written as a flat JSON object
// (see scripts/bench.sh, which appends to the repo's perf trajectory as
// BENCH_adapt.json).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "harness_util.hpp"
#include "runtime/evaluation.hpp"
#include "serve/service.hpp"
#include "sim/machine.hpp"
#include "suite/benchmark.hpp"

using namespace tp;

namespace {

struct Options {
  std::size_t waves = 5;
  std::size_t requests = 1500;  ///< per wave
  std::size_t threads = 4;
  std::size_t programs = 6;
  double explore = 0.25;
  std::string spec = "mostfreq";  ///< weak on purpose: headroom to refine
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
    if (arg == "--waves") {
      opt.waves = static_cast<std::size_t>(std::atoll(value()));
    } else if (arg == "--requests") {
      opt.requests = static_cast<std::size_t>(std::atoll(value()));
    } else if (arg == "--threads") {
      opt.threads = static_cast<std::size_t>(std::atoll(value()));
    } else if (arg == "--programs") {
      opt.programs = static_cast<std::size_t>(std::atoll(value()));
    } else if (arg == "--explore") {
      opt.explore = std::atof(value());
    } else if (arg == "--spec") {
      opt.spec = value();
    } else if (arg == "--json") {
      opt.jsonPath = value();
    } else {
      std::fprintf(stderr,
                   "unknown argument '%s'\nusage: adapt_convergence "
                   "[--waves W] [--requests N] [--threads T] [--programs P] "
                   "[--explore F] [--spec S] [--json PATH]\n",
                   arg.c_str());
      std::exit(2);
    }
  }
  return opt;
}

/// Mean steady-state (exploiting) makespan over every distinct launch.
double steadyStateMean(serve::PartitionService& service,
                       const std::vector<runtime::Task>& tasks,
                       const std::vector<sim::MachineConfig>& machines) {
  double sum = 0.0;
  std::size_t count = 0;
  for (const auto& machine : machines) {
    for (const auto& task : tasks) {
      for (int attempt = 0; attempt < 64; ++attempt) {
        serve::LaunchRequest request;
        request.machine = machine.name;
        request.task = task;
        const auto response = service.call(request);
        if (response.explored) continue;  // probe: not steady state
        sum += response.execution.makespan;
        ++count;
        break;
      }
    }
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  common::setLogLevel(common::LogLevel::Warn);
  const Options opt = parseArgs(argc, argv);

  const auto machines = sim::evaluationMachines();
  const runtime::PartitioningSpace space(machines[0].numDevices(), 10);

  std::vector<runtime::Task> tasks;
  auto db = runtime::FeatureDatabase::withDefaultSchema(space.size());
  const auto& all = suite::allBenchmarks();
  for (std::size_t b = 0; b < opt.programs && b < all.size(); ++b) {
    const auto& bench = all[b];
    for (std::size_t s = 0; s < std::min<std::size_t>(2, bench.sizes.size());
         ++s) {
      auto inst = bench.make(bench.sizes[s]);
      for (const auto& machine : machines) {
        db.add(runtime::measureLaunch(inst.task, machine, space,
                                      "n=" + std::to_string(bench.sizes[s])));
      }
      tasks.push_back(std::move(inst.task));
    }
  }

  auto weakModel = [&](const sim::MachineConfig& machine) {
    return std::shared_ptr<const ml::Classifier>(
        runtime::trainDeploymentModel(db, machine.name, opt.spec));
  };

  // ---- pure-prediction baseline (deterministic: one call per launch) ------
  double baselineMean = 0.0;
  {
    serve::ServiceConfig config;
    config.recordFeedback = false;
    serve::PartitionService baseline(config);
    for (const auto& machine : machines) {
      baseline.addMachine(machine, weakModel(machine));
    }
    double sum = 0.0;
    for (const auto& machine : machines) {
      for (const auto& task : tasks) {
        serve::LaunchRequest request;
        request.machine = machine.name;
        request.task = task;
        sum += baseline.call(request).execution.makespan;
      }
    }
    baselineMean = sum / static_cast<double>(tasks.size() * machines.size());
    baseline.shutdown();
  }

  // ---- refined service ----------------------------------------------------
  serve::ServiceConfig config;
  config.recordFeedback = false;
  config.refine = true;
  config.refiner.exploreFraction = opt.explore;
  config.refiner.seed = 99;
  serve::PartitionService service(config);
  for (const auto& machine : machines) {
    service.addMachine(machine, weakModel(machine));
  }

  std::printf("adapt_convergence: %zu launches x %zu machines, spec '%s', "
              "explore %.0f%%, %zu req/wave x %zu waves\n\n",
              tasks.size(), machines.size(), opt.spec.c_str(),
              100.0 * opt.explore, opt.requests, opt.waves);

  bench::TablePrinter table({"wave", "requests", "steady us", "vs baseline",
                             "explores", "wins", "keys"});
  double finalMean = baselineMean;
  for (std::size_t w = 0; w < opt.waves; ++w) {
    std::vector<std::thread> clients;
    const std::size_t each =
        std::max<std::size_t>(1, opt.requests / std::max<std::size_t>(
                                                    1, opt.threads));
    for (std::size_t c = 0; c < opt.threads; ++c) {
      clients.emplace_back([&, c, w] {
        common::Rng rng(0xADA7u + 131 * w + c);
        for (std::size_t r = 0; r < each; ++r) {
          serve::LaunchRequest request;
          request.machine = machines[rng.below(machines.size())].name;
          request.task = tasks[rng.below(tasks.size())];
          (void)service.call(request);
        }
      });
    }
    for (auto& c : clients) c.join();

    finalMean = steadyStateMean(service, tasks, machines);
    const auto stats = service.stats();
    table.addRow({std::to_string(w + 1), std::to_string(each * opt.threads),
                  bench::fmt(finalMean * 1e6, 1),
                  bench::fmt(100.0 * (baselineMean - finalMean) /
                                 baselineMean, 1) + "%",
                  std::to_string(stats.refiner.explorations),
                  std::to_string(stats.refiner.wins),
                  std::to_string(stats.refinedKeys)});
  }
  table.print();

  const auto stats = service.stats();
  const double improvement =
      baselineMean > 0.0 ? (baselineMean - finalMean) / baselineMean : 0.0;
  std::printf("\nbaseline %.1fus -> steady state %.1fus (%.1f%% faster), "
              "%llu wins from %llu probes\n",
              baselineMean * 1e6, finalMean * 1e6, 100.0 * improvement,
              static_cast<unsigned long long>(stats.refiner.wins),
              static_cast<unsigned long long>(stats.refiner.explorations));

  if (!opt.jsonPath.empty()) {
    bench::JsonObject json;
    json.set("bench", "adapt_convergence");
    json.set("spec", opt.spec);
    json.setInt("waves", opt.waves);
    json.setInt("requests_per_wave", opt.requests);
    json.setInt("threads", opt.threads);
    json.setInt("distinct_launches", tasks.size() * machines.size());
    json.set("explore_fraction", opt.explore);
    json.set("baseline_mean_makespan_us", baselineMean * 1e6);
    json.set("steady_mean_makespan_us", finalMean * 1e6);
    json.set("improvement_pct", 100.0 * improvement);
    json.setInt("explorations", stats.refiner.explorations);
    json.setInt("wins", stats.refiner.wins);
    json.setInt("refined_keys", stats.refinedKeys);
    json.setInt("requests_completed", stats.requestsCompleted);
    bench::writeJson(opt.jsonPath, json);
    std::printf("\nwrote %s\n", opt.jsonPath.c_str());
  }
  service.shutdown();
  return 0;
}
