// The full adaptive serving loop, end to end:
//
//   predict -> explore -> measure -> write-back -> retrain -> decay
//
//   1. Train a deliberately weak deployment model per machine (mostfreq:
//      one static label — the paper's "default strategy" failure mode).
//   2. Serve every distinct launch once: the first response per launch is
//      the pure model prediction, and its makespan is the baseline.
//   3. Replay warm traffic from concurrent clients with online
//      refinement on: the service probes partitioning neighbors on a
//      fraction of traffic and adopts measured wins.
//   4. Check the steady state: for every launch the exploiting response
//      is at most the baseline makespan (wins need strict improvement,
//      and the simulation is deterministic).
//   5. retrain() under live traffic, then re-serve: counters must
//      reconcile (hits + misses == lookups, evictions <= insertions) and
//      the refiner must report version decays back to the new model.
//
// Build & run:  ./build/examples/adaptive_serving
// Exits non-zero on any violated invariant (ctest smoke test).

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "runtime/evaluation.hpp"
#include "serve/service.hpp"
#include "sim/machine.hpp"
#include "suite/benchmark.hpp"

using namespace tp;

namespace {

constexpr std::size_t kPrograms = 6;
constexpr std::size_t kSizesPerProgram = 2;
constexpr std::size_t kClients = 4;
constexpr std::size_t kWarmRequestsPerClient = 400;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FAILED: %s\n", what.c_str());
    ++failures;
  }
}

}  // namespace

int main() {
  common::setLogLevel(common::LogLevel::Warn);

  const auto machines = sim::evaluationMachines();
  const runtime::PartitioningSpace space(machines[0].numDevices(), 10);

  // ---- workload + (weak) training phase -----------------------------------
  std::vector<runtime::Task> tasks;
  auto db = runtime::FeatureDatabase::withDefaultSchema(space.size());
  const auto& all = suite::allBenchmarks();
  for (std::size_t b = 0; b < kPrograms && b < all.size(); ++b) {
    const auto& bench = all[b];
    for (std::size_t s = 0;
         s < std::min(kSizesPerProgram, bench.sizes.size()); ++s) {
      auto inst = bench.make(bench.sizes[s]);
      for (const auto& machine : machines) {
        db.add(runtime::measureLaunch(inst.task, machine, space,
                                      "n=" + std::to_string(bench.sizes[s])));
      }
      tasks.push_back(std::move(inst.task));
    }
  }

  serve::ServiceConfig config;
  config.cacheCapacity = 256;
  config.retrainSpec = "forest:32";
  config.refine = true;
  config.refiner.exploreFraction = 0.3;
  config.refiner.seed = 0xADA9;
  serve::PartitionService service(config);
  for (const auto& machine : machines) {
    // mostfreq = predict the single most frequent best label: plenty of
    // headroom for the refiner to claw back.
    service.addMachine(machine,
                       std::shared_ptr<const ml::Classifier>(
                           runtime::trainDeploymentModel(db, machine.name,
                                                         "mostfreq")));
  }
  std::printf("adaptive serving: %zu launches x %zu machines, explore %.0f%%\n",
              tasks.size(), machines.size(),
              100.0 * config.refiner.exploreFraction);

  // ---- baseline: first sighting serves the pure model prediction ----------
  std::vector<std::vector<double>> baseline(tasks.size());
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    for (const auto& machine : machines) {
      serve::LaunchRequest request;
      request.machine = machine.name;
      request.task = tasks[t];
      const auto response = service.call(request);
      expect(!response.explored && !response.refined,
             "first sighting serves the unrefined model prediction");
      expect(response.label ==
                 service.predictLabel(machine.name, tasks[t]),
             "baseline label equals the uncached predict path");
      baseline[t].push_back(response.execution.makespan);
    }
  }

  // ---- warm traffic: explore, measure, write back -------------------------
  auto clientWave = [&](std::size_t requestsEach, std::uint64_t seed) {
    std::vector<std::thread> clients;
    std::atomic<std::uint64_t> faults{0};
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        common::Rng rng(seed + c);
        for (std::size_t r = 0; r < requestsEach; ++r) {
          serve::LaunchRequest request;
          const std::size_t t = rng.below(tasks.size());
          request.machine = machines[rng.below(machines.size())].name;
          request.task = tasks[t];
          const auto response = service.call(request);
          if (response.execution.makespan <= 0.0) faults.fetch_add(1);
        }
      });
    }
    for (auto& c : clients) c.join();
    expect(faults.load() == 0, "all responses carry a positive makespan");
  };
  clientWave(kWarmRequestsPerClient, 0xF00D);

  // ---- steady state: refined cost never exceeds the baseline --------------
  std::size_t refinedLaunches = 0;
  double baselineSum = 0.0, steadySum = 0.0;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    for (std::size_t m = 0; m < machines.size(); ++m) {
      for (int attempt = 0; attempt < 64; ++attempt) {
        serve::LaunchRequest request;
        request.machine = machines[m].name;
        request.task = tasks[t];
        const auto response = service.call(request);
        if (response.explored) continue;  // probe: skip, try again
        expect(response.execution.makespan <=
                   baseline[t][m] * (1.0 + 1e-9),
               "steady-state refined time <= pure-prediction baseline");
        baselineSum += baseline[t][m];
        steadySum += response.execution.makespan;
        if (response.refined) ++refinedLaunches;
        break;
      }
    }
  }
  const auto warm = service.stats();
  std::printf("steady state: %.1fus -> %.1fus mean makespan (%.1f%% "
              "faster), %zu/%zu launches refined, %llu wins\n",
              1e6 * baselineSum / static_cast<double>(tasks.size() *
                                                      machines.size()),
              1e6 * steadySum / static_cast<double>(tasks.size() *
                                                    machines.size()),
              100.0 * (baselineSum - steadySum) / baselineSum,
              refinedLaunches, tasks.size() * machines.size(),
              static_cast<unsigned long long>(warm.refiner.wins));
  expect(steadySum <= baselineSum * (1.0 + 1e-9),
         "aggregate steady-state time <= baseline");
  expect(warm.refiner.decisions ==
             warm.refiner.explorations + warm.refiner.exploitations +
                 warm.refiner.untracked,
         "refiner decision counters reconcile");
  expect(warm.refinedKeys == tasks.size() * machines.size(),
         "every distinct launch is tracked by the refiner");
  expect(warm.cache.hits + warm.cache.misses == warm.cache.lookups,
         "cache counters reconcile before retrain");

  // ---- retrain under load: decay back to the (better) model ---------------
  std::atomic<bool> stop{false};
  std::vector<std::thread> background;
  for (std::size_t c = 0; c < 2; ++c) {
    background.emplace_back([&, c] {
      common::Rng rng(0xCAFE + c);
      while (!stop.load()) {
        serve::LaunchRequest request;
        request.machine = machines[rng.below(machines.size())].name;
        request.task = tasks[rng.below(tasks.size())];
        (void)service.call(request);
      }
    });
  }
  const auto retrained = service.retrain();
  stop.store(true);
  for (auto& c : background) c.join();
  service.drain();
  expect(retrained.machinesRetrained == machines.size(),
         "every machine retrained from recorded traffic");

  // Serve every launch once under the new model so the refiner sees the
  // version bump and decays.
  clientWave(kWarmRequestsPerClient / 4, 0xD1CE);
  const auto fin = service.stats();
  std::printf("after retrain: model version %llu, %llu refiner resets, "
              "%llu requests, hit-rate %.1f%%\n",
              static_cast<unsigned long long>(fin.modelVersion),
              static_cast<unsigned long long>(fin.refiner.resets),
              static_cast<unsigned long long>(fin.requestsCompleted),
              100.0 * fin.cacheHitRate);
  expect(fin.modelVersion == retrained.modelVersion,
         "stats report the bumped model version");
  expect(fin.refiner.resets >= 1, "refiner decayed after the retrain");
  expect(fin.cache.hits + fin.cache.misses == fin.cache.lookups,
         "cache counters reconcile after retrain under load");
  expect(fin.cache.evictions <= fin.cache.insertions,
         "evictions never exceed insertions");
  expect(fin.requestsFailed == 0, "no failed requests");
  expect(fin.requestsCompleted == fin.requestsSubmitted,
         "every submitted request was answered");
  for (const auto& m : fin.machines) {
    expect(m.modelVersion == retrained.modelVersion,
           "machine " + m.machine + " serves the retrained generation");
  }

  service.shutdown();
  if (failures == 0) {
    std::printf("\nadaptive_serving OK: %llu requests, %llu wins, "
                "%llu probes, %llu resets\n",
                static_cast<unsigned long long>(fin.requestsCompleted),
                static_cast<unsigned long long>(fin.refiner.wins),
                static_cast<unsigned long long>(fin.refiner.explorations),
                static_cast<unsigned long long>(fin.refiner.resets));
    return 0;
  }
  std::printf("\nadaptive_serving FAILED: %d violated invariant(s)\n",
              failures);
  return 1;
}
