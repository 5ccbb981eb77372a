// Fleet scaling: what gossiped refiner wins buy a replicated serving
// deployment.
//
// Three scenarios over the same workload (suite programs, both
// evaluation machines, a deliberately weak CPU-only deployment model):
//
//   single    — one replica, per-replica traffic share, no gossip
//   isolated  — N replicas, no gossip: every replica rediscovers wins
//   gossip    — N replicas, anti-entropy rounds between waves
//
// Reported per scenario: probes (refiner explorations) per replica,
// steady-state refined makespan, adopted wins, and gossip transport
// volume. The headline claims: with gossip the fleet's steady-state
// refined makespan is no worse than the single-replica baseline at
// equal per-replica traffic, while probes per replica drop well below
// the isolated fleet (wins are shared, not rediscovered).
//
// Usage: fleet_scaling [--replicas N] [--waves W] [--requests R]
//                      [--programs P] [--explore F] [--json PATH]
//                      [--trace PATH] [--metrics PATH]
//
// With --json the headline numbers are written as a flat JSON object
// (see scripts/bench.sh, which appends to the repo's perf trajectory as
// BENCH_fleet.json). --trace captures a Chrome trace of the gossip
// scenario; --metrics dumps the obs registry (per-replica namespaced
// serve counters) after it.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "fleet/fleet.hpp"
#include "harness_util.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/machine.hpp"
#include "suite/benchmark.hpp"

using namespace tp;

namespace {

struct Options {
  std::size_t replicas = 3;
  std::size_t waves = 12;
  /// Per wave, fleet-wide. One gossip round runs between waves, so this
  /// sets the anti-entropy cadence relative to per-key traffic (~5
  /// sightings per key per replica per round at the defaults).
  std::size_t requests = 360;
  std::size_t programs = 6;
  std::size_t sizesPerProgram = 2;
  double explore = 0.4;
  std::string jsonPath;
  std::string tracePath;    ///< Chrome trace of the gossip scenario
  std::string metricsPath;  ///< obs registry JSON dump after it
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
    if (arg == "--replicas") {
      opt.replicas = std::strtoul(value(), nullptr, 10);
    } else if (arg == "--waves") {
      opt.waves = std::strtoul(value(), nullptr, 10);
    } else if (arg == "--requests") {
      opt.requests = std::strtoul(value(), nullptr, 10);
    } else if (arg == "--programs") {
      opt.programs = std::strtoul(value(), nullptr, 10);
    } else if (arg == "--explore") {
      opt.explore = std::strtod(value(), nullptr);
    } else if (arg == "--json") {
      opt.jsonPath = value();
    } else if (arg == "--trace") {
      opt.tracePath = value();
    } else if (arg == "--metrics") {
      opt.metricsPath = value();
    } else {
      std::fprintf(stderr,
                   "usage: fleet_scaling [--replicas N] [--waves W] "
                   "[--requests R] [--programs P] [--explore F] "
                   "[--json PATH] [--trace PATH] [--metrics PATH]\n");
      std::exit(2);
    }
  }
  return opt;
}

struct Workload {
  std::vector<sim::MachineConfig> machines = sim::evaluationMachines();
  std::vector<runtime::Task> tasks;
  std::shared_ptr<const ml::Classifier> weakModel;

  explicit Workload(const Options& opt) {
    const auto& all = suite::allBenchmarks();
    for (std::size_t b = 0; b < opt.programs && b < all.size(); ++b) {
      for (std::size_t s = 0;
           s < std::min(opt.sizesPerProgram, all[b].sizes.size()); ++s) {
        tasks.push_back(all[b].make(all[b].sizes[s]).task);
      }
    }
    const runtime::PartitioningSpace space(machines[0].numDevices(), 10);
    ml::Dataset seed;
    seed.numClasses = static_cast<int>(space.size());
    seed.featureNames = {"f0"};
    seed.add({0.0}, static_cast<int>(space.cpuOnlyIndex()), "seed");
    auto model = ml::makeClassifier("mostfreq");
    model->train(seed);
    weakModel = std::shared_ptr<const ml::Classifier>(std::move(model));
  }

  serve::LaunchRequest request(std::size_t index) const {
    serve::LaunchRequest r;
    r.machine = machines[index % machines.size()].name;
    r.task = tasks[(index / machines.size()) % tasks.size()];
    return r;
  }

  std::size_t distinctLaunches() const {
    return tasks.size() * machines.size();
  }
};

struct ScenarioResult {
  std::uint64_t probesMax = 0;      ///< per replica
  std::uint64_t probesTotal = 0;    ///< fleet-wide
  std::uint64_t winsLocal = 0;      ///< locally measured adoptions
  std::uint64_t winsAdopted = 0;    ///< adopted via gossip merges
  std::uint64_t gossipBytes = 0;
  std::uint64_t gossipMessages = 0;
  double steadyMeanSeconds = 0.0;
  double requestsServed = 0.0;
};

ScenarioResult runScenario(const Options& opt, const Workload& wl,
                           std::size_t replicas, bool gossip,
                           std::size_t requestsPerWave,
                           const std::string& metricsPath = "") {
  fleet::FleetConfig fc;
  fc.replicas = replicas;
  fc.gossipEnabled = gossip;
  // The registry dump has to happen while the fleet is alive: each
  // replica's service unregisters its readouts on destruction.
  if (!metricsPath.empty()) fc.service.metrics = &obs::defaultRegistry();
  fc.service.refine = true;
  fc.service.refiner.exploreFraction = opt.explore;
  fc.service.refiner.probeSamples = 1;
  fc.service.refiner.neighborRadius = 2;
  fc.service.refiner.seed = 0xF1EE7;
  fleet::Fleet fleet(fc);
  for (const auto& machine : wl.machines) {
    fleet.addMachine(machine, wl.weakModel);
  }

  common::Rng rng(0xBE7C4);
  for (std::size_t wave = 0; wave < opt.waves; ++wave) {
    // call() serves on this thread, so a wave executes serially.
    for (std::size_t i = 0; i < requestsPerWave; ++i) {
      (void)fleet.call(wl.request(rng.below(wl.distinctLaunches())));
    }
    if (gossip) fleet.gossipRound();
  }
  fleet.drainAll();

  ScenarioResult result;
  double steadySum = 0.0;
  for (std::size_t i = 0; i < wl.distinctLaunches(); ++i) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const auto response = fleet.replica(0).call(wl.request(i));
      if (response.explored) continue;
      steadySum += response.execution.makespan;
      break;
    }
  }
  result.steadyMeanSeconds =
      steadySum / static_cast<double>(wl.distinctLaunches());
  const auto stats = fleet.stats();
  for (const auto& s : stats.replicas) {
    result.probesMax = std::max(result.probesMax, s.refiner.explorations);
    result.probesTotal += s.refiner.explorations;
    result.winsLocal += s.refiner.wins;
    result.winsAdopted += s.fleet.winsAdopted;
    result.requestsServed += static_cast<double>(s.requestsCompleted);
  }
  result.gossipBytes = stats.transport.bytesMoved;
  result.gossipMessages = stats.transport.delivered;
  if (!metricsPath.empty()) {
    std::ofstream out(metricsPath);
    out << obs::defaultRegistry().exportJson() << "\n";
    std::printf("metrics written to %s\n", metricsPath.c_str());
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  common::setLogLevel(common::LogLevel::Warn);
  const Options opt = parseArgs(argc, argv);
  const Workload wl(opt);
  std::printf("fleet_scaling: %zu launches x %zu machines, %zu replicas, "
              "%zu waves x %zu requests\n",
              wl.tasks.size(), wl.machines.size(), opt.replicas, opt.waves,
              opt.requests);

  const std::size_t perReplicaShare =
      std::max<std::size_t>(1, opt.requests / opt.replicas);
  const auto single =
      runScenario(opt, wl, 1, /*gossip=*/false, perReplicaShare);
  const auto isolated =
      runScenario(opt, wl, opt.replicas, /*gossip=*/false, opt.requests);
  // Trace/metrics cover only the gossip scenario — the interesting one
  // (serve + adapt + fleet layers all active).
  if (!opt.tracePath.empty()) obs::traceRecorder().enable();
  const auto gossip = runScenario(opt, wl, opt.replicas, /*gossip=*/true,
                                  opt.requests, opt.metricsPath);
  if (!opt.tracePath.empty()) {
    obs::traceRecorder().disable();
    obs::traceRecorder().writeChromeTraceFile(opt.tracePath);
    std::printf("trace written to %s\n", opt.tracePath.c_str());
  }

  bench::TablePrinter table(
      {"scenario", "probes/replica", "probes total", "wins", "adopted",
       "steady us", "gossip KiB"});
  const auto row = [&](const char* name, const ScenarioResult& r) {
    table.addRow({name, bench::fmt(static_cast<double>(r.probesMax), 0),
                  bench::fmt(static_cast<double>(r.probesTotal), 0),
                  bench::fmt(static_cast<double>(r.winsLocal), 0),
                  bench::fmt(static_cast<double>(r.winsAdopted), 0),
                  bench::fmt(1e6 * r.steadyMeanSeconds, 2),
                  bench::fmt(static_cast<double>(r.gossipBytes) / 1024.0, 1)});
  };
  row("single", single);
  row("isolated", isolated);
  row("gossip", gossip);
  table.print();

  const double probeSavings =
      isolated.probesMax > 0
          ? 1.0 - static_cast<double>(gossip.probesMax) /
                      static_cast<double>(isolated.probesMax)
          : 0.0;
  std::printf("\ngossip vs isolated: %.0f%% fewer probes per replica; "
              "steady-state %.2fus (single-replica baseline %.2fus)\n",
              100.0 * probeSavings, 1e6 * gossip.steadyMeanSeconds,
              1e6 * single.steadyMeanSeconds);

  if (!opt.jsonPath.empty()) {
    bench::JsonObject json;
    json.set("bench", "fleet_scaling");
    json.setInt("replicas", opt.replicas);
    json.setInt("waves", opt.waves);
    json.setInt("requests_per_wave", opt.requests);
    json.setInt("distinct_launches", wl.distinctLaunches());
    json.setInt("probes_per_replica_single", single.probesMax);
    json.setInt("probes_per_replica_isolated", isolated.probesMax);
    json.setInt("probes_per_replica_gossip", gossip.probesMax);
    json.set("probe_savings_vs_isolated", probeSavings);
    json.setInt("wins_local_gossip", gossip.winsLocal);
    json.setInt("wins_adopted_gossip", gossip.winsAdopted);
    json.set("steady_us_single", 1e6 * single.steadyMeanSeconds);
    json.set("steady_us_isolated", 1e6 * isolated.steadyMeanSeconds);
    json.set("steady_us_gossip", 1e6 * gossip.steadyMeanSeconds);
    json.setInt("gossip_bytes", gossip.gossipBytes);
    json.setInt("gossip_messages", gossip.gossipMessages);
    bench::writeJson(opt.jsonPath, json);
    std::printf("wrote %s\n", opt.jsonPath.c_str());
  }
  return 0;
}
