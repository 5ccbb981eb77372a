// tp::serve under concurrent load, end to end:
//
//   1. Train a deployment model per machine on a slice of the suite.
//   2. Stand up one PartitionService holding both machines (mc1 + mc2).
//   3. Replay the suite's kernels at mixed problem sizes from closed-loop
//      client threads (each waits for its response before the next
//      request), against both machines at once.
//   4. Check the serving invariants: every decision equals the uncached
//      predict path, the warm cache hit-rate clears 50%, and retrain()
//      from the recorded traffic neither deadlocks nor corrupts stats.
//
// Build & run:  ./build/examples/serve_traffic
// Exits non-zero on any violated invariant (ctest smoke test).
//
// Observability flags (both optional; when either is given, a small
// fleet segment runs after the waves so the output covers serve, adapt
// and fleet spans):
//   --trace <path>    enable tp::obs tracing (1-in-4 warm-hit sampling)
//                     and write a Chrome trace-event JSON file on exit
//   --metrics <path>  register service stats on obs::defaultRegistry()
//                     and dump the JSON exposition on exit
//
// Health flags (any of them turns on per-machine SLO tracking plus the
// stock detector rules, evaluated four times after the waves):
//   --health              SLO tracking + health evaluation with a
//                         generous default p99 target (0.5s)
//   --slo-p99-us <us>     explicit p99 target in microseconds. Values
//                         below 1us are a SEEDED BREACH run: the example
//                         then asserts exactly one deduped latency_slo
//                         event (and, with a postmortem dir, exactly one
//                         bundle) — the ctest/CI smoke mode
//   --postmortem-dir <d>  attach an obs::FlightRecorder dumping
//                         postmortem bundles into <d> on breach (implies
//                         tracing, so bundles carry spans); a demand
//                         dump is written when no breach fired, so the
//                         validator always has a bundle to check

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "fleet/fleet.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/evaluation.hpp"
#include "serve/service.hpp"
#include "sim/machine.hpp"
#include "suite/benchmark.hpp"

using namespace tp;

namespace {

constexpr std::size_t kPrograms = 8;  ///< suite slice replayed as traffic
constexpr std::size_t kSizesPerProgram = 2;
constexpr std::size_t kClients = 4;
constexpr std::size_t kRequestsPerClient = 125;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FAILED: %s\n", what.c_str());
    ++failures;
  }
}

}  // namespace

int main(int argc, char** argv) {
  common::setLogLevel(common::LogLevel::Warn);

  std::string tracePath;
  std::string metricsPath;
  std::string postmortemDir;
  bool healthFlag = false;
  double sloP99Us = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      tracePath = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metricsPath = argv[++i];
    } else if (std::strcmp(argv[i], "--health") == 0) {
      healthFlag = true;
    } else if (std::strcmp(argv[i], "--slo-p99-us") == 0 && i + 1 < argc) {
      sloP99Us = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--postmortem-dir") == 0 && i + 1 < argc) {
      postmortemDir = argv[++i];
    } else {
      std::printf(
          "usage: %s [--trace out.json] [--metrics out.json] [--health] "
          "[--slo-p99-us N] [--postmortem-dir dir]\n",
          argv[0]);
      return 2;
    }
  }
  const bool healthMode =
      healthFlag || sloP99Us > 0.0 || !postmortemDir.empty();

  if (!tracePath.empty() || !postmortemDir.empty()) {
    obs::TraceRecorder::Config tc;
    tc.sampleEveryN = 4;  // keep warm-hit spans visible in a short run
    obs::traceRecorder().enable(tc);
  }

  const auto machines = sim::evaluationMachines();
  const runtime::PartitioningSpace space(machines[0].numDevices(), 10);

  // ---- workload + training phase ------------------------------------------
  // One task per (program, size); tasks are machine-independent and only
  // simulated (TimeOnly), so clients can replay shared instances.
  std::vector<runtime::Task> tasks;
  auto db = runtime::FeatureDatabase::withDefaultSchema(space.size());
  const auto& all = suite::allBenchmarks();
  for (std::size_t b = 0; b < kPrograms && b < all.size(); ++b) {
    const auto& bench = all[b];
    const std::size_t count =
        std::min(kSizesPerProgram, bench.sizes.size());
    for (std::size_t s = 0; s < count; ++s) {
      const std::size_t n = bench.sizes[s];
      auto inst = bench.make(n);
      for (const auto& machine : machines) {
        db.add(runtime::measureLaunch(inst.task, machine, space,
                                      "n=" + std::to_string(n)));
      }
      tasks.push_back(std::move(inst.task));
    }
  }
  std::printf("workload: %zu launches (%zu programs), %zu machines, "
              "%zu training records\n",
              tasks.size(), kPrograms, machines.size(), db.size());

  // ---- serving phase ------------------------------------------------------
  serve::ServiceConfig config;
  config.cacheCapacity = 256;
  config.retrainSpec = "forest:32";
  if (!metricsPath.empty() || healthMode) {
    // Health mode needs the registry regardless of --metrics: the SLO
    // gauges and any postmortem bundle's metrics section read from it.
    config.metrics = &obs::defaultRegistry();
  }
  if (healthMode) {
    config.slo.windowSeconds = 30.0;  // the whole run fits in the horizon
    config.slo.subWindows = 6;
    config.slo.minSamples = 50;
    config.slo.targetP99Seconds = sloP99Us > 0.0 ? sloP99Us * 1e-6 : 0.5;
  }
  serve::PartitionService service(config);
  for (const auto& machine : machines) {
    service.addMachine(
        machine, std::shared_ptr<const ml::Classifier>(
                     runtime::trainDeploymentModel(db, machine.name,
                                                   "forest:32")));
  }

  // Reference decisions from the uncached predict path.
  std::vector<std::vector<std::size_t>> expected(tasks.size());
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    for (const auto& machine : machines) {
      expected[t].push_back(service.predictLabel(machine.name, tasks[t]));
    }
  }

  std::atomic<std::uint64_t> mismatches{0};
  auto clientWave = [&](std::size_t numClients, std::size_t requestsEach,
                        std::uint64_t seed, bool checkExpected) {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < numClients; ++c) {
      clients.emplace_back([&, c] {
        common::Rng rng(seed + c);
        for (std::size_t r = 0; r < requestsEach; ++r) {
          const std::size_t t = rng.below(tasks.size());
          const std::size_t m = rng.below(machines.size());
          serve::LaunchRequest request;
          request.machine = machines[m].name;
          request.task = tasks[t];
          // submit() serves on this client thread; the future comes back
          // already resolved.
          auto response = service.submit(std::move(request)).get();
          if (checkExpected && response.label != expected[t][m]) {
            mismatches.fetch_add(1);
          }
          if (response.execution.makespan <= 0.0) mismatches.fetch_add(1);
        }
      });
    }
    for (auto& c : clients) c.join();
  };

  clientWave(kClients, kRequestsPerClient, 0xC0FFEE, true);

  const auto warm = service.stats();
  const std::uint64_t firstWave = kClients * kRequestsPerClient;
  std::printf("\nfirst wave: %llu requests, hit-rate %.1f%%, "
              "p50 %.0fus p95 %.0fus, %llu served on inline lanes\n",
              static_cast<unsigned long long>(warm.requestsCompleted),
              100.0 * warm.cacheHitRate, warm.latency.p50Seconds * 1e6,
              warm.latency.p95Seconds * 1e6,
              static_cast<unsigned long long>(warm.requestsInline));
  expect(warm.requestsSubmitted == firstWave, "all requests submitted");
  expect(warm.requestsCompleted == firstWave, "all requests completed");
  expect(warm.requestsFailed == 0, "no failed requests");
  expect(mismatches.load() == 0,
         "served decisions equal the uncached predict path");
  expect(warm.cacheHitRate > 0.5, "warm cache hit-rate > 50%");
  expect(warm.cache.hits + warm.cache.misses == warm.cache.lookups,
         "cache counters consistent");
  expect(warm.feedbackRecords > 0 &&
             warm.feedbackRecords <= tasks.size() * machines.size(),
         "feedback deduplicates replayed traffic");

  // ---- online feedback loop -----------------------------------------------
  const auto retrained = service.retrain();
  std::printf("retrain: %zu machines from %zu recorded launches → model "
              "version %llu\n",
              retrained.machinesRetrained, retrained.recordsUsed,
              static_cast<unsigned long long>(retrained.modelVersion));
  expect(retrained.machinesRetrained == machines.size(),
         "every machine retrained from recorded traffic");
  expect(retrained.modelVersion > 0, "cache version bumped");

  // Refresh the reference decisions (the model changed), then serve a
  // second wave through the invalidated cache.
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    for (std::size_t m = 0; m < machines.size(); ++m) {
      expected[t][m] = service.predictLabel(machines[m].name, tasks[t]);
    }
  }
  clientWave(kClients, kRequestsPerClient / 5, 0xBEEF, true);

  const auto fin = service.stats();
  const std::uint64_t total = firstWave + kClients * (kRequestsPerClient / 5);
  std::printf("after retrain: %llu total requests, hit-rate %.1f%%, "
              "model version %llu\n",
              static_cast<unsigned long long>(fin.requestsCompleted),
              100.0 * fin.cacheHitRate,
              static_cast<unsigned long long>(fin.modelVersion));
  expect(fin.requestsCompleted == total, "post-retrain requests completed");
  expect(fin.requestsFailed == 0, "no failures after retrain");
  expect(mismatches.load() == 0, "post-retrain decisions match new model");
  expect(fin.cache.hits + fin.cache.misses == fin.cache.lookups,
         "cache counters consistent after invalidation");
  expect(fin.modelVersion == retrained.modelVersion,
         "stats report the new model version");
  expect(fin.retrains == 1, "one retrain recorded");

  for (const auto& m : fin.machines) {
    std::printf("  %s: %llu requests, device utilization:", m.machine.c_str(),
                static_cast<unsigned long long>(m.requests));
    for (const auto& d : m.devices) {
      std::printf("  %s %.0f%%", d.device.c_str(), 100.0 * d.utilization);
    }
    std::printf("\n");
    expect(m.requests > 0, "both machines saw traffic");
  }

  // ---- health & postmortem segment ----------------------------------------
  // Four manual evaluation passes against the traffic just served: with
  // triggerAfter=2, a sustained breach emits its event on pass 2 and is
  // suppressed (deduped) on passes 3 and 4 — exactly one event, however
  // long the breach lasts.
  if (healthMode) {
    for (const auto& machine : machines) {
      const obs::SloTracker::Report r = service.sloReport(machine.name);
      std::printf("slo %s: %llu samples, p50 %.0fus p99 %.0fus "
                  "(target %.0fus), burn %.2fx%s\n",
                  machine.name.c_str(),
                  static_cast<unsigned long long>(r.count),
                  r.p50Seconds * 1e6, r.p99Seconds * 1e6,
                  config.slo.targetP99Seconds * 1e6, r.burnRateP99,
                  r.breached ? "  BREACHED" : "");
      expect(r.count > 0, "slo tracker saw the served traffic");
    }

    obs::HealthMonitor monitor;
    service.registerHealthRules(monitor);
    std::unique_ptr<obs::FlightRecorder> recorder;
    // Bundles persist across runs (sequence continuity is a recorder
    // feature), so the exactly-one-bundle check below must count new
    // sequences, not directory contents.
    std::uint64_t seqBefore = 0;
    if (!postmortemDir.empty()) {
      obs::FlightRecorderConfig frc;
      frc.dir = postmortemDir;
      frc.metrics = &obs::defaultRegistry();
      frc.trace = &obs::traceRecorder();
      frc.health = &monitor;
      recorder = std::make_unique<obs::FlightRecorder>(frc);
      seqBefore = recorder->highestSequence();
      recorder->attach();
    }
    std::size_t emitted = 0;
    for (int pass = 0; pass < 4; ++pass) emitted += monitor.evaluateOnce();
    const auto events = monitor.events();
    const obs::HealthCounters hc = monitor.counters();
    std::printf("health: %zu rules, 4 passes, %zu event(s), "
                "%llu suppressed firing(s)\n",
                monitor.ruleCount(), emitted,
                static_cast<unsigned long long>(hc.suppressedFirings));
    for (const auto& event : events) {
      std::printf("  [%s] %s: %s\n", obs::severityName(event.severity),
                  event.rule.c_str(), event.message.c_str());
    }

    if (sloP99Us > 0.0 && sloP99Us < 1.0) {
      // Seeded breach: a sub-microsecond p99 target is unservable, so
      // the latency SLO must breach — and dedup must keep it to ONE
      // event and ONE bundle across all four passes.
      std::size_t breachEvents = 0;
      for (const auto& event : events) {
        if (!event.cleared && event.rule == config.metricsPrefix +
                                                "latency_slo") {
          ++breachEvents;
        }
      }
      expect(breachEvents == 1,
             "seeded SLO breach emits exactly one deduped event");
      expect(hc.suppressedFirings >= 1,
             "sustained breach is suppressed, not re-emitted");
      if (recorder != nullptr) {
        expect(recorder->highestSequence() == seqBefore + 1,
               "one breach event -> exactly one new postmortem bundle");
      }
    }
    if (recorder != nullptr) {
      if (recorder->bundleCount() == 0) {
        recorder->dump("on-demand");  // healthy run: validator still gets one
      }
      std::printf("postmortem bundle(s): %zu in %s (latest %s)\n",
                  recorder->bundleCount(), recorder->dir().c_str(),
                  recorder->pathFor(recorder->highestSequence()).c_str());
    }
    // The rules capture the service; drop them before anything outlives
    // this scope (the monitor is scoped, but be explicit about intent).
    monitor.removeRulesByPrefix("");
  }

  // ---- observability segment ----------------------------------------------
  // Only with --trace/--metrics: run a small refine-enabled fleet so the
  // emitted trace covers all three layers (serve.*, adapt.*, fleet.*),
  // then dump the requested artifacts. The default ctest smoke run skips
  // this block entirely.
  if (!tracePath.empty() || !metricsPath.empty()) {
    const std::string snapDir =
        (std::filesystem::temp_directory_path() /
         ("tp_serve_traffic_obs_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(snapDir);
    {
      fleet::FleetConfig fc;
      fc.replicas = 2;
      fc.service = config;
      fc.service.refine = true;  // exercises adapt.probe / adapt.win
      fc.snapshotDir = snapDir;
      fleet::Fleet fleet(fc);
      for (const auto& machine : machines) {
        fleet.addMachine(
            machine, std::shared_ptr<const ml::Classifier>(
                         runtime::trainDeploymentModel(db, machine.name,
                                                       "forest:32")));
      }
      common::Rng rng(0xD15C0);
      for (std::size_t r = 0; r < 200; ++r) {
        serve::LaunchRequest request;
        request.machine = machines[rng.below(machines.size())].name;
        request.task = tasks[rng.below(tasks.size())];
        (void)fleet.replica(r % 2).call(std::move(request));
      }
      fleet.gossipRound();
      fleet.saveSnapshots();
      fleet.replica(0).warmStart();  // fleet.snapshot_load span
      fleet.drainAll();
    }
    std::filesystem::remove_all(snapDir);

    if (!tracePath.empty()) {
      obs::traceRecorder().disable();
      obs::traceRecorder().writeChromeTraceFile(tracePath);
      std::printf("\ntrace written to %s\n", tracePath.c_str());
    }
    if (!metricsPath.empty()) {
      std::ofstream out(metricsPath);
      out << obs::defaultRegistry().exportJson() << "\n";
      std::printf("metrics written to %s\n", metricsPath.c_str());
    }
  }

  service.shutdown();
  if (failures == 0) {
    std::printf("\nserve_traffic OK: %llu requests served, %zu retrains, "
                "0 mismatches\n",
                static_cast<unsigned long long>(total),
                static_cast<std::size_t>(fin.retrains));
    return 0;
  }
  std::printf("\nserve_traffic FAILED: %d violated invariant(s)\n", failures);
  return 1;
}
