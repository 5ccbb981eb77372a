#include "fixture.hpp"

#include "common/error.hpp"
#include "obs/clock.hpp"
#include "runtime/evaluation.hpp"
#include "suite/benchmark.hpp"

namespace perfbench {

using namespace tp;

namespace {

constexpr std::size_t kRungs = 6;

double bufferBytes(const runtime::Task& task) {
  double bytes = 0.0;
  for (const auto& arg : task.args) {
    if (const auto* buf = std::get_if<runtime::BufferArg>(&arg)) {
      bytes += static_cast<double>(buf->buffer->bytes());
    }
  }
  return bytes;
}

}  // namespace

Fixture buildFixture() {
  Fixture fx;
  fx.machines = sim::evaluationMachines();
  fx.space = runtime::PartitioningSpace(fx.machines[0].numDevices(), 10);
  auto trainDb = runtime::FeatureDatabase::withDefaultSchema(fx.space.size());

  for (const auto& bench : suite::allBenchmarks()) {
    TP_REQUIRE(bench.sizes.size() == kRungs,
               "perfbench: " << bench.name << " has " << bench.sizes.size()
                             << " size rungs, expected " << kRungs);
    for (std::size_t rung = 0; rung < kRungs; ++rung) {
      const std::size_t n = bench.sizes[rung];
      auto t0 = obs::nowTicks();
      auto instance = bench.make(n);
      fx.makeSeconds += obs::secondsBetween(t0, obs::nowTicks());

      const bool served = rung % 2 == 1;
      const std::string sizeLabel = "n=" + std::to_string(n);
      for (std::size_t m = 0; m < fx.machines.size(); ++m) {
        t0 = obs::nowTicks();
        auto record = runtime::measureLaunch(instance.task, fx.machines[m],
                                             fx.space, sizeLabel);
        fx.sweepSeconds += obs::secondsBetween(t0, obs::nowTicks());
        ++fx.sweepLaunches;
        if (served) {
          fx.launches.push_back(Launch{fx.tasks.size(), m, std::move(record)});
        } else {
          trainDb.add(std::move(record));
        }
      }
      if (served) {
        fx.inputBytes += bufferBytes(instance.task);
        fx.tasks.push_back(std::move(instance.task));
      }
    }
  }

  const auto t0 = obs::nowTicks();
  for (const auto& machine : fx.machines) {
    fx.models.push_back(runtime::trainDeploymentModel(trainDb, machine.name,
                                                      kModelSpec));
  }
  fx.trainSeconds = obs::secondsBetween(t0, obs::nowTicks());
  return fx;
}

}  // namespace perfbench
