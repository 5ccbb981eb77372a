// Scheduler tests: simulated-timeline properties (concurrency, transfer
// accounting, merge cost), reentrancy of one shared scheduler, and
// Compute-mode execution through the full TaskBuilder path, including
// slice enforcement.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/compiler.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/strategy.hpp"
#include "sim/machine.hpp"

namespace tp::runtime {
namespace {

const char* kScaleSrc = R"(
__kernel void scale(__global const float* in, __global float* out, int K) {
  int i = get_global_id(0);
  float x = in[i];
  float acc = 0.0f;
  for (int k = 0; k < K; k++) {
    acc += x * 1.0001f;
  }
  out[i] = acc;
}
)";

Task makeScaleTask(std::size_t n, int k) {
  static const CompiledKernel compiled = CompiledKernel::compile(kScaleSrc);
  auto in = std::make_shared<vcl::Buffer>(vcl::ElemKind::F32, n);
  auto out = std::make_shared<vcl::Buffer>(vcl::ElemKind::F32, n);
  for (std::size_t i = 0; i < n; ++i) {
    in->data<float>()[i] = static_cast<float>(i % 17) * 0.25f;
  }
  return TaskBuilder(compiled, "scale")
      .global(n)
      .local(64)
      .arg(in)
      .arg(out)
      .arg(k)
      .native([](const vcl::WorkGroupCtx& wg, const vcl::LaunchArgs& args) {
        auto in = args.view<float>(0);
        auto out = args.view<float>(1);
        const int k = args.scalarInt(2);
        for (std::size_t l = 0; l < wg.localSize; ++l) {
          const std::size_t i = wg.globalId(l);
          const float x = in[i];
          float acc = 0.0f;
          for (int kk = 0; kk < k; ++kk) acc += x * 1.0001f;
          out[i] = acc;
        }
      })
      .build();
}

PartitioningSpace space3() { return PartitioningSpace(3, 10); }

TEST(Scheduler, ChunksTileTheRangeInDeviceOrder) {
  // For every partitioning and group counts that no 10% share divides
  // (1 and 2 are fewer groups than active devices), the executed chunks
  // are contiguous in device order, cover exactly [0, totalGroups), give
  // each device its apportion() count and leave zero-share devices out.
  vcl::Context ctx(sim::makeMc1(), vcl::ExecMode::TimeOnly, nullptr);
  Scheduler scheduler(ctx);
  const auto space = space3();
  for (const std::size_t totalGroups :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}, std::size_t{13},
        std::size_t{999}}) {
    const Task task = makeScaleTask(totalGroups * 64, 1);
    for (const auto& p : space.all()) {
      std::vector<std::size_t> counts(p.numDevices());
      apportion(totalGroups, p, counts);
      const auto result = scheduler.execute(task, p);
      std::size_t cursor = 0;
      std::size_t next = 0;  // lowest device index still allowed
      for (const auto& dev : result.devices) {
        ASSERT_GE(dev.device, next) << p.toString();
        EXPECT_GT(p.units[dev.device], 0) << p.toString();
        EXPECT_EQ(dev.groupBegin, cursor) << p.toString();
        EXPECT_EQ(dev.groupEnd - dev.groupBegin, counts[dev.device])
            << p.toString();
        cursor = dev.groupEnd;
        next = dev.device + 1;
      }
      EXPECT_EQ(cursor, totalGroups) << p.toString();
      const int maxUnits = *std::max_element(p.units.begin(), p.units.end());
      if (totalGroups * static_cast<std::size_t>(maxUnits) <
          static_cast<std::size_t>(p.divisions)) {
        // Every exact share is below one group (4/3/3 with 1 or 2 groups):
        // nobody gets a partial group, so the scarce groups go one each.
        EXPECT_EQ(result.devices.size(), totalGroups) << p.toString();
      }
    }
  }
}

TEST(Scheduler, SingleDeviceMakespanMatchesQueueTime) {
  vcl::Context ctx(sim::makeMc1(), vcl::ExecMode::TimeOnly, nullptr);
  Scheduler scheduler(ctx);
  const Task task = makeScaleTask(1 << 16, 200);
  const auto space = space3();

  const auto result = scheduler.execute(task, space.at(space.cpuOnlyIndex()));
  ASSERT_EQ(result.devices.size(), 1u);
  const auto& d = result.devices[0];
  EXPECT_EQ(d.device, 0u);
  EXPECT_DOUBLE_EQ(result.makespan, d.endTime);
  // The device's timeline is its phases summed in enqueue order.
  EXPECT_EQ(d.endTime,
            d.transferInSeconds + d.kernelSeconds + d.transferOutSeconds);
  EXPECT_DOUBLE_EQ(result.mergeSeconds, 0.0);
}

TEST(Scheduler, DevicesRunConcurrently) {
  vcl::Context ctx(sim::makeMc2(), vcl::ExecMode::TimeOnly, nullptr);
  Scheduler scheduler(ctx);
  const Task task = makeScaleTask(1 << 20, 2000);
  const auto space = space3();

  const double gpuOnly =
      scheduler.execute(task, space.at(space.singleDeviceIndex(1))).makespan;
  const double split =
      scheduler.execute(task, space.at(space.indexOf({{0, 5, 5}, 10})))
          .makespan;
  // Two GPUs each doing half of a saturated compute problem beat one GPU.
  EXPECT_LT(split, gpuOnly);
  EXPECT_GT(split, 0.4 * gpuOnly);
}

TEST(Scheduler, MakespanIsMaxOfDeviceEndTimes) {
  vcl::Context ctx(sim::makeMc1(), vcl::ExecMode::TimeOnly, nullptr);
  Scheduler scheduler(ctx);
  const Task task = makeScaleTask(1 << 18, 500);
  const auto result =
      scheduler.execute(task, Partitioning{{2, 4, 4}, 10});
  ASSERT_EQ(result.devices.size(), 3u);
  double maxEnd = 0.0;
  for (const auto& d : result.devices) maxEnd = std::max(maxEnd, d.endTime);
  EXPECT_DOUBLE_EQ(result.makespan, maxEnd + result.mergeSeconds);
}

TEST(Scheduler, SplitBuffersTransferOnlyTheirSlice) {
  vcl::Context ctx(sim::makeMc2(), vcl::ExecMode::TimeOnly, nullptr);
  Scheduler scheduler(ctx);
  const Task task = makeScaleTask(1 << 20, 10);
  const auto space = space3();

  // 10% on GPU1 vs 100% on GPU1: the transfer-in time scales with the slice.
  const auto small =
      scheduler.execute(task, space.at(space.indexOf({{9, 1, 0}, 10})));
  const auto full =
      scheduler.execute(task, space.at(space.singleDeviceIndex(1)));
  const auto* gpuSmall = &small.devices[1];
  ASSERT_EQ(gpuSmall->device, 1u);
  EXPECT_NEAR(gpuSmall->transferInSeconds,
              full.devices[0].transferInSeconds * 0.1, 2e-5);
}

TEST(Scheduler, ConcurrentExecuteOnOneSchedulerMatchesSerial) {
  // One scheduler (and context) shared by every thread, as a serving
  // machine shares it: each execute() must see only its own timeline, so
  // every concurrent result is bit-identical to the serial one.
  vcl::Context ctx(sim::makeMc2(), vcl::ExecMode::TimeOnly, nullptr);
  Scheduler scheduler(ctx);
  const auto space = space3();
  std::vector<Task> tasks;
  for (const auto& [n, k] : {std::pair<std::size_t, int>{1 << 10, 10},
                             std::pair<std::size_t, int>{1 << 16, 200},
                             std::pair<std::size_t, int>{1 << 20, 2000}}) {
    tasks.push_back(makeScaleTask(n, k));
  }
  struct Job {
    const Task* task;
    std::size_t label;
  };
  std::vector<Job> jobs;
  std::vector<ExecutionResult> serial;
  for (const Task& task : tasks) {
    for (std::size_t label = 0; label < space.size(); ++label) {
      jobs.push_back({&task, label});
      serial.push_back(scheduler.execute(task, space.at(label)));
    }
  }

  constexpr std::size_t kThreads = 4;
  constexpr int kRounds = 20;
  std::atomic<std::size_t> ready{0};
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int round = 0; round < kRounds; ++round) {
        // Each thread walks the jobs from its own offset, so concurrent
        // executions run different tasks and labels.
        for (std::size_t i = 0; i < jobs.size(); ++i) {
          const std::size_t j = (i + t * jobs.size() / kThreads) % jobs.size();
          const ExecutionResult r =
              scheduler.execute(*jobs[j].task, space.at(jobs[j].label));
          bool same = r.makespan == serial[j].makespan &&
                      r.devices.size() == serial[j].devices.size();
          for (std::size_t d = 0; same && d < r.devices.size(); ++d) {
            same = r.devices[d].endTime == serial[j].devices[d].endTime;
          }
          if (!same) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(Scheduler, ConcurrentCopiesOfOneTaskExecuteIdentically) {
  // Copies of a Task share one compiled feature payload. Eight threads
  // copy, execute and drop copies of one task at once; every result must
  // be bit-identical to the serial one.
  vcl::Context ctx(sim::makeMc1(), vcl::ExecMode::TimeOnly, nullptr);
  Scheduler scheduler(ctx);
  const auto space = space3();
  const Task task = makeScaleTask(1 << 14, 300);
  std::vector<ExecutionResult> serial;
  for (std::size_t label = 0; label < space.size(); ++label) {
    serial.push_back(scheduler.execute(task, space.at(label)));
  }

  constexpr std::size_t kThreads = 8;
  std::atomic<std::size_t> ready{0};
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int round = 0; round < 10; ++round) {
        for (std::size_t label = 0; label < space.size(); ++label) {
          const Task copy = task;
          const ExecutionResult r = scheduler.execute(copy, space.at(label));
          bool same = r.makespan == serial[label].makespan &&
                      r.devices.size() == serial[label].devices.size();
          for (std::size_t d = 0; same && d < r.devices.size(); ++d) {
            same = r.devices[d].kernelSeconds ==
                   serial[label].devices[d].kernelSeconds;
          }
          if (!same) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(Scheduler, RejectsMismatchedPartitioning) {
  vcl::Context ctx(sim::makeMc1(), vcl::ExecMode::TimeOnly, nullptr);
  Scheduler scheduler(ctx);
  const Task task = makeScaleTask(1 << 10, 10);
  EXPECT_THROW(scheduler.execute(task, Partitioning{{10, 0}, 10}), Error);
}

TEST(Scheduler, ComputeModeProducesCorrectResultsUnderAnySplit) {
  const auto space = space3();
  for (const auto& units : {std::vector<int>{10, 0, 0},
                            std::vector<int>{0, 10, 0},
                            std::vector<int>{3, 3, 4},
                            std::vector<int>{1, 9, 0}}) {
    vcl::Context ctx(sim::makeMc1(), vcl::ExecMode::Compute);
    Scheduler scheduler(ctx);
    const std::size_t n = 1 << 12;
    const int k = 3;
    Task task = makeScaleTask(n, k);
    scheduler.execute(task, Partitioning{units, 10});

    const auto& out = std::get<BufferArg>(task.args[1]).buffer;
    const auto& in = std::get<BufferArg>(task.args[0]).buffer;
    for (std::size_t i = 0; i < n; ++i) {
      const float x = in->data<float>()[i];
      float acc = 0.0f;
      for (int kk = 0; kk < k; ++kk) acc += x * 1.0001f;
      ASSERT_FLOAT_EQ(out->data<float>()[i], acc) << "at index " << i;
    }
  }
}

TEST(Scheduler, TimeOnlyAndComputeReportIdenticalMakespans) {
  const Task t1 = makeScaleTask(1 << 12, 20);
  vcl::Context timeCtx(sim::makeMc2(), vcl::ExecMode::TimeOnly, nullptr);
  vcl::Context computeCtx(sim::makeMc2(), vcl::ExecMode::Compute);
  const Partitioning p{{3, 4, 3}, 10};
  const double tTime = Scheduler(timeCtx).execute(t1, p).makespan;
  const double tCompute = Scheduler(computeCtx).execute(t1, p).makespan;
  EXPECT_DOUBLE_EQ(tTime, tCompute);
}

TEST(OracleSearch, FindsArgminOfTimings) {
  const Task task = makeScaleTask(1 << 16, 100);
  const auto space = space3();
  std::vector<double> timings;
  const std::size_t best =
      oracleSearch(task, sim::makeMc2(), space, &timings);
  ASSERT_EQ(timings.size(), space.size());
  for (const double t : timings) EXPECT_GT(t, 0.0);
  for (std::size_t i = 0; i < timings.size(); ++i) {
    EXPECT_LE(timings[best], timings[i]);
  }
}

TEST(Strategies, DefaultsPickTheirCorners) {
  vcl::Context ctx(sim::makeMc1(), vcl::ExecMode::TimeOnly, nullptr);
  const auto space = space3();
  const Task task = makeScaleTask(1 << 10, 10);

  CpuOnlyStrategy cpu;
  EXPECT_EQ(cpu.choose(task, ctx, space), space.cpuOnlyIndex());
  GpuOnlyStrategy gpu;
  EXPECT_EQ(gpu.choose(task, ctx, space), space.singleDeviceIndex(1));
  StaticStrategy fixed(17);
  EXPECT_EQ(fixed.choose(task, ctx, space), 17u);
  OracleStrategy oracle;
  const std::size_t best = oracle.choose(task, ctx, space);
  EXPECT_LT(best, space.size());
}

}  // namespace
}  // namespace tp::runtime
