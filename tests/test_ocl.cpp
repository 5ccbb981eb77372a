// vcl (virtual OpenCL) layer tests: buffers and their lazy storage,
// bounds-checked views, atomic view operations, launch-argument typing,
// stateless simulated queues, and work-group geometry.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "ocl/buffer.hpp"
#include "ocl/context.hpp"
#include "ocl/kernel.hpp"
#include "ocl/queue.hpp"
#include "ocl/view.hpp"
#include "runtime/evaluation.hpp"
#include "runtime/scheduler.hpp"
#include "sim/machine.hpp"
#include "suite/benchmark.hpp"

namespace tp::vcl {
namespace {

TEST(Buffer, TypedAccessAndFill) {
  Buffer buf(ElemKind::F32, 16);
  EXPECT_EQ(buf.size(), 16u);
  EXPECT_EQ(buf.bytes(), 64u);
  std::vector<float> values(16);
  for (std::size_t i = 0; i < 16; ++i) values[i] = static_cast<float>(i);
  buf.fill(values);
  EXPECT_FLOAT_EQ(buf.at<float>(7), 7.0f);
  EXPECT_EQ(buf.toVector<float>(), values);
  buf.zero();
  EXPECT_FLOAT_EQ(buf.at<float>(7), 0.0f);
}

TEST(Buffer, FillSizeMismatchThrows) {
  Buffer buf(ElemKind::I32, 4);
  EXPECT_THROW(buf.fill(std::vector<int>{1, 2, 3}), Error);
}

TEST(Buffer, IntAndUnsignedKinds) {
  Buffer bi(ElemKind::I32, 2);
  bi.at<int>(0) = -5;
  EXPECT_EQ(bi.at<int>(0), -5);
  Buffer bu(ElemKind::U32, 2);
  bu.at<unsigned>(1) = 7u;
  EXPECT_EQ(bu.at<unsigned>(1), 7u);
}

TEST(Buffer, StorageAppearsOnFirstDataAccessFromTheGenerator) {
  int runs = 0;
  const Buffer buf(ElemKind::I32, 4, [&runs](void* storage) {
    ++runs;
    int* out = static_cast<int*>(storage);
    for (int i = 0; i < 4; ++i) out[i] = 10 * i;
  });
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.bytes(), 16u);
  EXPECT_EQ(buf.kind(), ElemKind::I32);
  EXPECT_FALSE(buf.materialized());
  EXPECT_EQ(buf.pristine<int>(), (std::vector<int>{0, 10, 20, 30}));
  EXPECT_FALSE(buf.materialized()) << "pristine() must not materialize";
  EXPECT_EQ(buf.at<int>(3), 30);
  EXPECT_TRUE(buf.materialized());
  EXPECT_EQ(runs, 2);  // one pristine() copy + one materialization
  EXPECT_EQ(buf.toVector<int>(), (std::vector<int>{0, 10, 20, 30}));
  EXPECT_EQ(runs, 2);

  Buffer plain(ElemKind::F32, 3);
  EXPECT_EQ(plain.pristine<float>(), std::vector<float>(3, 0.0f));
  plain.zero();
  EXPECT_TRUE(plain.materialized());
}

// (b) Threads racing on the first access run the generator once and all see
// the same storage.
TEST(Buffer, RacingFirstAccessMaterializesOnce) {
  constexpr std::size_t kElems = 1u << 16;
  constexpr int kThreads = 8;
  std::atomic<int> runs{0};
  Buffer buf(ElemKind::F32, kElems, [&runs](void* storage) {
    runs.fetch_add(1, std::memory_order_relaxed);
    float* out = static_cast<float*>(storage);
    for (std::size_t i = 0; i < kElems; ++i) {
      out[i] = static_cast<float>(i % 251) * 0.5f;
    }
  });
  std::atomic<bool> go{false};
  std::vector<const float*> seen(kThreads, nullptr);
  std::vector<std::vector<float>> copies(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const float* p = buf.data<float>();
      seen[static_cast<std::size_t>(t)] = p;
      copies[static_cast<std::size_t>(t)].assign(p, p + kElems);
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  EXPECT_EQ(runs.load(), 1);
  EXPECT_TRUE(buf.materialized());
  const std::vector<float> expected = buf.pristine<float>();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], seen[0]) << "thread " << t;
    EXPECT_EQ(copies[static_cast<std::size_t>(t)], expected) << "thread " << t;
  }
}

// (a) Timing reads only sizes: a TimeOnly run of every suite instance, on
// both machines, under a mixed partitioning and under the whole training
// sweep, leaves every input without storage.
TEST(Buffer, TimeOnlyExecutionNeverMaterializesSuiteInputs) {
  const runtime::PartitioningSpace space(3, 10);
  for (const auto& machine : {sim::makeMc1(), sim::makeMc2()}) {
    const Context ctx(machine, ExecMode::TimeOnly, nullptr);
    const runtime::Scheduler scheduler(ctx);
    for (const auto& bench : suite::allBenchmarks()) {
      const suite::BenchmarkInstance inst = bench.make(bench.sizes.front());
      EXPECT_GT(scheduler.execute(inst.task, {{4, 3, 3}, 10}).makespan, 0.0);
      runtime::measureLaunch(inst.task, machine, space, "s0");
      for (const auto& arg : inst.task.args) {
        if (const auto* b = std::get_if<runtime::BufferArg>(&arg)) {
          EXPECT_FALSE(b->buffer->materialized())
              << bench.name << " on " << machine.name;
        }
      }
    }
  }
}

// (c) verify() needs the creation-time inputs even after a kernel updated
// one in place: saxpy overwrites y, and the regenerated reference is still
// the y a fresh instance starts with.
TEST(Buffer, PristineIsTheCreationTimeContentsAfterAnInPlaceUpdate) {
  const auto& saxpy = suite::benchmarkByName("saxpy");
  const std::size_t n = saxpy.sizes.front();
  const suite::BenchmarkInstance run = saxpy.make(n);
  const suite::BenchmarkInstance fresh = saxpy.make(n);
  const auto yOf = [](const suite::BenchmarkInstance& inst) {
    return std::get<runtime::BufferArg>(inst.task.args[1]).buffer;
  };
  const auto y = yOf(run);
  const std::vector<float> y0 = yOf(fresh)->toVector<float>();

  const Context ctx(sim::makeMc1(), ExecMode::Compute);
  runtime::Scheduler(ctx).execute(run.task, {{4, 3, 3}, 10});
  ASSERT_NE(y->toVector<float>(), y0) << "saxpy must update y in place";
  EXPECT_EQ(y->pristine<float>(), y0);
  std::string error;
  EXPECT_TRUE(run.verify(&error)) << error;
}

TEST(BufferView, AbsoluteIndexingWithinSlice) {
  std::vector<float> storage(100, 0.0f);
  BufferView<float> view(storage.data(), 40, 20);  // [40, 60)
  view[40] = 1.5f;
  view[59] = 2.5f;
  EXPECT_FLOAT_EQ(storage[40], 1.5f);
  EXPECT_FLOAT_EQ(storage[59], 2.5f);
  EXPECT_FLOAT_EQ(view.load(40), 1.5f);
}

TEST(BufferView, OutOfSliceAccessThrows) {
  std::vector<float> storage(100, 0.0f);
  BufferView<float> view(storage.data(), 40, 20);
  EXPECT_THROW(view[39], Error);
  EXPECT_THROW(view[60], Error);
  EXPECT_THROW(view[0], Error);
  EXPECT_NO_THROW(view[40]);
  EXPECT_NO_THROW(view[59]);
}

TEST(BufferView, AtomicAddIsAtomicUnderContention) {
  std::vector<int> storage(4, 0);
  BufferView<int> view(storage.data(), 0, 4);
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&view] {
      for (int i = 0; i < kIncrements; ++i) view.atomicAdd(2, 1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(storage[2], kThreads * kIncrements);
}

TEST(LaunchArgs, TypedSlots) {
  std::vector<float> f(8);
  std::vector<int> i(8);
  std::vector<unsigned> u(4);
  LaunchArgs args;
  args.addView(BufferView<float>(f.data(), 0, 8));
  args.addView(BufferView<int>(i.data(), 0, 8));
  args.addScalar(42);
  args.addScalar(2.5f);
  args.addView(BufferView<unsigned>(u.data(), 0, 4));
  EXPECT_EQ(args.size(), 5u);
  EXPECT_EQ(args.view<float>(0).count(), 8u);
  EXPECT_EQ(args.view<int>(1).count(), 8u);
  EXPECT_EQ(args.scalarInt(2), 42);
  EXPECT_FLOAT_EQ(args.scalarFloat(3), 2.5f);
  EXPECT_EQ(args.view<unsigned>(4).count(), 4u);
}

TEST(WorkGroupCtx, GlobalIdGeometry) {
  WorkGroupCtx ctx;
  ctx.groupId = 5;
  ctx.localSize = 64;
  ctx.globalSize = 1024;
  ctx.numGroups = 16;
  EXPECT_EQ(ctx.globalId(0), 320u);
  EXPECT_EQ(ctx.globalId(63), 383u);
}

features::LaunchCounts trivialCounts() {
  features::KernelCounts c;
  c.floatOps = ir::WorkExpr::constant(10.0);
  c.globalLoads = ir::WorkExpr::constant(1.0);
  c.globalStores = ir::WorkExpr::constant(1.0);
  return features::KernelFeatures(std::move(c)).evaluate({}, 0);
}

TEST(CommandQueue, EnqueueReturnsThePhaseSecondsAndKeepsNoClock) {
  const auto machine = sim::makeMc2();
  const sim::DeviceModel& device = machine.devices[1];
  const CommandQueue queue(device, ExecMode::TimeOnly, nullptr);

  // Transfers cost exactly the device model's time, however often and in
  // whatever order they are enqueued: there is no timeline to advance.
  const double w = queue.enqueueWrite(1e6);
  EXPECT_EQ(w, device.transferTime(1e6));
  EXPECT_GT(w, 0.0);
  EXPECT_EQ(queue.enqueueRead(1e6), device.transferTime(1e6));
  EXPECT_EQ(queue.enqueueWrite(1e6), w);
  EXPECT_EQ(queue.enqueueRead(4e6), device.transferTime(4e6));

  WorkGroupCtx ctx;
  ctx.localSize = 64;
  ctx.globalSize = 4096;
  ctx.numGroups = 64;
  const double k = queue.enqueueKernel(trivialCounts(), 0, 64, ctx,
                                       nullptr, LaunchArgs{});
  EXPECT_GT(k, 0.0);
  EXPECT_EQ(queue.enqueueKernel(trivialCounts(), 0, 64, ctx, nullptr,
                                LaunchArgs{}),
            k);
}

TEST(CommandQueue, EmptyChunkCostsNothing) {
  const auto machine = sim::makeMc1();
  CommandQueue queue(machine.devices[0], ExecMode::TimeOnly, nullptr);
  WorkGroupCtx ctx;
  ctx.localSize = 64;
  ctx.globalSize = 1024;
  ctx.numGroups = 16;
  EXPECT_EQ(queue.enqueueKernel(trivialCounts(), 4, 4, ctx, nullptr,
                                LaunchArgs{}),
            0.0);
}

TEST(CommandQueue, ComputeModeExecutesEachGroupExactlyOnce) {
  const auto machine = sim::makeMc1();
  common::ThreadPool pool(4);
  CommandQueue queue(machine.devices[0], ExecMode::Compute, &pool);

  std::vector<std::atomic<int>> hits(16);
  WorkGroupCtx ctx;
  ctx.localSize = 64;
  ctx.globalSize = 1024;
  ctx.numGroups = 16;
  const NativeKernel kernel = [&hits](const WorkGroupCtx& wg,
                                      const LaunchArgs&) {
    hits[wg.groupId]++;
  };
  queue.enqueueKernel(trivialCounts(), 3, 11, ctx, kernel,
                      LaunchArgs{});
  for (std::size_t g = 0; g < 16; ++g) {
    EXPECT_EQ(hits[g].load(), (g >= 3 && g < 11) ? 1 : 0) << "group " << g;
  }
}

TEST(Context, OneStatelessQueuePerDevice) {
  const auto machine = sim::makeMc1();
  const Context ctx(machine, ExecMode::TimeOnly, nullptr);
  EXPECT_EQ(ctx.numDevices(), 3u);
  EXPECT_EQ(ctx.mode(), ExecMode::TimeOnly);
  for (std::size_t d = 0; d < ctx.numDevices(); ++d) {
    // Each queue costs with its own device's model.
    EXPECT_EQ(ctx.queue(d).device().name, machine.devices[d].name);
    EXPECT_EQ(ctx.queue(d).enqueueWrite(1e6),
              machine.devices[d].transferTime(1e6));
  }
}

}  // namespace
}  // namespace tp::vcl
