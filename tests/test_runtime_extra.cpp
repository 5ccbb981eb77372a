// Runtime edge cases and failure injection: TaskBuilder misuse, Task
// validation, transfer amortization semantics, MergeSum combination with
// concurrent writers, and — crucially — that a *wrong* buffer access
// classification is caught by the bounds-checked views instead of
// producing silently wrong results.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "runtime/compiler.hpp"
#include "runtime/database.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/strategy.hpp"
#include "sim/machine.hpp"
#include "suite/benchmark.hpp"

namespace tp::runtime {
namespace {

const char* kCopySrc = R"(
__kernel void copy(__global const float* in, __global float* out, int n) {
  int i = get_global_id(0);
  if (i < n) {
    out[i] = in[i];
  }
}
)";

TEST(TaskBuilder, RejectsWrongArgumentKinds) {
  const auto compiled = CompiledKernel::compile(kCopySrc);
  auto buf = std::make_shared<vcl::Buffer>(vcl::ElemKind::F32, 64);
  // Scalar where a buffer is expected.
  EXPECT_THROW(TaskBuilder(compiled, "t").global(64).local(64).arg(1), Error);
  // Buffer where a scalar is expected.
  EXPECT_THROW(
      TaskBuilder(compiled, "t").global(64).local(64).arg(buf).arg(buf).arg(
          buf),
      Error);
  // Float where an int is expected.
  EXPECT_THROW(TaskBuilder(compiled, "t")
                   .global(64)
                   .local(64)
                   .arg(buf)
                   .arg(buf)
                   .arg(1.5f),
               Error);
}

TEST(TaskBuilder, RejectsWrongArgumentCount) {
  const auto compiled = CompiledKernel::compile(kCopySrc);
  auto buf = std::make_shared<vcl::Buffer>(vcl::ElemKind::F32, 64);
  // Too few.
  EXPECT_THROW(TaskBuilder(compiled, "t").global(64).local(64).arg(buf).build(),
               Error);
  // Too many.
  EXPECT_THROW(TaskBuilder(compiled, "t")
                   .global(64)
                   .local(64)
                   .arg(buf)
                   .arg(buf)
                   .arg(1)
                   .arg(2),
               Error);
}

TEST(TaskBuilder, RejectsInvalidAmortization) {
  const auto compiled = CompiledKernel::compile(kCopySrc);
  EXPECT_THROW(TaskBuilder(compiled, "t").transferAmortization(0.5), Error);
}

Task makeCopyTask(std::size_t n, double amortization = 1.0) {
  static const CompiledKernel compiled = CompiledKernel::compile(kCopySrc);
  auto in = std::make_shared<vcl::Buffer>(vcl::ElemKind::F32, n);
  auto out = std::make_shared<vcl::Buffer>(vcl::ElemKind::F32, n);
  for (std::size_t i = 0; i < n; ++i) {
    in->data<float>()[i] = static_cast<float>(i);
  }
  TaskBuilder builder(compiled, "copy");
  builder.global(n).local(64).arg(in).arg(out).arg(static_cast<int>(n));
  if (amortization != 1.0) builder.transferAmortization(amortization);
  return builder
      .native([](const vcl::WorkGroupCtx& wg, const vcl::LaunchArgs& a) {
        auto in = a.view<float>(0);
        auto out = a.view<float>(1);
        for (std::size_t l = 0; l < wg.localSize; ++l) {
          const std::size_t i = wg.globalId(l);
          out[i] = in[i];
        }
      })
      .build();
}

TEST(Task, ValidateCatchesMisalignedNDRange) {
  Task task = makeCopyTask(1 << 10);
  task.globalSize = 1000;  // not a multiple of 64
  EXPECT_THROW(task.validate(), Error);
  task.globalSize = 0;
  EXPECT_THROW(task.validate(), Error);
}

TEST(Task, TransferAmortizationScalesGpuTransfersOnly) {
  const auto space = PartitioningSpace(3, 10);
  const Task full = makeCopyTask(1 << 20, 1.0);
  const Task amortized = makeCopyTask(1 << 20, 10.0);

  vcl::Context ctx(sim::makeMc2(), vcl::ExecMode::TimeOnly, nullptr);
  Scheduler scheduler(ctx);
  const auto& gpuOnly = space.at(space.singleDeviceIndex(1));

  const auto rFull = scheduler.execute(full, gpuOnly);
  const auto rAmortized = scheduler.execute(amortized, gpuOnly);
  EXPECT_NEAR(rAmortized.devices[0].transferInSeconds,
              (rFull.devices[0].transferInSeconds -
               ctx.machine().devices[1].transferLatency) / 10.0 +
                  ctx.machine().devices[1].transferLatency,
              1e-4);
  // Kernel time itself is unaffected.
  EXPECT_DOUBLE_EQ(rAmortized.devices[0].kernelSeconds,
                   rFull.devices[0].kernelSeconds);
  // Amortization reflects in the runtime features, too.
  EXPECT_NEAR(amortized.totalBytesIn(), full.totalBytesIn() / 10.0, 1e-6);
}

TEST(Task, LaunchInfoMatchesBuffers) {
  const Task task = makeCopyTask(1 << 12);
  const auto info = task.launchInfo();
  EXPECT_EQ(info.globalSize, 1u << 12);
  EXPECT_EQ(info.localSize, 64u);
  EXPECT_DOUBLE_EQ(info.bytesToDevice, (1 << 12) * 4.0);    // in only
  EXPECT_DOUBLE_EQ(info.bytesFromDevice, (1 << 12) * 4.0);  // out only
  EXPECT_EQ(info.sizeBindings, &task.sizeBindings);  // refers, no copy
  EXPECT_DOUBLE_EQ(info.sizeBindings->at("n"), 4096.0);
}

// --- failure injection ------------------------------------------------------

TEST(FailureInjection, WrongSplitClassificationIsCaught) {
  // nbody-style kernel: every item reads the whole array. Force the buffer
  // to be (incorrectly) classified Split and run a mixed partitioning in
  // Compute mode: device 1's view must reject the out-of-slice read.
  Task task = makeCopyTask(1 << 10);
  // Sabotage: make the native kernel read outside its slice.
  task.native = [](const vcl::WorkGroupCtx& wg, const vcl::LaunchArgs& a) {
    auto in = a.view<float>(0);
    auto out = a.view<float>(1);
    for (std::size_t l = 0; l < wg.localSize; ++l) {
      const std::size_t i = wg.globalId(l);
      out[i] = in[(i + 512) % (1 << 10)];  // touches other slices
    }
  };
  vcl::Context ctx(sim::makeMc1(), vcl::ExecMode::Compute, nullptr);
  Scheduler scheduler(ctx);
  // Single device sees the whole buffer: fine.
  EXPECT_NO_THROW(
      scheduler.execute(task, Partitioning{{10, 0, 0}, 10}));
  // Split across devices: the stale classification must fail loudly.
  EXPECT_THROW(scheduler.execute(task, Partitioning{{5, 5, 0}, 10}), Error);
}

TEST(MergeSum, ConcurrentWritersCombineExactly) {
  // Histogram across all three devices must equal the single-device result.
  const auto& bench = suite::benchmarkByName("histogram");
  const std::size_t n = bench.sizes[1];

  auto single = bench.make(n);
  vcl::Context ctx1(sim::makeMc1(), vcl::ExecMode::Compute);
  Scheduler(ctx1).execute(single.task, Partitioning{{10, 0, 0}, 10});
  const auto expected =
      std::get<BufferArg>(single.task.args[1]).buffer->toVector<int>();

  auto split = bench.make(n);
  vcl::Context ctx2(sim::makeMc1(), vcl::ExecMode::Compute);
  Scheduler(ctx2).execute(split.task, Partitioning{{4, 3, 3}, 10});
  const auto actual =
      std::get<BufferArg>(split.task.args[1]).buffer->toVector<int>();

  EXPECT_EQ(actual, expected);
  std::string error;
  EXPECT_TRUE(split.verify(&error)) << error;
}

TEST(Scheduler, AnyPartitioningNeverBeatsOracle) {
  const auto space = PartitioningSpace(3, 10);
  const auto& bench = suite::benchmarkByName("md");
  auto inst = bench.make(bench.sizes[1]);
  std::vector<double> timings;
  const std::size_t best =
      oracleSearch(inst.task, sim::makeMc2(), space, &timings);
  for (std::size_t i = 0; i < space.size(); ++i) {
    EXPECT_GE(timings[i], timings[best]);
  }
}

TEST(Scheduler, MoreWorkNeverReducesMakespan) {
  vcl::Context ctx(sim::makeMc2(), vcl::ExecMode::TimeOnly, nullptr);
  Scheduler scheduler(ctx);
  const Partitioning p{{3, 4, 3}, 10};
  double prev = 0.0;
  for (const std::size_t n : {1u << 10, 1u << 12, 1u << 14, 1u << 16}) {
    const double t = scheduler.execute(makeCopyTask(n), p).makespan;
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(Database, RejectsMalformedRecords) {
  auto db = FeatureDatabase::withDefaultSchema(66);
  LaunchRecord rec;
  rec.program = "x";
  rec.machine = "mc1";
  rec.sizeLabel = "n=1";
  rec.staticFeatures.assign(3, 0.0);  // wrong arity
  rec.runtimeFeatures.assign(13, 0.0);
  rec.times.assign(66, 1.0);
  EXPECT_THROW(db.add(rec), Error);

  rec.staticFeatures.assign(15, 0.0);
  rec.times.assign(65, 1.0);  // wrong space size
  EXPECT_THROW(db.add(rec), Error);

  rec.times.assign(66, 1.0);
  EXPECT_NO_THROW(db.add(rec));
  EXPECT_EQ(db.size(), 1u);
}

TEST(Database, LoadCsvRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/bad_db.csv";
  {
    std::ofstream os(path);
    os << "program,machine,size,nonsense\nx,mc1,n=1,42\n";
  }
  EXPECT_THROW(FeatureDatabase::loadCsv(path), Error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tp::runtime
