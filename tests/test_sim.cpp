// Device-model tests: time monotonicity, utilization behaviour, transfer
// accounting, and the machine-level properties the paper's evaluation
// depends on (mc1's VLIW GPU weak on untuned code, mc2's Fermi strong).

#include <gtest/gtest.h>

#include "features/static_features.hpp"
#include "frontend/parser.hpp"
#include "sim/machine.hpp"

namespace tp::sim {
namespace {

features::KernelFeatures featuresOf(const char* src) {
  const auto kernel = frontend::parseSingleKernel(src);
  return features::extractFeatures(*kernel);
}

/// `d`'s time for `items` work items of `f` under `bind`, in work-groups
/// of 64 (no kernel here reads get_global_size).
double kernelTime(const DeviceModel& d, const features::KernelFeatures& f,
                  const std::map<std::string, double>& bind, double items) {
  return d.kernelTime(f.evaluate(bind, 0), items, 64.0);
}

const char* kStreamingKernel = R"(
__kernel void stream(__global const float* a, __global float* b, int n) {
  int i = get_global_id(0);
  b[i] = a[i] * 2.0f;
}
)";

const char* kComputeKernel = R"(
__kernel void heavy(__global const float* a, __global float* b, int K) {
  int i = get_global_id(0);
  float x = a[i];
  float acc = 0.0f;
  for (int k = 0; k < K; k++) {
    acc += x * acc + 0.5f;
  }
  b[i] = acc;
}
)";

const char* kBranchyKernel = R"(
__kernel void branchy(__global const float* a, __global float* b, int K) {
  int i = get_global_id(0);
  float acc = 0.0f;
  for (int k = 0; k < K; k++) {
    if (a[i] > 0.5f) {
      acc += 1.0f;
    } else {
      acc -= 1.0f;
    }
  }
  b[i] = acc;
}
)";

TEST(DeviceModel, KernelTimeMonotonicInItems) {
  const auto f = featuresOf(kComputeKernel);
  const auto m = makeMc2();
  const std::map<std::string, double> bind = {{"K", 100.0}};
  double prev = 0.0;
  for (const double items : {64.0, 1024.0, 65536.0, 1048576.0}) {
    const double t = kernelTime(m.devices[1], f, bind, items);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(DeviceModel, KernelTimeMonotonicInWork) {
  const auto f = featuresOf(kComputeKernel);
  const auto m = makeMc1();
  double prev = 0.0;
  for (const double k : {10.0, 100.0, 1000.0}) {
    const double t = kernelTime(m.cpu(), f, {{"K", k}}, 4096.0);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(DeviceModel, ZeroItemsIsFree) {
  const auto f = featuresOf(kStreamingKernel);
  const auto m = makeMc1();
  EXPECT_DOUBLE_EQ(kernelTime(m.cpu(), f, {}, 0.0), 0.0);
}

TEST(DeviceModel, UtilizationSaturates) {
  const auto m = makeMc2();
  const auto& gpu = m.devices[1];
  EXPECT_LT(gpu.utilization(1000.0), 0.05);
  EXPECT_GT(gpu.utilization(1e7), 0.95);
  EXPECT_LT(gpu.utilization(1e4), gpu.utilization(1e6));
  // CPU saturates much earlier than the GPU.
  EXPECT_GT(m.cpu().utilization(1e4), gpu.utilization(1e4));
}

TEST(DeviceModel, TransferTimeLinearWithLatencyFloor) {
  const auto m = makeMc2();
  const auto& gpu = m.devices[1];
  EXPECT_DOUBLE_EQ(gpu.transferTime(0.0), 0.0);
  const double t1 = gpu.transferTime(1e6);
  const double t2 = gpu.transferTime(2e6);
  EXPECT_GT(t1, gpu.transferLatency);
  // Doubling bytes less than doubles time only because of latency.
  EXPECT_NEAR(t2 - t1, 1e6 / gpu.transferBandwidth, 1e-12);
  // CPU transfers are near-free (zero-copy device).
  EXPECT_LT(m.cpu().transferTime(1e6), 0.1 * t1);
}

TEST(Machines, ConfigShape) {
  for (const auto& m : evaluationMachines()) {
    EXPECT_EQ(m.numDevices(), 3u);
    EXPECT_EQ(m.devices[0].type, DeviceType::CPU);
    EXPECT_EQ(m.devices[1].type, DeviceType::GPU);
    EXPECT_EQ(m.devices[2].type, DeviceType::GPU);
    EXPECT_EQ(m.gpuIndices(), (std::vector<std::size_t>{1, 2}));
  }
  EXPECT_EQ(makeMc1().name, "mc1");
  EXPECT_EQ(makeMc2().name, "mc2");
  EXPECT_THROW(machineByName("mc3"), Error);
}

// The paper's §3 observation, as a model property: on a large untuned
// compute kernel, mc1's CPU beats its VLIW GPU once transfers are included,
// while mc2's GPU beats its CPU.
TEST(Machines, DefaultStrategyOrderingDiffersAcrossMachines) {
  const auto f = featuresOf(kComputeKernel);
  const std::map<std::string, double> bind = {{"K", 2000.0}};
  const double items = 1 << 20;
  const double bytes = items * 8.0;  // in + out

  const auto mc1 = makeMc1();
  const double cpu1 = kernelTime(mc1.cpu(), f, bind, items);
  const double gpu1 = kernelTime(mc1.devices[1], f, bind, items) +
                      mc1.devices[1].transferTime(bytes);
  const auto mc2 = makeMc2();
  const double cpu2 = kernelTime(mc2.cpu(), f, bind, items);
  const double gpu2 = kernelTime(mc2.devices[1], f, bind, items) +
                      mc2.devices[1].transferTime(bytes);

  // mc2's GPU must clearly win on compute-heavy work.
  EXPECT_LT(gpu2, cpu2);
  // mc1's GPU advantage must be much smaller than mc2's (VLIW penalty).
  EXPECT_GT((cpu1 / gpu1), 0.2);
  EXPECT_LT((cpu1 / gpu1), (cpu2 / gpu2));
}

TEST(Machines, BranchDivergenceHurtsGpusMore) {
  const auto f = featuresOf(kBranchyKernel);
  const std::map<std::string, double> bind = {{"K", 500.0}};
  const double items = 1 << 18;

  for (const auto& m : evaluationMachines()) {
    const double cpu = kernelTime(m.cpu(), f, bind, items);
    const double gpu = kernelTime(m.devices[1], f, bind, items);
    // Branch-heavy work narrows (or reverses) the GPU's advantage relative
    // to pure compute.
    const auto fc = featuresOf(kComputeKernel);
    const double cpuC = kernelTime(m.cpu(), fc, bind, items);
    const double gpuC = kernelTime(m.devices[1], fc, bind, items);
    EXPECT_LT(cpu / gpu, cpuC / gpuC)
        << "machine " << m.name
        << ": branchy kernel should favor the CPU more than compute kernel";
  }
}

TEST(Machines, SmallProblemsFavorCpu) {
  const auto f = featuresOf(kStreamingKernel);
  const auto m = makeMc2();  // even on the GPU-friendly machine
  const double items = 4096;
  const double bytes = items * 8.0;
  const double cpu = kernelTime(m.cpu(), f, {}, items) +
                     m.cpu().transferTime(bytes);
  const double gpu = kernelTime(m.devices[1], f, {}, items) +
                     m.devices[1].transferTime(bytes);
  EXPECT_LT(cpu, gpu);
}

TEST(Machines, MemoryBoundWorkIncludingTransfersFavorsCpu) {
  // Gregg & Hazelwood: with transfers included, streaming kernels do not
  // pay off on discrete GPUs.
  const auto f = featuresOf(kStreamingKernel);
  for (const auto& m : evaluationMachines()) {
    const double items = 1 << 22;
    const double bytes = items * 8.0;
    const double cpu = kernelTime(m.cpu(), f, {}, items) +
                       m.cpu().transferTime(bytes);
    const double gpu = kernelTime(m.devices[1], f, {}, items) +
                       m.devices[1].transferTime(bytes);
    EXPECT_LT(cpu, gpu) << "machine " << m.name;
  }
}

}  // namespace
}  // namespace tp::sim
