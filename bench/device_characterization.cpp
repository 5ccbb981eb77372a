// Device characterization (cited approach [7]: Thoman et al., "Automatic
// OpenCL device characterization"): runs micro-kernels of each op class
// through every device model and prints the achieved-throughput profile
// plus the utilization ramp — the raw material behind the mc1/mc2
// asymmetry that Figure 1 exploits.

#include <cstdio>

#include "common/log.hpp"
#include "features/static_features.hpp"
#include "frontend/parser.hpp"
#include "harness_util.hpp"
#include "sim/machine.hpp"

namespace {

tp::features::KernelFeatures microKernel(const char* src) {
  const auto kernel = tp::frontend::parseSingleKernel(src);
  return tp::features::extractFeatures(*kernel);
}

}  // namespace

int main() {
  using namespace tp;
  common::setLogLevel(common::LogLevel::Warn);

  std::printf("=== Device characterization (micro-kernel profiles) ===\n\n");

  // One micro-kernel per op class; K controls per-item work.
  const auto flops = microKernel(R"(
__kernel void f(__global float* a, int K) {
  int i = get_global_id(0);
  float x = 1.0001f;
  for (int k = 0; k < K; k++) { x = x * 1.0001f + 0.5f; }
  a[i] = x;
})");
  const auto specials = microKernel(R"(
__kernel void s(__global float* a, int K) {
  int i = get_global_id(0);
  float x = 0.5f;
  for (int k = 0; k < K; k++) { x = sqrt(x + 1.0f); }
  a[i] = x;
})");
  const auto branches = microKernel(R"(
__kernel void b(__global float* a, int K) {
  int i = get_global_id(0);
  float x = 0.0f;
  for (int k = 0; k < K; k++) {
    if (a[i] > 0.5f) { x += 1.0f; } else { x -= 1.0f; }
  }
  a[i] = x;
})");
  const auto streaming = microKernel(R"(
__kernel void m(__global const float* a, __global float* b, int n) {
  int i = get_global_id(0);
  b[i] = a[i] * 2.0f;
})");

  const std::map<std::string, double> bind = {{"K", 1024.0}};
  const std::size_t globalSize = 1 << 22;
  const double items = globalSize;
  const auto flopCounts = flops.evaluate(bind, globalSize);
  const auto specialCounts = specials.evaluate(bind, globalSize);
  const auto branchCounts = branches.evaluate(bind, globalSize);
  const auto streamingCounts = streaming.evaluate({}, globalSize);

  for (const auto& machine : sim::evaluationMachines()) {
    std::printf("--- %s ---\n", machine.name.c_str());
    tp::bench::TablePrinter table(
        {"device", "GFLOP/s", "Gspecial/s", "Gbranch/s", "stream GB/s",
         "PCIe GB/s", "launch us", "util@4K", "util@1M"});
    for (const auto& d : machine.devices) {
      const double tF = d.kernelTime(flopCounts, items, 64.0);
      const double opsF = 2.0 * 1024.0 * items;  // mul+add per iteration
      const double tS = d.kernelTime(specialCounts, items, 64.0);
      const double opsS = 1024.0 * items;
      const double tB = d.kernelTime(branchCounts, items, 64.0);
      const double opsB = 1024.0 * items;
      const double tM = d.kernelTime(streamingCounts, items, 64.0);
      const double bytesM = 8.0 * items;
      table.addRow({d.name, tp::bench::fmt(opsF / tF / 1e9, 1),
                    tp::bench::fmt(opsS / tS / 1e9, 1),
                    tp::bench::fmt(opsB / tB / 1e9, 1),
                    tp::bench::fmt(bytesM / tM / 1e9, 1),
                    tp::bench::fmt(d.transferBandwidth / 1e9, 1),
                    tp::bench::fmt(d.launchOverhead * 1e6, 1),
                    tp::bench::fmt(d.utilization(4096), 2),
                    tp::bench::fmt(d.utilization(1 << 20), 2)});
    }
    table.print();
    std::printf("\n");
  }
  std::printf("reading guide: mc1's Radeons have huge raw rates but low "
              "effective FLOPs on untuned scalar code and terrible branch "
              "throughput (VLIW); mc2's GTX 480s retain most of their "
              "advantage — hence CPU-favored mc1 vs GPU-favored mc2.\n");
  return 0;
}
