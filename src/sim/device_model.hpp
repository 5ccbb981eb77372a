#pragma once

// Analytic device performance models.
//
// These stand in for the paper's physical OpenCL devices (see DESIGN.md,
// "Hardware substitutions"). A DeviceModel converts the per-work-item
// feature counts of a kernel chunk into simulated execution time using a
// roofline-style formula:
//
//   t_kernel = launchOverhead
//            + max(t_compute + t_branch, t_memory)
//            + t_atomics + t_barriers
//
// with throughput terms scaled by a utilization factor
// items / (items + saturationItems), which models how many concurrent work
// items a device needs before it reaches peak throughput. That factor is
// what makes the *optimal partitioning problem-size sensitive*: a GPU with
// saturationItems ≈ 10^5 is slower than the CPU on small NDRanges even when
// its peak rate is 10× higher.
//
// Transfers follow Gregg & Hazelwood [5]: every buffer movement is charged
// latency + bytes/bandwidth, and CPU devices get near-zero-copy transfers.
//
// The model reads a launch's counts, not its polynomials: the caller
// evaluates the kernel's compiled features once per launch
// (features::KernelFeatures::evaluate) and hands the same LaunchCounts to
// every device. The counts are bit-identical to evaluating each symbolic
// count under the launch's bindings, so the times are too.

#include <string>

#include "features/static_features.hpp"

namespace tp::sim {

enum class DeviceType { CPU, GPU };

struct DeviceModel {
  std::string name;
  DeviceType type = DeviceType::CPU;

  // Effective throughput for untuned scalar OpenCL code, ops/second.
  double intRate = 50e9;
  double floatRate = 50e9;
  double specialRate = 5e9;
  /// Architecture efficiency multiplier applied to all compute rates.
  /// Models e.g. the Radeon HD 5870's VLIW lanes staying idle on scalar,
  /// untuned kernels (Thoman et al. [7]); 1.0 = no penalty.
  double archEfficiency = 1.0;

  /// Cost of one dynamic branch decision, expressed in equivalent float
  /// operations (a device-wide throughput term, not a per-lane latency).
  /// Captures divergence: SIMT hardware executes both paths of divergent
  /// branches, VLIW hardware additionally drains its bundles.
  double branchWeight = 1.5;

  double memBandwidth = 20e9;    ///< bytes/s, global memory (peak)
  /// Fraction of peak bandwidth achieved by *untuned* access patterns
  /// (coalescing hardware quality / prefetchers).
  double memEfficiency = 0.9;
  double localBandwidth = 200e9; ///< bytes/s, __local / cache
  double atomicRate = 1e9;       ///< global atomic RMW ops/s, device-wide
  double barrierCost = 20e-9;    ///< seconds per barrier per work-group

  double launchOverhead = 5e-6;  ///< seconds per kernel launch
  /// Work items needed to approach peak throughput (GPU ≫ CPU).
  double saturationItems = 2e3;

  // Host<->device link (PCIe for GPUs; ~zero-copy for the CPU device).
  double transferBandwidth = 5e9;  ///< bytes/s
  double transferLatency = 20e-6;  ///< seconds per transfer operation

  /// Simulated execution time of `items` work items of a kernel whose
  /// per-work-item counts under this launch are `counts`. `localSize` is
  /// the work-group size (for barrier accounting).
  ///
  /// `dramBytes` is the unique global-memory footprint the chunk streams
  /// from DRAM (the scheduler derives it from buffer sizes and access
  /// classes: split slices count once, replicated buffers once in total —
  /// their repeated accesses hit cache at localBandwidth). Pass a negative
  /// value to charge every access to DRAM (no-reuse upper bound).
  double kernelTime(const features::LaunchCounts& counts, double items,
                    double localSize, double dramBytes = -1.0) const;

  /// Simulated time of one host<->device transfer of `bytes`.
  double transferTime(double bytes) const;

  /// Throughput utilization for a chunk of `items` work items, in (0, 1).
  double utilization(double items) const;
};

}  // namespace tp::sim
