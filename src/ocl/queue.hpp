#pragma once

// Simulated in-order command queues.
//
// Each device has one CommandQueue. A queue holds no clock: each enqueue
// returns the simulated seconds of its phase, and the caller lays the
// phases on a timeline of its own (runtime::Scheduler::execute keeps one
// per device on its stack frame). Devices execute concurrently, exactly
// like the paper's multi-device OpenCL runtime, so the scheduler's
// makespan is the max of the per-device completion times. Because the
// queue is stateless, any number of threads may enqueue on it at once.
//
// In Compute mode, kernel enqueues additionally execute the native
// work-group function on the host thread pool (results are real; time is
// still the analytic model's).

#include <cstddef>

#include "common/thread_pool.hpp"
#include "features/static_features.hpp"
#include "ocl/kernel.hpp"
#include "sim/device_model.hpp"

namespace tp::vcl {

enum class ExecMode {
  Compute,   ///< run kernels for real (tests, examples)
  TimeOnly,  ///< cost the phases only (training sweeps, serving)
};

class CommandQueue {
public:
  CommandQueue(const sim::DeviceModel& model, ExecMode mode,
               common::ThreadPool* pool)
      : model_(model), mode_(mode), pool_(pool) {}

  const sim::DeviceModel& device() const noexcept { return model_; }

  /// Seconds of a host→device transfer of `bytes` (accounting only; data
  /// already lives in host memory).
  double enqueueWrite(double bytes) const { return model_.transferTime(bytes); }

  /// Seconds of a device→host transfer.
  double enqueueRead(double bytes) const { return model_.transferTime(bytes); }

  /// Execute work-groups [groupBegin, groupEnd) of a kernel launch and
  /// return the chunk's seconds (0 for an empty chunk).
  /// `counts` (the kernel's counts under this launch) drive the analytic
  /// cost; `native`/`args` supply semantics in Compute mode. `ctxTemplate`
  /// carries the original NDRange geometry. `dramBytes` is the chunk's
  /// unique global-memory footprint (see sim::DeviceModel::kernelTime);
  /// negative = no-reuse upper bound.
  double enqueueKernel(const features::LaunchCounts& counts,
                       std::size_t groupBegin, std::size_t groupEnd,
                       const WorkGroupCtx& ctxTemplate,
                       const NativeKernel& native, const LaunchArgs& args,
                       double dramBytes = -1.0) const;

private:
  const sim::DeviceModel& model_;
  ExecMode mode_;
  common::ThreadPool* pool_;
};

}  // namespace tp::vcl
