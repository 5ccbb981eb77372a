#pragma once

// Multi-device scheduler/executor.
//
// Given a Task and a Partitioning it splits the NDRange into contiguous,
// group-aligned chunks (largest-remainder apportioning of work-groups),
// enqueues transfers + kernel chunks on every active device's command
// queue, and reports the simulated makespan — devices run concurrently, so
// the makespan is the slowest device's completion plus any host-side merge
// of MergeSum buffers. In Compute mode the chunks also execute natively,
// with each device's buffer views restricted to exactly the slice the
// access classification assigned to it.
//
// The simulated timeline lives on execute()'s stack frame, so one
// Scheduler (and its Context) serves any number of concurrent callers.

#include <vector>

#include "ocl/context.hpp"
#include "runtime/partitioning.hpp"
#include "runtime/task.hpp"

namespace tp::runtime {

struct DeviceExecution {
  std::size_t device = 0;
  std::size_t groupBegin = 0;
  std::size_t groupEnd = 0;
  double transferInSeconds = 0.0;
  double kernelSeconds = 0.0;
  double transferOutSeconds = 0.0;
  double endTime = 0.0;  ///< in + kernel + out, from the launch at 0

  std::size_t items(std::size_t localSize) const {
    return (groupEnd - groupBegin) * localSize;
  }
};

struct ExecutionResult {
  double makespan = 0.0;   ///< seconds, including host merge
  double mergeSeconds = 0.0;
  std::vector<DeviceExecution> devices;  ///< active devices only
};

class Scheduler {
public:
  explicit Scheduler(const vcl::Context& context) : context_(context) {}

  /// Execute `task` under partitioning `p`. Every device's timeline starts
  /// at 0, so results are independent per call and safe to compute
  /// concurrently.
  ExecutionResult execute(const Task& task, const Partitioning& p) const;

private:
  const vcl::Context& context_;
};

}  // namespace tp::runtime
