#pragma once

// Online feedback: the measure half of the train→deploy→measure loop.
//
// Every launch the service executes can be turned into a training record:
// a full sweep over the partitioning space (exactly the paper's training
// pattern, via runtime::measureLaunch) appended to a FeatureDatabase.
// Records are deduplicated on the quantized launch signature, so replayed
// traffic measures each distinct (machine, program, problem size) once —
// the accumulated database stays proportional to the variety of traffic,
// not its volume. PartitionService::retrain() feeds the snapshot back
// through runtime::trainDeploymentModel().

#include <cstddef>
#include <string>
#include <unordered_set>

#include "common/annotations.hpp"
#include "runtime/database.hpp"
#include "runtime/partitioning.hpp"
#include "runtime/task.hpp"
#include "sim/machine.hpp"

namespace tp::serve {

class FeedbackRecorder {
public:
  /// `roundDigits` controls signature quantization for deduplication
  /// (match the cache's setting so "same launch" means the same thing).
  explicit FeedbackRecorder(std::size_t numPartitionings,
                            int roundDigits = 6);

  /// Measure and append one launch; returns false when a launch with the
  /// same identity is already recorded. `identity` is the key the caller
  /// already built for the launch. An empty `sizeLabel` labels the record
  /// "n=<globalSize>", built only when the launch is measured. Safe to call
  /// concurrently — the sweep runs outside the lock.
  bool record(const runtime::LaunchKey& identity, const runtime::Task& task,
              const sim::MachineConfig& machine,
              const runtime::PartitioningSpace& space,
              const std::string& sizeLabel);
  /// As above, quantizing the identity from `task` at this recorder's
  /// digits.
  bool record(const runtime::Task& task, const sim::MachineConfig& machine,
              const runtime::PartitioningSpace& space,
              const std::string& sizeLabel);

  std::size_t size() const;

  /// Consistent copy of the accumulated database.
  runtime::FeatureDatabase snapshot() const;

private:
  runtime::LaunchKey dedupKey(const runtime::Task& task,
                              const std::string& machine) const;

  int roundDigits_;
  mutable common::Mutex mutex_;
  runtime::FeatureDatabase db_ TP_GUARDED_BY(mutex_);
  std::unordered_set<runtime::LaunchKey, runtime::LaunchKeyHash> seen_
      TP_GUARDED_BY(mutex_);
};

}  // namespace tp::serve
