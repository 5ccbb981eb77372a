#include "serve/feedback.hpp"

#include "runtime/evaluation.hpp"
#include "serve/cache.hpp"

namespace tp::serve {

FeedbackRecorder::FeedbackRecorder(std::size_t numPartitionings,
                                   int roundDigits)
    : roundDigits_(roundDigits),
      db_(runtime::FeatureDatabase::withDefaultSchema(numPartitionings)) {}

runtime::LaunchKey FeedbackRecorder::dedupKey(
    const runtime::Task& task, const std::string& machine) const {
  runtime::LaunchKey key{machine, programKey(task), {}};
  quantizeSignature(task, roundDigits_, key.signature);
  return key;
}

bool FeedbackRecorder::record(const runtime::Task& task,
                              const sim::MachineConfig& machine,
                              const runtime::PartitioningSpace& space,
                              const std::string& sizeLabel) {
  return record(dedupKey(task, machine.name), task, machine, space,
                sizeLabel);
}

bool FeedbackRecorder::record(const runtime::LaunchKey& identity,
                              const runtime::Task& task,
                              const sim::MachineConfig& machine,
                              const runtime::PartitioningSpace& space,
                              const std::string& sizeLabel) {
  {
    common::MutexLock lock(mutex_);
    if (seen_.count(identity) != 0) return false;
  }
  // The sweep simulates every partitioning — keep it outside the lock so
  // concurrent recorders of *different* launches don't serialize. A racing
  // duplicate of the same launch just loses the insert below.
  runtime::LaunchRecord rec = runtime::measureLaunch(
      task, machine, space,
      sizeLabel.empty() ? "n=" + std::to_string(task.globalSize) : sizeLabel);
  common::MutexLock lock(mutex_);
  if (!seen_.insert(identity).second) return false;
  db_.add(std::move(rec));
  return true;
}

std::size_t FeedbackRecorder::size() const {
  common::MutexLock lock(mutex_);
  return db_.size();
}

runtime::FeatureDatabase FeedbackRecorder::snapshot() const {
  common::MutexLock lock(mutex_);
  return db_;
}

}  // namespace tp::serve
