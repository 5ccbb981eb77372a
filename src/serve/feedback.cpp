#include "serve/feedback.hpp"

#include "common/hash.hpp"
#include "runtime/evaluation.hpp"
#include "serve/cache.hpp"

namespace tp::serve {

FeedbackRecorder::Table::Table(std::size_t slots)
    : mask(slots - 1),
      slots(std::make_unique<std::atomic<const Seen*>[]>(slots)) {}

FeedbackRecorder::FeedbackRecorder(std::size_t numPartitionings,
                                   int roundDigits)
    : roundDigits_(roundDigits),
      db_(runtime::FeatureDatabase::withDefaultSchema(numPartitionings)) {
  common::MutexLock lock(mutex_);
  tables_.push_back(std::make_unique<Table>(kInitialSlots));
  table_.store(tables_.back().get(), std::memory_order_release);
}

bool FeedbackRecorder::contains(const Table& table, std::uint64_t hash,
                                const runtime::LaunchKey& key) noexcept {
  for (std::size_t i = hash & table.mask;; i = (i + 1) & table.mask) {
    const Seen* e = table.slots[i].load(std::memory_order_acquire);
    if (e == nullptr) return false;
    if (e->hash == hash && e->key == key) return true;
  }
}

void FeedbackRecorder::place(Table& table, const Seen& entry) {
  std::size_t i = entry.hash & table.mask;
  while (table.slots[i].load(std::memory_order_relaxed) != nullptr) {
    i = (i + 1) & table.mask;
  }
  table.slots[i].store(&entry, std::memory_order_release);
}

bool FeedbackRecorder::insert(std::uint64_t hash,
                              const runtime::LaunchKey& key) {
  Table* table = tables_.back().get();
  if (contains(*table, hash, key)) return false;
  if (2 * (entries_.size() + 1) > table->mask + 1) {
    tables_.push_back(std::make_unique<Table>(2 * (table->mask + 1)));
    table = tables_.back().get();
    for (const Seen& e : entries_) place(*table, e);
  }
  place(*table, entries_.emplace_back(Seen{hash, key}));
  table_.store(table, std::memory_order_release);
  return true;
}

bool FeedbackRecorder::record(const runtime::Task& task,
                              const sim::MachineConfig& machine,
                              const runtime::PartitioningSpace& space,
                              const std::string& sizeLabel) {
  runtime::LaunchKey identity{machine.name, programKey(task), {}};
  quantizeSignature(task, roundDigits_, identity.signature);
  return record(identity, task, machine, space, sizeLabel);
}

bool FeedbackRecorder::record(const runtime::LaunchKey& identity,
                              const runtime::Task& task,
                              const sim::MachineConfig& machine,
                              const runtime::PartitioningSpace& space,
                              const std::string& sizeLabel)
    TP_LOCK_FREE_AUDITED(
        "acquire-load of the published table pairs with insert()'s release "
        "store; a miss re-checks under the mutex; TSan: test_serve "
        "FeedbackDedup.TableGrowsUnderConcurrentProbes") {
  // The table masks low bits, and the fold's low bits are weak.
  const std::uint64_t hash = common::mix64(runtime::LaunchKeyHash{}(identity));
  if (contains(*table_.load(std::memory_order_acquire), hash, identity)) {
    return false;
  }
  // The sweep simulates every partitioning — keep it outside the lock so
  // concurrent recorders of *different* launches don't serialize. A racing
  // duplicate of the same launch just loses the insert below.
  runtime::LaunchRecord rec = runtime::measureLaunch(
      task, machine, space,
      sizeLabel.empty() ? "n=" + std::to_string(task.globalSize) : sizeLabel);
  common::MutexLock lock(mutex_);
  if (!insert(hash, identity)) return false;
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
