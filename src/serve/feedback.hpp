#pragma once

// Online feedback: the measure half of the train→deploy→measure loop.
//
// Every launch the service executes can be turned into a training record:
// a full sweep over the partitioning space (exactly the paper's training
// pattern, via runtime::measureLaunch) appended to a FeatureDatabase.
// Records are deduplicated on the launch identity (runtime::LaunchKey,
// quantized signature included), so replayed traffic measures each
// distinct (machine, program, problem size) once — the accumulated
// database stays proportional to the variety of traffic, not its volume.
// PartitionService::retrain() feeds the snapshot back through
// runtime::trainDeploymentModel().
//
// The dedup probe takes no lock and allocates nothing. Recorded
// identities live in an insert-only open-addressing table of immutable
// entries (hash + full key), published with release stores; readers probe
// with acquire loads and compare the full key, so dedup is exact. Only a
// first sighting takes the recorder's mutex: it re-probes the current
// table under the lock (a racing duplicate loses its insert), inserts and
// appends the record. Growth doubles the table under the mutex and
// publishes the new one; superseded tables live until the recorder dies
// (at most twice the slot memory), and a reader that misses on one falls
// into the locked path, which re-checks.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "runtime/database.hpp"
#include "runtime/partitioning.hpp"
#include "runtime/task.hpp"
#include "sim/machine.hpp"

namespace tp::serve {

class FeedbackRecorder {
public:
  /// Slots of the first dedup table; it holds half as many identities
  /// before it doubles.
  static constexpr std::size_t kInitialSlots = 64;

  /// `roundDigits` controls signature quantization for deduplication
  /// (match the cache's setting so "same launch" means the same thing).
  explicit FeedbackRecorder(std::size_t numPartitionings,
                            int roundDigits = 6);

  /// Measure and append one launch; returns false when a launch with the
  /// same identity is already recorded. `identity` is the key the caller
  /// already built for the launch. An empty `sizeLabel` labels the record
  /// "n=<globalSize>", built only when the launch is measured. Safe to call
  /// concurrently — a recorded identity returns false without a lock, and
  /// the sweep runs outside the lock.
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
  /// A recorded identity; immutable once published.
  struct Seen {
    std::uint64_t hash = 0;
    runtime::LaunchKey key;
  };
  /// Power-of-two slots over published entries (nullptr = empty), load
  /// factor at most 1/2, so every probe chain ends at an empty slot.
  struct Table {
    explicit Table(std::size_t slots);
    std::size_t mask;
    std::unique_ptr<std::atomic<const Seen*>[]> slots;
  };

  /// Lock-free probe of `table`.
  static bool contains(const Table& table, std::uint64_t hash,
                       const runtime::LaunchKey& key) noexcept
      TP_LOCK_FREE_AUDITED(
          "reader half of the entry publication: acquire-load of a slot "
          "orders the immutable entry it points at; entries are never "
          "removed; TSan: test_serve "
          "FeedbackDedup.ConcurrentRecordersSeeEachIdentityOnce, "
          "FeedbackDedup.TableGrowsUnderConcurrentProbes");
  /// Insert a first sighting; false when the current table already holds
  /// it. Grows and republishes the table as needed.
  bool insert(std::uint64_t hash, const runtime::LaunchKey& key)
      TP_REQUIRES(mutex_);
  /// Publish `entry` into a free slot of `table`.
  void place(Table& table, const Seen& entry) TP_REQUIRES(mutex_);

  int roundDigits_;
  mutable common::Mutex mutex_;
  runtime::FeatureDatabase db_ TP_GUARDED_BY(mutex_);
  /// Every recorded identity; a deque, so published addresses are stable.
  std::deque<Seen> entries_ TP_GUARDED_BY(mutex_);
  /// Every table generation; back() is the published one.
  std::vector<std::unique_ptr<Table>> tables_ TP_GUARDED_BY(mutex_);
  /// The current table, read lock-free by the probe.
  std::atomic<const Table*> table_{nullptr};
};

}  // namespace tp::serve
