#pragma once

// SnapshotStore — replica state that survives restarts.
//
// A snapshot is everything a fresh replica needs to serve refined
// decisions immediately instead of relearning them: the deployed model
// of every machine (serialized), the generation they serve, and the
// refiner's full tracked state (every key's measured arms, exported with
// exportWins(refinedOnly = false)). Snapshots are the numbered files
// `snapshot-%08d.tpsnap` of one common::NumberedFiles directory, written
// atomically (temp file + rename) in the fleet wire encoding with its
// own magic/version header; loadLatest() picks the highest sequence
// number, so a crash mid-write never corrupts the recovery path — the
// previous snapshot still wins. If the newest
// snapshot is corrupt or truncated anyway (torn disk, bit rot, hostile
// bytes), loadLatest() salvages: it falls back through older snapshots
// in sequence order until one decodes, counting and logging every file
// it skips — warm start degrades to older state instead of failing.

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "adapt/refiner.hpp"
#include "common/annotations.hpp"
#include "common/numbered_files.hpp"
#include "fleet/wire.hpp"

namespace tp::fleet {

struct ReplicaSnapshot {
  std::uint64_t modelVersion = 0;
  std::vector<ModelBlob> models;        ///< per machine, name order
  std::vector<adapt::WinRecord> wins;   ///< full refiner export
};

std::string encodeSnapshot(const ReplicaSnapshot& snapshot);
ReplicaSnapshot decodeSnapshot(std::string_view bytes);

class SnapshotStore {
public:
  /// Creates `dir` (and parents) if absent. `keepLast` is the retention
  /// policy: after each save, all but the newest `keepLast` snapshots by
  /// sequence are pruned from disk (0 keeps every snapshot forever).
  /// Pruning never touches the snapshot just saved, so loadLatest() is
  /// unaffected by it.
  explicit SnapshotStore(std::string dir, std::size_t keepLast = 0);

  const std::string& dir() const noexcept { return files_.dir(); }
  std::size_t keepLast() const noexcept { return files_.keepLast(); }

  /// Persist a snapshot; returns its sequence number (monotonic per
  /// directory, one past the highest already on disk; concurrent saves
  /// through one store get distinct numbers). Applies the keep-last
  /// retention policy after the new snapshot is published. Throws
  /// tp::IoError when the file cannot be written or published.
  std::uint64_t save(const ReplicaSnapshot& snapshot) {
    return files_.publish(encodeSnapshot(snapshot));
  }

  /// The newest snapshot that decodes. Corrupt/truncated/unreadable
  /// files are skipped (counted in corruptSnapshotsSkipped(), logged)
  /// and the next-older sequence is tried; nullopt when the directory
  /// holds no valid snapshot at all.
  std::optional<ReplicaSnapshot> loadLatest() const;

  /// Snapshots skipped by loadLatest() because they failed to open or
  /// decode, cumulative over this store's lifetime.
  std::uint64_t corruptSnapshotsSkipped() const noexcept
      TP_LOCK_FREE_AUDITED(
          "relaxed monotonic counter, bumped only inside loadLatest; "
          "TSan: test_fleet Fleet.CountersReconcileUnderConcurrent"
          "GossipAndRetrain") {
    return corruptSkipped_.load(std::memory_order_relaxed);
  }

  /// Snapshots currently on disk.
  std::size_t count() const { return files_.count(); }

private:
  common::NumberedFiles files_;
  mutable std::atomic<std::uint64_t> corruptSkipped_{0};
};

}  // namespace tp::fleet
