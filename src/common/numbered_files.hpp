#pragma once

// NumberedFiles: one directory of sequence-numbered files named
// `<prefix>%08d<suffix>`, the store behind obs::FlightRecorder's
// postmortem bundles and fleet::SnapshotStore's replica snapshots.
//
// publish() takes the next sequence (one past the highest on disk, so
// numbering continues across instances and restarts), writes and
// flushes a tmp file and renames it into place: a file is absent or
// complete, never torn. It then prunes to the newest `keepLast` files by
// sequence (0 keeps all); a failed remove is retried on the next publish
// and never fails this one. One mutex serializes allocation, write,
// rename, prune and the scans, so concurrent publishers through one
// instance get distinct sequences. Instances do not coordinate.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.hpp"

namespace tp::common {

class NumberedFiles {
public:
  /// Streams one file's bytes; receives the sequence the file will carry
  /// (so a file may name itself).
  using Writer = std::function<void(std::ostream& out, std::uint64_t seq)>;

  NumberedFiles(std::string dir, std::string prefix, std::string suffix,
                std::size_t keepLast);

  /// Publish the next file and return its sequence. Creates the
  /// directory when absent. Throws tp::IoError when the directory cannot
  /// be created or the file cannot be opened, written or renamed.
  std::uint64_t publish(std::string_view bytes) TP_EXCLUDES(mutex_);
  std::uint64_t publish(const Writer& write) TP_EXCLUDES(mutex_);

  std::string path(std::uint64_t seq) const;
  /// Sequences on disk, newest first (empty when the directory is absent).
  std::vector<std::uint64_t> sequences() const TP_EXCLUDES(mutex_);
  /// Highest sequence on disk (0 = none).
  std::uint64_t highest() const TP_EXCLUDES(mutex_);
  std::size_t count() const TP_EXCLUDES(mutex_);

  const std::string& dir() const noexcept { return dir_; }
  std::size_t keepLast() const noexcept { return keepLast_; }

private:
  std::vector<std::uint64_t> scan() const TP_REQUIRES(mutex_);
  /// Sequence number of a file name; 0 when it is not one of ours.
  std::uint64_t sequenceOf(std::string_view name) const noexcept;

  std::string dir_;
  std::string prefix_;
  std::string suffix_;
  std::size_t keepLast_;
  mutable Mutex mutex_;  ///< serializes publish and the scans
};

}  // namespace tp::common
