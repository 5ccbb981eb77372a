#include "fleet/snapshot.hpp"

#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/serial.hpp"

namespace tp::fleet {

namespace {

constexpr std::uint32_t kSnapshotMagic = 0x5450534eu;  // "TPSN"
constexpr std::uint16_t kSnapshotVersion = 1;
constexpr const char* kPrefix = "snapshot-";
constexpr const char* kSuffix = ".tpsnap";

}  // namespace

std::string encodeSnapshot(const ReplicaSnapshot& snapshot) {
  common::WireWriter w;
  w.u32(kSnapshotMagic);
  w.u16(kSnapshotVersion);
  w.u64(snapshot.modelVersion);
  w.u32(static_cast<std::uint32_t>(snapshot.models.size()));
  for (const ModelBlob& blob : snapshot.models) {
    w.str(blob.machine);
    w.str(blob.model);
  }
  w.str(encodeWins(snapshot.wins));
  return w.take();
}

ReplicaSnapshot decodeSnapshot(std::string_view bytes) {
  common::WireReader r(bytes);
  const std::uint32_t magic = r.u32();
  TP_REQUIRE(magic == kSnapshotMagic,
             "snapshot: bad magic 0x" << std::hex << magic);
  const std::uint16_t version = r.u16();
  TP_REQUIRE(version == kSnapshotVersion,
             "snapshot: unsupported format version " << version);
  ReplicaSnapshot snapshot;
  snapshot.modelVersion = r.u64();
  // Each blob carries two length-prefixed strings: >= 8 bytes of input.
  const std::uint32_t n = r.checkedCount(r.u32(), 8);
  snapshot.models.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ModelBlob blob;
    blob.machine = r.str();
    blob.model = r.str();
    snapshot.models.push_back(std::move(blob));
  }
  snapshot.wins = decodeWins(r.str());
  r.expectEnd();
  return snapshot;
}

SnapshotStore::SnapshotStore(std::string dir, std::size_t keepLast)
    : files_(std::move(dir), kPrefix, kSuffix, keepLast) {
  std::error_code ec;
  std::filesystem::create_directories(files_.dir(), ec);
  TP_REQUIRE(!ec, "SnapshotStore: cannot create " << files_.dir() << ": "
                                                  << ec.message());
}

std::optional<ReplicaSnapshot> SnapshotStore::loadLatest() const
    TP_LOCK_FREE_AUDITED(
        "only corruptSkipped_ is touched lock-free (relaxed monotonic "
        "counter); TSan: test_fleet Fleet.CountersReconcileUnderConcurrent"
        "GossipAndRetrain") {
  // Salvage, newest first: the first snapshot that opens and decodes
  // wins. A corrupt newest file (torn write that still got renamed, bit
  // rot, truncation) falls back to the next-older valid one instead of
  // failing warm start.
  for (const std::uint64_t seq : files_.sequences()) {
    const std::string path = files_.path(seq);
    try {
      std::ifstream is(path, std::ios::binary);
      if (!is) throw IoError("SnapshotStore: cannot open " + path);
      std::ostringstream buffer;
      buffer << is.rdbuf();
      return decodeSnapshot(buffer.str());
    } catch (const std::exception& e) {
      corruptSkipped_.fetch_add(1, std::memory_order_relaxed);
      TP_WARN("SnapshotStore: skipping corrupt snapshot "
              << path << " (" << e.what() << "), trying next-older");
    }
  }
  return std::nullopt;
}

}  // namespace tp::fleet
