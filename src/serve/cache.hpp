#pragma once

// Fingerprinted decision cache — the warm-request fast path.
//
// Keyed by a 128-bit fingerprint of (interned (machine, program) pair id,
// quantized launch signature): repeated traffic for the same kernel at the
// same problem size skips symbolic feature evaluation and model inference
// entirely. The signature is everything the runtime knows at launch
// without evaluating the static feature expressions — NDRange, transfer
// volumes, transfer amortization and the bound scalar parameters —
// quantized to a fixed number of significant decimal digits so bitwise
// jitter in derived quantities cannot fragment the cache while genuinely
// different problem sizes stay distinct. Two launches of the same compiled
// program with equal signatures have equal combined feature vectors, so
// serving a cached label is exactly what the model would have predicted.
//
// Concurrency model (the PR-5 rework; the original was mutex-guarded LRU
// shards):
//
//   - fixed-capacity open-addressing table, bounded linear probe window;
//   - readers are seqlock-style: per-slot sequence word, retry on a torn
//     snapshot — a cache hit performs no heap allocation and acquires no
//     lock, only atomic loads plus striped relaxed counter adds (and a
//     CLOCK reference-bit store the first time a resident entry is hit);
//   - writers (the miss path) claim a slot by CAS-ing its sequence word
//     odd, write the fields, and release it even. Two racing inserts of
//     the same key may transiently occupy two slots; both carry the same
//     label (labels are a pure function of the key at a fixed model
//     version), so hits stay correct and the duplicate ages out;
//   - eviction is CLOCK second-chance within the probe window (hits set a
//     reference bit; the insert scan clears set bits and evicts the first
//     unreferenced slot) instead of LRU list splicing;
//   - model-version bumps are an epoch sweep: the version counter moves
//     first (stale in-flight inserts get dropped — the insert re-checks
//     the version inside its slot critical section), then the sweep walks
//     every slot and clears older generations. An insert carrying the new
//     version that lands mid-sweep survives it — the PR-3 forward-only
//     invalidation semantics are preserved.
//
// Readers compare fingerprints only. The launch key is stored beside the
// table and verified on insert: an insert that lands on a matching
// fingerprint with a different launch key is a detected 128-bit collision
// (counted, and the newer key wins). A collision that is never
// re-inserted could in principle serve a wrong label to a reader; with
// two independently-seeded avalanche-finalized 64-bit streams the odds
// are ~2^-64 per distinct-key pair — accepted, and the differential test
// exercises the verification path explicitly.

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/striped.hpp"
#include "runtime/task.hpp"

namespace tp::serve {

/// Round to `digits` significant decimal digits; `digits <= 0` disables
/// rounding. Normalizes -0.0 to 0.0 so quantized values hash uniformly.
/// Integers with at most `digits` digits (up to 14) return unchanged
/// without the log10/pow formula, which maps them to themselves too.
double roundSignificant(double v, int digits);

/// The runtime-known launch signature used in cache keys and feedback
/// deduplication: global/local size, transfer volumes, transfer
/// amortization and the bound scalar parameters in name order.
std::vector<double> launchSignature(const runtime::Task& task);

/// launchSignature() quantized at `roundDigits`, written into `out`; its
/// capacity is reused, so a warm call allocates nothing. The serving path
/// quantizes once per request and builds the fingerprint, the cache key
/// and the feedback identity from this one vector.
void quantizeSignature(const runtime::Task& task, int roundDigits,
                       std::vector<double>& out);

/// "program/kernel" — the program part of a decision key.
std::string programKey(const runtime::Task& task);

/// Full decision key: the launch identity plus the model generation that
/// decided it. Built on the miss path only; the cache keeps the identity
/// for fingerprint-collision verification. Never touched by cache hits.
struct DecisionKey {
  runtime::LaunchKey launch;
  std::uint64_t modelVersion = 0;

  bool operator==(const DecisionKey&) const = default;
};

/// 128-bit hot-path identity of a launch: the interned (machine, program)
/// pair id folded with the quantized signature. The streaming overload
/// quantizes on the fly in launchSignature() field order, without a
/// signature vector; the serving path folds the vector quantizeSignature()
/// filled. Both overloads produce identical fingerprints for identical
/// launches.
common::Fingerprint launchFingerprint(std::uint32_t pairId,
                                      const runtime::Task& task,
                                      int roundDigits) noexcept;
common::Fingerprint launchFingerprint(
    std::uint32_t pairId, const std::vector<double>& quantizedSignature) noexcept;

/// Monotonic event counters, striped internally; counters() sums stripes.
struct CacheCounters {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;  ///< occupancy-creating inserts (not refreshes)
  std::uint64_t evictions = 0;   ///< CLOCK capacity evictions
  std::uint64_t invalidations = 0;  ///< entries dropped by sweeps/clear()
  std::uint64_t collisions = 0;  ///< fingerprint matches with differing keys

  double hitRate() const noexcept {
    return lookups == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(lookups);
  }
};

class DecisionCache {
public:
  /// `capacity` is rounded up to a power of two (capacity() reports the
  /// effective value); occupancy never exceeds it.
  explicit DecisionCache(std::size_t capacity, int roundDigits = 6);

  std::size_t capacity() const noexcept { return numSlots_; }
  int roundDigits() const noexcept { return roundDigits_; }

  /// Quantize `signature` and stamp the current model version (miss path
  /// — allocates; the hit path needs only the fingerprint).
  DecisionKey makeKey(std::string machine, std::string program,
                      std::vector<double> signature) const;

  /// Label cached for `fp` at exactly model generation `version`, or
  /// nullopt. Lock-free and allocation-free; sets the entry's CLOCK
  /// reference bit on a hit.
  std::optional<std::size_t> lookup(const common::Fingerprint& fp,
                                    std::uint64_t version) noexcept
      TP_LOCK_FREE_AUDITED(
          "seqlock reader: retries on a torn slot snapshot (odd or moved "
          "sequence word); TSan: test_serve_cache "
          "DecisionCacheDifferential.ConcurrentHitsUnderContentionStayExact");

  /// Insert or refresh. `key` must be the full key behind `fp` (stored
  /// for collision verification). Keys stamped with a stale model version
  /// are discarded — the check runs inside the slot critical section, so
  /// an insert racing a version sweep either carries the new version or
  /// is dropped/swept, never resurrected.
  void insert(const common::Fingerprint& fp, const DecisionKey& key,
              std::size_t label)
      TP_LOCK_FREE_AUDITED(
          "seqlock writer: claims a slot by CAS-ing its sequence word odd, "
          "releases even; racing same-key inserts carry equal labels; TSan: "
          "test_serve_cache DecisionCacheDifferential."
          "ConcurrentStreamWithVersionBumps");

  std::uint64_t version() const noexcept;
  /// Invalidate every cached decision of older generations: bump the
  /// version (stale in-flight inserts get dropped) and sweep entries
  /// stamped with any previous version. An insert that carries the *new*
  /// version and lands while the sweep is still walking the table
  /// survives it — fresh decisions are never thrown away. Returns the new
  /// version.
  std::uint64_t bumpVersion();

  /// Move the version forward to `version` (a no-op when it is not ahead
  /// of the current one) and sweep entries of older generations. Used by
  /// fleet model fan-out and snapshot warm-start, where the generation
  /// number is decided elsewhere and replicas must converge on it; the
  /// version never moves backward. Returns the version now in effect.
  std::uint64_t advanceVersion(std::uint64_t version);

  /// Drop entries whose version differs from the current version (counted
  /// as invalidations). The tail half of bumpVersion(), exposed so the
  /// sweep-vs-fresh-insert interleaving is testable.
  void clearStale();

  /// Drop all entries (counted as invalidations); keeps the version.
  void clear();

  std::size_t size() const;
  CacheCounters counters() const;

private:
  struct Slot {
    std::atomic<std::uint32_t> seq{0};  ///< odd = writer inside
    std::atomic<std::uint32_t> ref{0};  ///< CLOCK second-chance bit
    std::atomic<std::uint64_t> fpHi{0};
    std::atomic<std::uint64_t> fpLo{0};
    std::atomic<std::uint64_t> meta{0};  ///< occupied | version | label
  };
  struct alignas(common::kCacheLineBytes) CounterStripe {
    std::atomic<std::uint64_t> lookups{0};
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> insertions{0};
    std::atomic<std::uint64_t> evictions{0};
    std::atomic<std::uint64_t> invalidations{0};
    std::atomic<std::uint64_t> collisions{0};
  };
  static_assert(common::kWholeCacheLines<CounterStripe>);

  CounterStripe& stripe() noexcept {
    return counterStripes_[common::threadStripe(counterStripes_.size())];
  }
  void sweep(bool staleOnly);

  std::size_t numSlots_;
  std::size_t mask_;
  std::size_t window_;  ///< bounded linear-probe window
  int roundDigits_;
  std::atomic<std::uint64_t> version_{0};
  std::vector<Slot> slots_;
  /// Slot-parallel launch identities; writers only.
  std::unique_ptr<runtime::LaunchKey[]> fullKeys_;
  mutable std::vector<CounterStripe> counterStripes_;
};

}  // namespace tp::serve
