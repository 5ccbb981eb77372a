#pragma once

// Online partition refinement — the closed half of the feedback loop.
//
// The deployed model predicts one partitioning per launch; the paper's
// premise is that the best split is problem-size sensitive, and a model
// trained offline is only as good as the traffic it saw. The Refiner
// hill-climbs around the model's prediction at serving time: per
// (machine, program, rounded launch-signature) key it keeps a small
// measured-performance history over the prediction and its partitioning
// neighborhood (PartitioningSpace::neighbors), spends a configurable
// epsilon fraction of warm traffic probing the least-measured candidate,
// and immediately exploits any measured win. When the incumbent moves,
// the neighborhood re-centers on it (bounded by maxArms), so repeated
// traffic walks downhill toward a local optimum of the *measured*
// execution time — the service gets faster the longer it runs.
//
// A retrain() bumps the model version; the next decision under the new
// version discards the key's history and decays back to the fresh model
// prediction (the new model already learned from the recorded traffic,
// including every explored win).
//
// Keys are runtime::LaunchKeys, addressed by the caller's 128-bit
// common::Fingerprint: the refiner computes no fingerprints. The serving
// layer passes the one it computed for the request (and for each merged
// win record), so a launch's cache entry and refiner entry share one
// address; a standalone caller supplies any scheme that is consistent
// across its calls.
//
// Thread-safe: state is sharded, each shard independently mutex-guarded,
// exploration draws from a per-shard deterministic Rng.

#include <cstdint>
#include <vector>

#include "common/hash.hpp"
#include "runtime/partitioning.hpp"
#include "runtime/task.hpp"

namespace tp::adapt {

struct RefinerConfig {
  /// Fraction of decisions (per key, after the baseline is measured) spent
  /// probing the least-measured candidate instead of exploiting.
  double exploreFraction = 0.15;
  /// Units moved per neighborhood step (PartitioningSpace::neighbors).
  int neighborRadius = 1;
  /// Observations of a candidate before its mean may unseat the incumbent.
  std::size_t minSamples = 1;
  /// Relative improvement over the incumbent mean required to adopt a win
  /// (guards against measurement jitter promoting noise).
  double minImprovement = 1e-3;
  /// Candidate-arm bound per key as the neighborhood re-centers.
  std::size_t maxArms = 24;
  /// Tracked-key bound (new keys beyond it serve unrefined).
  std::size_t maxKeys = 4096;
  std::size_t numShards = 16;
  std::uint64_t seed = 0x5EEDu;
  /// Probe budget per arm: with a value N > 0 a key stops exploring once
  /// every candidate arm has at least N measurements (the neighborhood is
  /// converged; new arms from a re-centering win re-open it). 0 keeps the
  /// unbounded policy (probe the least-measured arm forever at epsilon).
  /// Fleet gossip relies on a finite budget: merged remote evidence fills
  /// the budget, so a win measured on one replica is served — not
  /// re-probed — everywhere else.
  std::size_t probeSamples = 0;
};

struct RefineDecision {
  std::size_t label = 0;
  bool explore = false;  ///< probing: bypasses the decision cache
  bool refined = false;  ///< label differs from the model's prediction
};

struct Observation {
  bool improved = false;     ///< this measurement moved the incumbent
  bool tracked = false;      ///< bestLabel/bestSeconds are meaningful
  std::size_t bestLabel = 0; ///< current incumbent for the key
  double bestSeconds = 0.0;  ///< its mean measured time
};

/// One measured candidate arm inside an exported win record.
struct WinArm {
  std::size_t label = 0;
  std::uint64_t count = 0;
  double meanSeconds = 0.0;
};

/// A refined key's transferable state: the adopted incumbent plus the
/// measured evidence backing it, tagged with the model version it was
/// learned against. This is what gossip rounds and snapshots carry
/// between replicas.
struct WinRecord {
  runtime::LaunchKey key;
  std::uint64_t modelVersion = 0;
  std::size_t baseLabel = 0;       ///< model prediction the key was seeded with
  std::size_t incumbentLabel = 0;  ///< adopted best label
  double incumbentMean = 0.0;      ///< its measured mean seconds
  std::vector<WinArm> arms;        ///< every measured arm (count > 0)
};

/// Per-record outcomes of mergeWin(), summed over a batch with +=;
/// received == adopted + updated + stale + dropped.
struct MergeResult {
  std::size_t adopted = 0;  ///< merge moved the key's incumbent
  std::size_t updated = 0;  ///< evidence merged, incumbent unchanged
  std::size_t stale = 0;    ///< model-version mismatch: rejected
  /// Key-capacity drop; the service adds records it cannot accept (no
  /// refiner, a label outside the space, a pair it cannot intern).
  std::size_t dropped = 0;

  std::size_t merged() const noexcept { return adopted + updated; }
  MergeResult& operator+=(const MergeResult& o) noexcept {
    adopted += o.adopted;
    updated += o.updated;
    stale += o.stale;
    dropped += o.dropped;
    return *this;
  }
};

/// Monotonic event counters, aggregated across shards by counters().
struct RefinerCounters {
  std::uint64_t decisions = 0;
  std::uint64_t explorations = 0;   ///< probe decisions issued
  std::uint64_t exploitations = 0;  ///< incumbent decisions issued
  std::uint64_t observations = 0;   ///< measurements accepted
  std::uint64_t wins = 0;           ///< incumbent moved to a better label
  std::uint64_t mergedWins = 0;     ///< incumbent moved by a remote merge
  std::uint64_t resets = 0;         ///< version decays back to the model
  std::uint64_t staleObservations = 0;  ///< dropped: version/key mismatch
  /// Decisions served unrefined: key capacity reached, or the request
  /// was stamped with a version the key has already moved past.
  std::uint64_t untracked = 0;
};

class Refiner {
public:
  explicit Refiner(RefinerConfig config = {});
  ~Refiner();  ///< out-of-line: Shard is incomplete here

  Refiner(const Refiner&) = delete;
  Refiner& operator=(const Refiner&) = delete;

  /// Choose the label to serve for this launch. `baseLabel` is the label
  /// serving would use without refinement (cached decision or a fresh
  /// model prediction); `modelVersion` is the generation that produced
  /// it. The first decision for a key always exploits the baseline so the
  /// incumbent is measured before any probe. `key` (the launch behind
  /// `fp`) is only consulted when the fingerprint is untracked and an
  /// entry must be created; the serving hit path passes nullptr (don't
  /// create — a cache hit whose refiner entry was capacity-evicted serves
  /// unrefined until the next miss or version change recreates it) so
  /// warm traffic never materializes key strings.
  RefineDecision decide(const common::Fingerprint& fp,
                        const runtime::LaunchKey* key,
                        std::uint64_t modelVersion, std::size_t baseLabel,
                        const runtime::PartitioningSpace& space);

  /// Feed back the measured execution time of a served decision. Returns
  /// whether the measurement moved the incumbent (callers write wins back
  /// into their decision cache); on a win the candidate set re-centers on
  /// the new incumbent's neighborhood in `space`. Measurements stamped
  /// with a version the key has moved past are dropped.
  Observation observe(const common::Fingerprint& fp,
                      std::uint64_t modelVersion, std::size_t label,
                      double seconds, const runtime::PartitioningSpace& space);

  /// Current incumbent for a key, if tracked at this version.
  /// (Test/introspection surface.)
  struct Incumbent {
    bool tracked = false;
    std::size_t label = 0;
    double meanSeconds = 0.0;
    std::size_t armsMeasured = 0;
  };
  Incumbent incumbent(const common::Fingerprint& fp,
                      std::uint64_t modelVersion) const;

  /// Export transferable per-key state. With `refinedOnly` (the gossip
  /// path) only keys whose incumbent differs from the model prediction —
  /// adopted wins — are emitted; without it (the snapshot path) every
  /// tracked key is, so a restored replica reproduces incumbent means
  /// exactly. Deterministic order: shard index, then unordered_map
  /// iteration order within a shard.
  std::vector<WinRecord> exportWins(bool refinedOnly = true) const;

  /// Merge one remote win record; `fp` is the caller's fingerprint of
  /// `rec.key`. The result counts the record once. A record whose model
  /// version differs from `currentVersion` (or from a newer version a
  /// tracked key has already moved to) is rejected as stale. Per arm the
  /// better-measured side wins — higher count, ties broken by lower
  /// measured mean — which makes the merge idempotent and convergent
  /// under repeated anti-entropy exchange. The incumbent is then
  /// re-elected under the usual minSamples/minImprovement rules. Merged
  /// keys do NOT re-center: remote evidence is served, not used to seed
  /// a second local search, so a replica adopting a win issues no probes
  /// for it — the search frontier stays with the replica whose own
  /// observation won (its recenter opened the frontier), and everyone
  /// else rides along.
  MergeResult mergeWin(const WinRecord& rec, const common::Fingerprint& fp,
                       std::uint64_t currentVersion);

  std::size_t trackedKeys() const;
  RefinerCounters counters() const;
  const RefinerConfig& config() const noexcept { return config_; }

private:
  struct Arm {
    std::size_t label = 0;
    std::uint64_t count = 0;
    double meanSeconds = 0.0;
  };
  struct Entry {
    runtime::LaunchKey key;      ///< full key, for exportWins()
    std::uint64_t modelVersion = 0;
    std::size_t baseLabel = 0;   ///< the model-side label at this version
    std::size_t incumbent = 0;   ///< arms index of the current best
    std::vector<Arm> arms;       ///< baseline + (re-centered) neighborhood
  };
  struct Shard;

  Shard& shardFor(const common::Fingerprint& fp) const;
  void resetEntry(Entry& entry, std::uint64_t modelVersion,
                  std::size_t baseLabel,
                  const runtime::PartitioningSpace& space) const;
  void recenter(Entry& entry, const runtime::PartitioningSpace& space) const;
  /// Re-elect the incumbent under the minSamples/minImprovement rules;
  /// true when it moved. Caller holds the shard lock.
  bool electIncumbent(Entry& entry) const;
  /// Evict entries of superseded generations so a full shard can accept
  /// current-generation keys. Caller holds the shard lock.
  static void sweepSuperseded(Shard& shard, std::uint64_t version);

  RefinerConfig config_;
  std::size_t maxKeysPerShard_ = 0;
  mutable std::vector<Shard> shards_;
};

}  // namespace tp::adapt
