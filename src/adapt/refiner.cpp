#include "adapt/refiner.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "common/annotations.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "obs/trace.hpp"

namespace tp::adapt {

struct Refiner::Shard {
  mutable common::Mutex mutex;
  std::unordered_map<common::Fingerprint, Entry, common::FingerprintHash>
      entries TP_GUARDED_BY(mutex);
  common::Rng rng TP_GUARDED_BY(mutex);
  RefinerCounters counters TP_GUARDED_BY(mutex);
};

Refiner::Refiner(RefinerConfig config) : config_(config) {
  TP_REQUIRE(config_.exploreFraction >= 0.0 && config_.exploreFraction <= 1.0,
             "Refiner: exploreFraction must be in [0, 1], got "
                 << config_.exploreFraction);
  TP_REQUIRE(config_.numShards > 0, "Refiner: numShards must be > 0");
  TP_REQUIRE(config_.maxArms >= 2,
             "Refiner: maxArms must be >= 2 (baseline + one neighbor)");
  TP_REQUIRE(config_.minSamples >= 1, "Refiner: minSamples must be >= 1");
  // A probe budget below minSamples would stop probing every arm before
  // any challenger becomes electable: all exploration cost, zero
  // possible wins. Reject the silent misconfiguration.
  TP_REQUIRE(config_.probeSamples == 0 ||
                 config_.probeSamples >= config_.minSamples,
             "Refiner: probeSamples ("
                 << config_.probeSamples << ") must be 0 (unbounded) or >= "
                    "minSamples ("
                 << config_.minSamples << ")");
  const std::size_t shards = std::min(config_.numShards,
                                      std::max<std::size_t>(1, config_.maxKeys));
  maxKeysPerShard_ =
      std::max<std::size_t>(1, (config_.maxKeys + shards - 1) / shards);
  shards_ = std::vector<Shard>(shards);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].rng.reseed(config_.seed + 0x9E3779B9u * (s + 1));
  }
}

Refiner::~Refiner() = default;

Refiner::Shard& Refiner::shardFor(const common::Fingerprint& fp) const {
  return shards_[fp.lo % shards_.size()];
}

void Refiner::resetEntry(Entry& entry, std::uint64_t modelVersion,
                         std::size_t baseLabel,
                         const runtime::PartitioningSpace& space) const {
  entry.modelVersion = modelVersion;
  entry.baseLabel = baseLabel;
  entry.incumbent = 0;
  entry.arms.clear();
  entry.arms.push_back(Arm{baseLabel, 0, 0.0});
  for (const std::size_t n :
       space.neighbors(baseLabel, config_.neighborRadius)) {
    if (entry.arms.size() >= config_.maxArms) break;
    entry.arms.push_back(Arm{n, 0, 0.0});
  }
}

void Refiner::recenter(Entry& entry,
                       const runtime::PartitioningSpace& space) const {
  // Extend the candidate set with the new incumbent's neighborhood so the
  // search keeps walking downhill, without forgetting measured history.
  const std::size_t center = entry.arms[entry.incumbent].label;
  for (const std::size_t n : space.neighbors(center, config_.neighborRadius)) {
    if (entry.arms.size() >= config_.maxArms) break;
    const bool known =
        std::any_of(entry.arms.begin(), entry.arms.end(),
                    [&](const Arm& a) { return a.label == n; });
    if (!known) entry.arms.push_back(Arm{n, 0, 0.0});
  }
}

bool Refiner::electIncumbent(Entry& entry) const {
  // Re-elect the incumbent among sufficiently-measured arms. The baseline
  // arm only needs one sample (it is what serving falls back to anyway),
  // and a challenger must beat the incumbent by the minImprovement margin
  // so measurement jitter cannot promote noise.
  const std::size_t before = entry.incumbent;
  std::size_t bestArm = entry.incumbent;
  double bestMean = entry.arms[bestArm].count > 0
                        ? entry.arms[bestArm].meanSeconds
                        : std::numeric_limits<double>::infinity();
  for (std::size_t a = 0; a < entry.arms.size(); ++a) {
    const Arm& c = entry.arms[a];
    if (c.count == 0) continue;
    if (a != entry.incumbent && c.count < config_.minSamples) continue;
    if (c.meanSeconds < bestMean * (1.0 - config_.minImprovement)) {
      bestArm = a;
      bestMean = c.meanSeconds;
    }
  }
  entry.incumbent = bestArm;
  return bestArm != before;
}

void Refiner::sweepSuperseded(Shard& shard, std::uint64_t version)
    TP_REQUIRES(shard.mutex) {
  for (auto e = shard.entries.begin(); e != shard.entries.end();) {
    if (e->second.modelVersion < version) {
      e = shard.entries.erase(e);
    } else {
      ++e;
    }
  }
}

RefineDecision Refiner::decide(const common::Fingerprint& fp,
                               const runtime::LaunchKey* key,
                               std::uint64_t modelVersion,
                               std::size_t baseLabel,
                               const runtime::PartitioningSpace& space) {
  Shard& shard = shardFor(fp);
  common::MutexLock lock(shard.mutex);
  ++shard.counters.decisions;

  auto it = shard.entries.find(fp);
  if (it == shard.entries.end()) {
    if (key == nullptr) {
      // The caller cannot (cheaply) supply the full key — the serving
      // warm-hit path. Serve unrefined; the next miss-path sighting
      // carries the key and creates the entry.
      ++shard.counters.untracked;
      return RefineDecision{baseLabel, false, false};
    }
    if (shard.entries.size() >= maxKeysPerShard_) {
      // Reclaim before refusing: entries of superseded generations are
      // dead weight (their history decays on next sight anyway), and
      // without this sweep a long-running service whose traffic mix
      // shifts would permanently stop refining new signatures.
      sweepSuperseded(shard, modelVersion);
    }
    if (shard.entries.size() >= maxKeysPerShard_) {
      ++shard.counters.untracked;
      return RefineDecision{baseLabel, false, false};
    }
    it = shard.entries.emplace(fp, Entry{}).first;
    it->second.key = *key;
    resetEntry(it->second, modelVersion, baseLabel, space);
  } else if (modelVersion > it->second.modelVersion) {
    // The model was retrained: its new prediction supersedes everything
    // this entry learned about the old one. Decay back and start over.
    resetEntry(it->second, modelVersion, baseLabel, space);
    ++shard.counters.resets;
  } else if (modelVersion < it->second.modelVersion) {
    // A lagging request stamped before the retrain: it must not reset
    // the entry *backward* and wipe post-retrain learning. Serve its own
    // baseline unrefined.
    ++shard.counters.untracked;
    return RefineDecision{baseLabel, false, false};
  }
  Entry& entry = it->second;

  RefineDecision decision;
  const Arm& best = entry.arms[entry.incumbent];
  // Measure the baseline before probing anything: an unmeasured incumbent
  // cannot be compared against.
  const bool baselineMeasured = best.count > 0;
  std::size_t probe = entry.arms.size();  // sentinel: nothing to probe
  if (baselineMeasured && shard.rng.uniform() < config_.exploreFraction) {
    // Probe the least-measured candidate; ties break uniformly at random
    // (single-pass reservoir draw) rather than positionally, so fleet
    // replicas exploring the same neighborhood concurrently fan out over
    // different arms instead of re-measuring the same one in lockstep.
    // Under a finite probeSamples budget only under-measured arms
    // qualify: a fully measured neighborhood is converged and serves the
    // incumbent until a re-centering win (or a version reset) re-opens
    // it.
    std::uint64_t minCount = 0;
    std::size_t ties = 0;
    for (std::size_t a = 0; a < entry.arms.size(); ++a) {
      const std::uint64_t count = entry.arms[a].count;
      if (config_.probeSamples > 0 && count >= config_.probeSamples) {
        continue;
      }
      if (probe == entry.arms.size() || count < minCount) {
        minCount = count;
        ties = 1;
        probe = a;
      } else if (count == minCount) {
        ++ties;
        if (shard.rng.below(ties) == 0) probe = a;
      }
    }
  }
  if (probe != entry.arms.size()) {
    decision.label = entry.arms[probe].label;
    decision.explore = true;
    ++shard.counters.explorations;
    // Probes are rare by construction (exploreFraction of warm traffic),
    // so an unsampled instant never shows up on the fast path.
    TP_TRACE_INSTANT("adapt.probe", decision.label);
  } else {
    decision.label = best.label;
    ++shard.counters.exploitations;
  }
  // "Refined" is measured against the model-side label the entry was
  // seeded with, not the passed-in baseline: once a win is written back
  // into the decision cache, the caller's baseline *is* the refined label
  // and comparing against it would under-report.
  decision.refined = decision.label != entry.baseLabel;
  return decision;
}

Observation Refiner::observe(const common::Fingerprint& fp,
                             std::uint64_t modelVersion, std::size_t label,
                             double seconds,
                             const runtime::PartitioningSpace& space) {
  Shard& shard = shardFor(fp);
  common::MutexLock lock(shard.mutex);

  Observation obs;
  const auto it = shard.entries.find(fp);
  if (it == shard.entries.end() || it->second.modelVersion != modelVersion) {
    ++shard.counters.staleObservations;
    return obs;
  }
  Entry& entry = it->second;
  obs.tracked = true;
  const auto arm = std::find_if(entry.arms.begin(), entry.arms.end(),
                                [&](const Arm& a) { return a.label == label; });
  if (arm == entry.arms.end()) {
    // A label outside the tracked neighborhood (e.g. served while the
    // entry was being re-seeded): nothing to learn against, but the
    // entry's incumbent is still valid for the caller.
    ++shard.counters.staleObservations;
    obs.bestLabel = entry.arms[entry.incumbent].label;
    obs.bestSeconds = entry.arms[entry.incumbent].meanSeconds;
    return obs;
  }
  ++shard.counters.observations;
  ++arm->count;
  arm->meanSeconds +=
      (seconds - arm->meanSeconds) / static_cast<double>(arm->count);

  if (electIncumbent(entry)) {
    ++shard.counters.wins;
    obs.improved = true;
    TP_TRACE_INSTANT("adapt.win", entry.arms[entry.incumbent].label);
    recenter(entry, space);
  }
  obs.bestLabel = entry.arms[entry.incumbent].label;
  obs.bestSeconds = entry.arms[entry.incumbent].meanSeconds;
  return obs;
}

std::vector<WinRecord> Refiner::exportWins(bool refinedOnly) const {
  std::vector<WinRecord> out;
  for (Shard& shard : shards_) {
    common::MutexLock lock(shard.mutex);
    for (const auto& [fp, entry] : shard.entries) {
      (void)fp;
      const Arm& best = entry.arms[entry.incumbent];
      if (refinedOnly && (best.label == entry.baseLabel || best.count == 0)) {
        continue;
      }
      WinRecord rec;
      rec.key = entry.key;
      rec.modelVersion = entry.modelVersion;
      rec.baseLabel = entry.baseLabel;
      rec.incumbentLabel = best.label;
      rec.incumbentMean = best.meanSeconds;
      for (const Arm& a : entry.arms) {
        if (a.count > 0) {
          rec.arms.push_back(WinArm{a.label, a.count, a.meanSeconds});
        }
      }
      out.push_back(std::move(rec));
    }
  }
  return out;
}

MergeResult Refiner::mergeWin(const WinRecord& rec,
                              const common::Fingerprint& fp,
                              std::uint64_t currentVersion) {
  MergeResult result;
  if (rec.modelVersion != currentVersion) {
    // Learned against a model this fleet has already replaced (or not
    // yet installed): its measurements say nothing about the current
    // prediction's neighborhood.
    ++result.stale;
    return result;
  }
  Shard& shard = shardFor(fp);
  common::MutexLock lock(shard.mutex);
  auto it = shard.entries.find(fp);
  if (it == shard.entries.end()) {
    if (shard.entries.size() >= maxKeysPerShard_) {
      sweepSuperseded(shard, currentVersion);
    }
    if (shard.entries.size() >= maxKeysPerShard_) {
      ++result.dropped;
      return result;
    }
    it = shard.entries.emplace(fp, Entry{}).first;
    Entry& entry = it->second;
    entry.key = rec.key;
    entry.modelVersion = rec.modelVersion;
    entry.baseLabel = rec.baseLabel;
    entry.incumbent = 0;
    // Seed with the baseline arm only; the remote evidence below is
    // the neighborhood. (resetEntry's unmeasured neighbor spawn would
    // make this replica re-probe arms the sender already measured.)
    entry.arms.push_back(Arm{rec.baseLabel, 0, 0.0});
  } else if (it->second.modelVersion > rec.modelVersion) {
    ++result.stale;
    return result;
  } else if (it->second.modelVersion < rec.modelVersion) {
    // This key has not served traffic since the version moved on: the
    // merge carries the same decay decide() would apply on next sight.
    Entry& entry = it->second;
    entry.modelVersion = rec.modelVersion;
    entry.baseLabel = rec.baseLabel;
    entry.incumbent = 0;
    entry.arms.clear();
    entry.arms.push_back(Arm{rec.baseLabel, 0, 0.0});
    ++shard.counters.resets;
  }
  Entry& entry = it->second;
  for (const WinArm& ra : rec.arms) {
    const auto arm =
        std::find_if(entry.arms.begin(), entry.arms.end(),
                     [&](const Arm& a) { return a.label == ra.label; });
    if (arm == entry.arms.end()) {
      if (entry.arms.size() >= config_.maxArms) continue;
      entry.arms.push_back(Arm{ra.label, ra.count, ra.meanSeconds});
    } else if (ra.count > arm->count ||
               (ra.count == arm->count &&
                ra.meanSeconds < arm->meanSeconds)) {
      // The better-measured side wins; equal counts break to the lower
      // measured mean. Replacing (never summing) keeps repeated
      // anti-entropy exchange of the same state idempotent.
      arm->count = ra.count;
      arm->meanSeconds = ra.meanSeconds;
    }
  }
  // Anchor on the record's incumbent before re-electing: the
  // minImprovement hysteresis makes elections path-dependent when two
  // arms sit within the margin of each other, and replicas must still
  // converge on ONE winner (and a snapshot restore must reproduce the
  // saved incumbent exactly). The record's incumbent takes over when
  // it is measured and strictly below the local incumbent's mean —
  // merge ties break to the lower measured mean — and a local arm
  // that is strictly better past the margin still wins the
  // re-election below.
  const std::size_t before = entry.incumbent;
  const auto anchor =
      std::find_if(entry.arms.begin(), entry.arms.end(), [&](const Arm& a) {
        return a.label == rec.incumbentLabel;
      });
  if (anchor != entry.arms.end() && anchor->count > 0) {
    const Arm& current = entry.arms[entry.incumbent];
    if (current.count == 0 || anchor->meanSeconds < current.meanSeconds) {
      entry.incumbent = static_cast<std::size_t>(anchor - entry.arms.begin());
    }
  }
  const bool elected = electIncumbent(entry);
  if (elected || entry.incumbent != before) {
    ++shard.counters.mergedWins;
    ++result.adopted;
    // No recenter here, deliberately: spawning unmeasured local arms
    // around a merged incumbent would make every replica re-open the
    // search the sender is already running. The sender's own recenter
    // keeps the frontier alive — at exactly one replica.
  } else {
    ++result.updated;
  }
  return result;
}

Refiner::Incumbent Refiner::incumbent(const common::Fingerprint& fp,
                                      std::uint64_t modelVersion) const {
  Shard& shard = shardFor(fp);
  common::MutexLock lock(shard.mutex);
  Incumbent out;
  const auto it = shard.entries.find(fp);
  if (it == shard.entries.end() || it->second.modelVersion != modelVersion) {
    return out;
  }
  const Entry& entry = it->second;
  out.tracked = true;
  out.label = entry.arms[entry.incumbent].label;
  out.meanSeconds = entry.arms[entry.incumbent].meanSeconds;
  for (const Arm& a : entry.arms) {
    if (a.count > 0) ++out.armsMeasured;
  }
  return out;
}

std::size_t Refiner::trackedKeys() const {
  std::size_t total = 0;
  for (Shard& shard : shards_) {
    common::MutexLock lock(shard.mutex);
    total += shard.entries.size();
  }
  return total;
}

RefinerCounters Refiner::counters() const {
  RefinerCounters total;
  for (Shard& shard : shards_) {
    common::MutexLock lock(shard.mutex);
    total.decisions += shard.counters.decisions;
    total.explorations += shard.counters.explorations;
    total.exploitations += shard.counters.exploitations;
    total.observations += shard.counters.observations;
    total.wins += shard.counters.wins;
    total.mergedWins += shard.counters.mergedWins;
    total.resets += shard.counters.resets;
    total.staleObservations += shard.counters.staleObservations;
    total.untracked += shard.counters.untracked;
  }
  return total;
}

}  // namespace tp::adapt
