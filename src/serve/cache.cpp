#include "serve/cache.hpp"

#include <array>
#include <cmath>

#include "common/error.hpp"

namespace tp::serve {

namespace {

/// std::pow(10.0, k) for k in [-kPow10Reach, kPow10Reach], built with pow
/// itself so a lookup returns exactly what the formula's pow call would.
/// The reach covers every power a double's exponent can ask for (beyond
/// +-330 pow returns inf or 0); past it roundSignificant calls pow.
constexpr int kPow10Reach = 400;

const double* pow10Table() {
  static const std::array<double, 2 * kPow10Reach + 1> table = [] {
    std::array<double, 2 * kPow10Reach + 1> t{};
    for (int k = -kPow10Reach; k <= kPow10Reach; ++k) {
      t[static_cast<std::size_t>(k + kPow10Reach)] =
          std::pow(10.0, static_cast<double>(k));
    }
    return t;
  }();
  return table.data() + kPow10Reach;
}

/// Relative distance from a power of ten inside which floor(log10(x)) may
/// round across the boundary (log10 is accurate to a few ulp, ~3e-13
/// relative at the largest exponents), so the exponent comes from log10
/// itself there.
constexpr double kLog10Window = 1e-12;

/// Calls visit(value) for each launch signature value, in signature order:
/// global/local size, transfer volumes, transfer amortization, then the
/// bound scalar parameters in name order (std::map iterates sorted, so
/// the layout is deterministic).
template <class Visit>
void forEachSignatureValue(const runtime::Task& task, Visit&& visit) {
  visit(static_cast<double>(task.globalSize));
  visit(static_cast<double>(task.localSize));
  visit(task.totalBytesIn());
  visit(task.totalBytesOut());
  visit(task.transferScale);
  for (const auto& [name, value] : task.sizeBindings) {
    (void)name;
    visit(value);
  }
}

}  // namespace

double roundSignificant(double v, int digits) {
  if (digits <= 0 || v == 0.0 || !std::isfinite(v)) {
    return v == 0.0 ? 0.0 : v;
  }
  const double* pow10 = pow10Table();
  // An integer with at most `digits` digits is its own rounding: the
  // formula below scales it by an exact power of ten to an integer under
  // 10^digits and back, exactly. Most signature values (sizes, byte
  // counts, bound parameters) take this exit. Digit counts stop at 14:
  // log10(10^15 - 1) rounds up to 15, and the formula then maps that
  // integer to 10^15.
  if (digits <= 14 && std::fabs(v) < pow10[digits] && v == std::trunc(v)) {
    return v;
  }
  // The formula is round(v * s) / s with s = pow(10, digits - 1 - e) and
  // e = floor(log10(|v|)). e comes from the binary exponent instead:
  // |v| in [2^(b-1), 2^b) puts e at floor((b - 1) log10 2) or one above
  // ((n * 78913) >> 18 is that floor for |n| <= 1200), settled against the
  // table. Only next to a power of ten, where the computed log10 may round
  // to the other side, does log10 decide.
  const double a = std::fabs(v);
  int binaryExponent = 0;
  (void)std::frexp(a, &binaryExponent);
  int exponent = ((binaryExponent - 1) * 78913) >> 18;
  if (a >= pow10[exponent + 1]) ++exponent;
  if (a < pow10[exponent] * (1.0 + kLog10Window) ||
      a > pow10[exponent + 1] * (1.0 - kLog10Window)) {
    exponent = static_cast<int>(std::floor(std::log10(a)));
  }
  const long long k = static_cast<long long>(digits) - 1 - exponent;
  const double scale = k >= -kPow10Reach && k <= kPow10Reach
                           ? pow10[k]
                           : std::pow(10.0, static_cast<double>(k));
  // Near the double range limits (|v| ~ 1e+-308) the scale or the product
  // can overflow; an unrounded key is still a valid, self-equal key,
  // whereas a NaN component would never equal itself.
  if (!std::isfinite(scale) || scale == 0.0) return v;
  const double rounded = std::round(v * scale) / scale;
  if (!std::isfinite(rounded)) return v;
  return rounded == 0.0 ? 0.0 : rounded;
}

std::vector<double> launchSignature(const runtime::Task& task) {
  std::vector<double> sig;
  sig.reserve(5 + task.sizeBindings.size());
  forEachSignatureValue(task, [&](double v) { sig.push_back(v); });
  return sig;
}

void quantizeSignature(const runtime::Task& task, int roundDigits,
                       std::vector<double>& out) {
  out.clear();
  forEachSignatureValue(task, [&](double v) {
    out.push_back(roundSignificant(v, roundDigits));
  });
}

std::string programKey(const runtime::Task& task) {
  return task.programName + "/" + task.kernelName;
}

common::Fingerprint launchFingerprint(std::uint32_t pairId,
                                      const runtime::Task& task,
                                      int roundDigits) noexcept {
  // Folds exactly the values quantizeSignature() writes, in the same
  // order, so the streaming and vector forms agree on every launch.
  common::FingerprintBuilder fb;
  fb.u64(pairId);
  forEachSignatureValue(
      task, [&](double v) { fb.f64(roundSignificant(v, roundDigits)); });
  return fb.take();
}

common::Fingerprint launchFingerprint(
    std::uint32_t pairId,
    const std::vector<double>& quantizedSignature) noexcept {
  common::FingerprintBuilder fb;
  fb.u64(pairId);
  for (const double v : quantizedSignature) fb.f64(v);
  return fb.take();
}

namespace {

constexpr std::uint64_t kOccupied = 1ull << 63;
// Meta word layout: occupied(1) | version(43) | label(20). 20 label bits
// cover a 10-device space at 10% steps (C(19,9) = 92378 labels) with
// headroom; keys that still do not fit are served uncached rather than
// failing (see insert()).
constexpr unsigned kLabelBits = 20;
constexpr std::uint64_t kLabelMask = (1ull << kLabelBits) - 1;
constexpr std::uint64_t kVersionMask = (1ull << (63 - kLabelBits)) - 1;

std::uint64_t packMeta(std::uint64_t version, std::size_t label) {
  return kOccupied | (version << kLabelBits) | label;
}
std::uint64_t metaVersion(std::uint64_t meta) {
  return (meta >> kLabelBits) & kVersionMask;
}
std::size_t metaLabel(std::uint64_t meta) {
  return static_cast<std::size_t>(meta & kLabelMask);
}

}  // namespace

DecisionCache::DecisionCache(std::size_t capacity, int roundDigits)
    : roundDigits_(roundDigits) {
  TP_REQUIRE(capacity > 0, "DecisionCache: capacity must be > 0");
  std::size_t n = 1;
  while (n < capacity) n <<= 1;
  numSlots_ = n;
  mask_ = n - 1;
  window_ = n < 16 ? n : 16;
  slots_ = std::vector<Slot>(numSlots_);
  fullKeys_ = std::make_unique<runtime::LaunchKey[]>(numSlots_);
  counterStripes_ = std::vector<CounterStripe>(common::defaultStripes());
}

DecisionKey DecisionCache::makeKey(std::string machine, std::string program,
                                   std::vector<double> signature) const
    TP_LOCK_FREE_AUDITED(
        "acquire-load of the version word pairs with the acq_rel bump in "
        "bumpVersion/advanceVersion, so a key stamped with generation v "
        "observes generation v's models; TSan: test_serve_cache "
        "DecisionCacheDifferential.ConcurrentStreamWithVersionBumps") {
  for (double& v : signature) v = roundSignificant(v, roundDigits_);
  return DecisionKey{
      {std::move(machine), std::move(program), std::move(signature)},
      version_.load(std::memory_order_acquire)};
}

std::optional<std::size_t> DecisionCache::lookup(
    const common::Fingerprint& fp, std::uint64_t version) noexcept {
  CounterStripe& counters = stripe();
  counters.lookups.fetch_add(1, std::memory_order_relaxed);
  const std::size_t home = static_cast<std::size_t>(fp.lo) & mask_;
  // Entries live anywhere inside the probe window (an earlier slot may
  // have been evicted since insertion), so the scan never early-exits on
  // an empty slot.
  for (std::size_t i = 0; i < window_; ++i) {
    Slot& slot = slots_[(home + i) & mask_];
    for (int attempt = 0; attempt < 4; ++attempt) {
      const std::uint32_t s1 = slot.seq.load(std::memory_order_acquire);
      if (s1 & 1u) continue;  // writer inside; retry the snapshot
      // Fence-free seqlock read: the acquire on each field load keeps the
      // revalidating seq load below from reordering above it (and TSan
      // models acquire loads, unlike thread fences).
      const std::uint64_t hi = slot.fpHi.load(std::memory_order_acquire);
      const std::uint64_t lo = slot.fpLo.load(std::memory_order_acquire);
      const std::uint64_t meta = slot.meta.load(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) != s1) continue;
      // Consistent snapshot.
      if ((meta & kOccupied) != 0 && hi == fp.hi && lo == fp.lo &&
          metaVersion(meta) == version) {
        // CLOCK second chance: mark referenced, but only write the bit
        // when unset so steady-state hot hits stay read-only.
        if (slot.ref.load(std::memory_order_relaxed) == 0) {
          slot.ref.store(1, std::memory_order_relaxed);
        }
        counters.hits.fetch_add(1, std::memory_order_relaxed);
        return metaLabel(meta);
      }
      break;  // valid snapshot, not our entry at this version: next slot
    }
  }
  counters.misses.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

void DecisionCache::insert(const common::Fingerprint& fp,
                           const DecisionKey& key, std::size_t label) {
  if (label > kLabelMask || key.modelVersion > kVersionMask) {
    // Does not fit the packed meta word (a pathologically huge
    // partitioning space, or a version counter beyond 2^43). Degrade to
    // uncached serving for this key — the model path still answers every
    // request — instead of turning every miss into a hard failure.
    return;
  }
  const std::size_t home = static_cast<std::size_t>(fp.lo) & mask_;
  CounterStripe& counters = stripe();
  for (int attempt = 0;; ++attempt) {
    // Candidate scan (unsynchronized reads; every decision is re-validated
    // inside the slot critical section below). Prefer, in order: the
    // slot already holding this fingerprint, an empty slot, the CLOCK
    // victim.
    std::size_t target = numSlots_;
    std::size_t empty = numSlots_;
    bool expectMatch = false;
    bool victimMode = false;
    for (std::size_t i = 0; i < window_; ++i) {
      const std::size_t at = (home + i) & mask_;
      const Slot& slot = slots_[at];
      const std::uint64_t meta = slot.meta.load(std::memory_order_relaxed);
      if ((meta & kOccupied) == 0) {
        if (empty == numSlots_) empty = at;
        continue;
      }
      if (slot.fpHi.load(std::memory_order_relaxed) == fp.hi &&
          slot.fpLo.load(std::memory_order_relaxed) == fp.lo) {
        target = at;
        expectMatch = true;
        break;
      }
    }
    if (target == numSlots_ && empty != numSlots_) target = empty;
    if (target == numSlots_) {
      // CLOCK second chance over the window: clear reference bits until an
      // unreferenced victim appears; if every entry was referenced, the
      // now-cleared home slot is the victim.
      for (std::size_t i = 0; i < window_; ++i) {
        const std::size_t at = (home + i) & mask_;
        if (slots_[at].ref.load(std::memory_order_relaxed) != 0) {
          slots_[at].ref.store(0, std::memory_order_relaxed);
        } else {
          target = at;
          break;
        }
      }
      if (target == numSlots_) target = home;
      victimMode = true;
    }

    Slot& slot = slots_[target];
    const std::uint32_t s = common::seqClaim(slot.seq);
    // A retrain may have raced ahead of this decision: never let a
    // stale-model label into the fresh cache generation. Checked inside
    // the critical section — the sweep claims every slot after the
    // version moved, so an insert that passes here either carries the
    // new version or its slot is visited (and cleared) by that sweep.
    if (key.modelVersion != version_.load(std::memory_order_acquire)) {
      common::seqRelease(slot.seq, s);
      return;
    }
    const std::uint64_t meta = slot.meta.load(std::memory_order_relaxed);
    const bool occupied = (meta & kOccupied) != 0;
    const bool fpEqual =
        occupied && slot.fpHi.load(std::memory_order_relaxed) == fp.hi &&
        slot.fpLo.load(std::memory_order_relaxed) == fp.lo;
    // Rescan when the slot changed under the candidate scan — the entry we
    // meant to refresh moved, or a racer filled the empty slot we chose —
    // rather than spuriously evicting whatever took it. (A deliberate
    // CLOCK victim is expected to be occupied.)
    const bool surprised =
        expectMatch ? !fpEqual : (occupied && !victimMode && !fpEqual);
    if (surprised && attempt < 3) {
      common::seqRelease(slot.seq, s);
      continue;
    }
    if (fpEqual) {
      // Refresh. Same fingerprint with a different full key is a detected
      // 128-bit collision: count it, newest key wins.
      if (fullKeys_[target] != key.launch) {
        counters.collisions.fetch_add(1, std::memory_order_relaxed);
        fullKeys_[target] = key.launch;
      }
    } else if (occupied) {
      counters.evictions.fetch_add(1, std::memory_order_relaxed);
      counters.insertions.fetch_add(1, std::memory_order_relaxed);
      fullKeys_[target] = key.launch;
    } else {
      counters.insertions.fetch_add(1, std::memory_order_relaxed);
      fullKeys_[target] = key.launch;
    }
    // Release stores, not relaxed: nothing orders a relaxed field store
    // after the seq-odd claim in other threads' view (on ARM a plain
    // store may become visible before the claim's release store), so a
    // lock-free reader could pair a new fingerprint with stale meta and
    // still validate against the old even seq. With release stores, a
    // reader whose acquire load observes any new field value also
    // observes seq as odd and retries.
    slot.fpHi.store(fp.hi, std::memory_order_release);
    slot.fpLo.store(fp.lo, std::memory_order_release);
    slot.meta.store(packMeta(key.modelVersion, label),
                    std::memory_order_release);
    slot.ref.store(1, std::memory_order_relaxed);  // advisory CLOCK bit only
    common::seqRelease(slot.seq, s);
    return;
  }
}

std::uint64_t DecisionCache::version() const noexcept
    TP_LOCK_FREE_AUDITED(
        "acquire-load pairing with the acq_rel version movement, see "
        "makeKey; TSan: test_serve_cache "
        "DecisionCacheDifferential.ConcurrentStreamWithVersionBumps") {
  return version_.load(std::memory_order_acquire);
}

std::uint64_t DecisionCache::bumpVersion()
    TP_LOCK_FREE_AUDITED(
        "acq_rel increment of the version word invalidates older "
        "generations; stale in-flight inserts are dropped inside the slot "
        "critical section; TSan: test_serve_cache "
        "DecisionCacheDifferential.ConcurrentStreamWithVersionBumps") {
  const std::uint64_t v = version_.fetch_add(1, std::memory_order_acq_rel) + 1;
  clearStale();
  return v;
}

std::uint64_t DecisionCache::advanceVersion(std::uint64_t version)
    TP_LOCK_FREE_AUDITED(
        "acq_rel CAS race to move the version forward; exactly one winner "
        "sweeps, same contract as bumpVersion; TSan: test_serve_cache "
        "DecisionCacheDifferential.ConcurrentStreamWithVersionBumps") {
  std::uint64_t current = version_.load(std::memory_order_acquire);
  while (current < version &&
         !version_.compare_exchange_weak(current, version,
                                         std::memory_order_acq_rel)) {
  }
  if (current < version) {
    // We won the race to move the version forward: sweep, like
    // bumpVersion() does (fresh-version inserts racing the sweep survive).
    clearStale();
    return version;
  }
  return current;
}

void DecisionCache::sweep(bool staleOnly)
    TP_LOCK_FREE_AUDITED(
        "seqlock writer over every slot: claim odd, clear fields with "
        "release stores (a reader observing cleared fields also observes "
        "the odd sequence and retries), release even; TSan: "
        "test_serve_cache DecisionCacheDifferential."
        "ConcurrentStreamWithVersionBumps") {
  CounterStripe& counters = stripe();
  for (std::size_t i = 0; i < numSlots_; ++i) {
    Slot& slot = slots_[i];
    const std::uint32_t s = common::seqClaim(slot.seq);
    const std::uint64_t meta = slot.meta.load(std::memory_order_relaxed);
    const bool drop =
        (meta & kOccupied) != 0 &&
        (!staleOnly ||
         metaVersion(meta) != version_.load(std::memory_order_acquire));
    if (drop) {
      // Release for the same reason as insert(): a reader observing the
      // cleared fields must also observe the odd seq and retry.
      slot.meta.store(0, std::memory_order_release);
      slot.fpHi.store(0, std::memory_order_release);
      slot.fpLo.store(0, std::memory_order_release);
      slot.ref.store(0, std::memory_order_relaxed);
      fullKeys_[i] = runtime::LaunchKey{};  // release the key's heap storage
      counters.invalidations.fetch_add(1, std::memory_order_relaxed);
    }
    common::seqRelease(slot.seq, s);
  }
}

void DecisionCache::clearStale() { sweep(/*staleOnly=*/true); }

void DecisionCache::clear() { sweep(/*staleOnly=*/false); }

std::size_t DecisionCache::size() const
    TP_LOCK_FREE_AUDITED(
        "seqlock reader: acquire-load of the even sequence word, then meta, "
        "then a re-check; bounded retries, count is advisory under churn; "
        "TSan: test_serve_cache "
        "DecisionCacheContention.CountersAndCapacityStayConsistent") {
  std::size_t occupied = 0;
  for (const Slot& slot : slots_) {
    for (int attempt = 0; attempt < 8; ++attempt) {
      const std::uint32_t s1 = slot.seq.load(std::memory_order_acquire);
      if (s1 & 1u) continue;
      const std::uint64_t meta = slot.meta.load(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) != s1) continue;
      occupied += (meta & kOccupied) != 0 ? 1 : 0;
      break;
    }
  }
  return occupied;
}

CacheCounters DecisionCache::counters() const
    TP_LOCK_FREE_AUDITED(
        "relaxed sums over per-stripe monotonic counters; cross-stripe "
        "consistency is not promised; TSan: test_serve_cache "
        "DecisionCacheContention.CountersAndCapacityStayConsistent") {
  CacheCounters total;
  for (const CounterStripe& s : counterStripes_) {
    total.lookups += s.lookups.load(std::memory_order_relaxed);
    total.hits += s.hits.load(std::memory_order_relaxed);
    total.misses += s.misses.load(std::memory_order_relaxed);
    total.insertions += s.insertions.load(std::memory_order_relaxed);
    total.evictions += s.evictions.load(std::memory_order_relaxed);
    total.invalidations += s.invalidations.load(std::memory_order_relaxed);
    total.collisions += s.collisions.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace tp::serve
