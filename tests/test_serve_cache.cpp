// Differential property tests for the lock-free fingerprinted decision
// cache: drive serve::DecisionCache and a reference std::unordered_map
// model with identical operation streams and assert decision
// equivalence (every cache hit returns exactly the reference's value —
// the cache may forget, it may never lie), counter reconciliation, and
// correct behavior across model-version bumps. The concurrent phases run
// under ThreadSanitizer in CI (this suite matches the tsan preset
// filter), exercising the hit path under contention: hits perform no
// heap allocation and acquire no lock, so TSan sees only atomics. Later
// tests check that every launch-signature field separates cache keys and
// that the quantizer equals its reference formula bit for bit.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/intern.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "serve/cache.hpp"
#include "serve/service.hpp"
#include "suite/benchmark.hpp"

namespace tp::serve {
namespace {

/// One synthetic key universe: keys are indexed 0..n-1, labels are a pure
/// function of the index, fingerprints flow through a PairInterner the
/// way PartitionService's do.
struct KeyUniverse {
  common::PairInterner interner{512};
  int roundDigits = 6;

  std::string machineOf(std::size_t i) const {
    return i % 2 == 0 ? "mc1" : "mc2";
  }
  std::string programOf(std::size_t i) const {
    return "prog" + std::to_string(i % 7) + "/kern" + std::to_string(i % 3);
  }
  std::vector<double> signatureOf(std::size_t i) const {
    return {static_cast<double>(1 + i) * 1024.0, 64.0,
            static_cast<double>(i % 5)};
  }
  static std::size_t labelOf(std::size_t i) { return (i * 31 + 7) % 97; }

  DecisionKey fullKey(const DecisionCache& cache, std::size_t i) const {
    return cache.makeKey(machineOf(i), programOf(i), signatureOf(i));
  }
  common::Fingerprint fingerprint(const DecisionKey& key) {
    const std::uint32_t pairId =
        interner.intern(key.launch.machine, key.launch.program);
    return launchFingerprint(pairId, key.launch.signature);
  }
};

struct ReferenceKeyHash {
  std::size_t operator()(const DecisionKey& k) const noexcept {
    return runtime::LaunchKeyHash{}(k.launch) ^ k.modelVersion;
  }
};
using ReferenceModel =
    std::unordered_map<DecisionKey, std::size_t, ReferenceKeyHash>;

TEST(DecisionCacheDifferential, SingleThreadedOperationStream) {
  // 20k random ops over 160 keys against a 64-slot cache: lookups,
  // inserts, occasional version bumps/advances and full clears. The
  // reference model never evicts, so: every cache hit must match the
  // reference exactly, and every key absent from the reference must miss.
  DecisionCache cache(64);
  KeyUniverse u;
  ReferenceModel reference;
  common::Rng rng(0xD1FFu);
  constexpr std::size_t kKeys = 160;
  constexpr std::size_t kOps = 20000;
  std::uint64_t hits = 0;

  for (std::size_t op = 0; op < kOps; ++op) {
    const std::uint64_t dice = rng.below(1000);
    if (dice < 3) {
      cache.bumpVersion();
      // Mirror the epoch sweep: the reference drops older generations.
      std::erase_if(reference, [&](const auto& kv) {
        return kv.first.modelVersion != cache.version();
      });
      continue;
    }
    if (dice < 5) {
      cache.advanceVersion(cache.version() + 1 + rng.below(3));
      std::erase_if(reference, [&](const auto& kv) {
        return kv.first.modelVersion != cache.version();
      });
      continue;
    }
    if (dice < 7) {
      cache.clear();
      reference.clear();
      continue;
    }
    const std::size_t i = rng.below(kKeys);
    const DecisionKey key = u.fullKey(cache, i);
    const common::Fingerprint fp = u.fingerprint(key);
    const auto hit = cache.lookup(fp, key.modelVersion);
    const auto ref = reference.find(key);
    if (hit.has_value()) {
      ++hits;
      // Decision equivalence: a hit may never disagree with the model.
      ASSERT_NE(ref, reference.end())
          << "cache served a key the reference never saw (op " << op << ")";
      ASSERT_EQ(*hit, ref->second) << "label mismatch at op " << op;
    } else {
      const std::size_t label = KeyUniverse::labelOf(i);
      cache.insert(fp, key, label);
      reference[key] = label;
    }
  }

  EXPECT_GT(hits, kOps / 10);  // the stream actually exercised the hit path
  const auto c = cache.counters();
  EXPECT_EQ(c.lookups, c.hits + c.misses);
  EXPECT_EQ(c.insertions - c.evictions - c.invalidations, cache.size());
  EXPECT_EQ(c.collisions, 0u);
  EXPECT_LE(cache.size(), cache.capacity());

  // Post-stream sweep equivalence: everything the cache still holds must
  // be served with the reference's value.
  std::size_t resident = 0;
  for (std::size_t i = 0; i < kKeys; ++i) {
    const DecisionKey key = u.fullKey(cache, i);
    const common::Fingerprint fp = u.fingerprint(key);
    if (const auto hit = cache.lookup(fp, key.modelVersion)) {
      const auto ref = reference.find(key);
      ASSERT_NE(ref, reference.end());
      EXPECT_EQ(*hit, ref->second);
      ++resident;
    }
  }
  EXPECT_EQ(resident, cache.size());
}

TEST(DecisionCacheDifferential, ConcurrentHitsUnderContentionStayExact) {
  // The warm-path property under contention: readers hammer a resident
  // working set (smaller than capacity, so nothing is ever evicted) while
  // writers refresh the same keys with the same labels. Every hit must
  // carry the key's one true label; counters must reconcile afterwards.
  DecisionCache cache(256);
  KeyUniverse u;
  constexpr std::size_t kKeys = 96;

  // Pre-resolve keys/fingerprints so worker threads do pure cache ops.
  std::vector<DecisionKey> keys;
  std::vector<common::Fingerprint> fps;
  for (std::size_t i = 0; i < kKeys; ++i) {
    keys.push_back(u.fullKey(cache, i));
    fps.push_back(u.fingerprint(keys.back()));
    cache.insert(fps.back(), keys.back(), KeyUniverse::labelOf(i));
  }
  ASSERT_EQ(cache.size(), kKeys);

  common::ThreadPool pool(8);
  std::atomic<std::uint64_t> wrong{0};
  std::atomic<std::uint64_t> misses{0};
  pool.parallelFor(0, 40000, [&](std::size_t op) {
    const std::size_t i = (op * 2654435761u) % kKeys;
    if (op % 16 == 0) {
      cache.insert(fps[i], keys[i], KeyUniverse::labelOf(i));  // refresh
      return;
    }
    const auto hit = cache.lookup(fps[i], 0);
    if (!hit.has_value()) {
      misses.fetch_add(1);
    } else if (*hit != KeyUniverse::labelOf(i)) {
      wrong.fetch_add(1);
    }
  });
  pool.waitIdle();

  EXPECT_EQ(wrong.load(), 0u);
  // Nothing is evicted (working set < capacity) and refreshes keep the
  // entries resident; a rare transient miss can only come from a seqlock
  // retry exhaustion during a concurrent refresh of the same slot.
  EXPECT_LE(misses.load(), 4000u);
  EXPECT_EQ(cache.size(), kKeys);
  const auto c = cache.counters();
  EXPECT_EQ(c.lookups, c.hits + c.misses);
  EXPECT_EQ(c.insertions - c.evictions - c.invalidations, cache.size());
}

TEST(DecisionCacheDifferential, ConcurrentStreamWithVersionBumps) {
  // Mixed readers/writers/version bumpers. Labels are a pure function of
  // (key, version): hits must always return the label inserted for the
  // version they were asked about — a bump may cost hits, never truth.
  DecisionCache cache(128);
  KeyUniverse u;
  constexpr std::size_t kKeys = 64;

  std::vector<std::string> machines;
  std::vector<std::string> programs;
  std::vector<std::vector<double>> signatures;
  std::vector<common::Fingerprint> fps;
  for (std::size_t i = 0; i < kKeys; ++i) {
    machines.push_back(u.machineOf(i));
    programs.push_back(u.programOf(i));
    signatures.push_back(u.signatureOf(i));
    const std::uint32_t pairId = u.interner.intern(machines[i], programs[i]);
    DecisionKey probe = cache.makeKey(machines[i], programs[i], signatures[i]);
    fps.push_back(launchFingerprint(pairId, probe.launch.signature));
  }

  common::ThreadPool pool(8);
  std::atomic<std::uint64_t> wrong{0};
  pool.parallelFor(0, 30000, [&](std::size_t op) {
    if (op % 4000 == 0) {
      cache.bumpVersion();
      return;
    }
    const std::size_t i = op % kKeys;
    // makeKey stamps the current version — exactly what the service does
    // at request start.
    const DecisionKey key =
        cache.makeKey(machines[i], programs[i], signatures[i]);
    const std::size_t expected =
        (KeyUniverse::labelOf(i) + key.modelVersion) % 97;
    if (const auto hit = cache.lookup(fps[i], key.modelVersion)) {
      if (*hit != expected) wrong.fetch_add(1);
    } else {
      cache.insert(fps[i], key, expected);
    }
  });
  pool.waitIdle();

  EXPECT_EQ(wrong.load(), 0u);
  const auto c = cache.counters();
  EXPECT_EQ(c.lookups, c.hits + c.misses);
  EXPECT_EQ(c.insertions - c.evictions - c.invalidations, cache.size());

  // After a final sweep only current-generation entries remain.
  cache.clearStale();
  const std::uint64_t v = cache.version();
  std::size_t resident = 0;
  for (std::size_t i = 0; i < kKeys; ++i) {
    if (const auto hit = cache.lookup(fps[i], v)) {
      EXPECT_EQ(*hit, (KeyUniverse::labelOf(i) + v) % 97);
      ++resident;
    }
  }
  // >= rather than ==: two racing inserts of one fingerprint may occupy
  // two slots transiently (both carry the same label, so hits stay
  // correct); resident counts distinct fingerprints.
  EXPECT_GE(cache.size(), resident);
}

/// The read (or written) buffer argument with the most bytes, or nullptr.
runtime::BufferArg* largestBuffer(runtime::Task& task, bool written) {
  runtime::BufferArg* best = nullptr;
  for (auto& arg : task.args) {
    auto* b = std::get_if<runtime::BufferArg>(&arg);
    if (b == nullptr || (written ? !b->isWritten : !b->isRead)) continue;
    if (best == nullptr || b->buffer->bytes() > best->buffer->bytes()) best = b;
  }
  return best;
}

TEST(LaunchIdentity, EverySignatureFieldSeparatesKeys) {
  // Launches that differ in one signature field only are different
  // decisions: the field must land at its own signature position, and
  // both fingerprint forms and the cache key must tell the launches apart.
  runtime::Task base;
  bool found = false;
  for (const auto& bench : suite::allBenchmarks()) {
    base = bench.make(bench.sizes.front()).task;
    found = !base.sizeBindings.empty() &&
            largestBuffer(base, false) != nullptr &&
            largestBuffer(base, true) != nullptr;
    if (found) break;
  }
  ASSERT_TRUE(found) << "no suite task with bindings and in/out buffers";

  constexpr int kDigits = 6;
  const std::string machine = "mc2";
  const std::string program = programKey(base);
  common::PairInterner interner(8);
  const std::uint32_t pair = interner.intern(machine, program);
  DecisionCache cache(8, kDigits);
  std::vector<double> baseSig;
  quantizeSignature(base, kDigits, baseSig);
  // global, local, bytes in, bytes out, transfer scale, then the bindings.
  ASSERT_EQ(baseSig.size(), 5 + base.sizeBindings.size());
  const common::Fingerprint baseFp = launchFingerprint(pair, base, kDigits);
  const DecisionKey baseKey =
      cache.makeKey(machine, program, launchSignature(base));

  struct Perturbation {
    std::string field;
    std::set<std::size_t> moved;  ///< signature positions that must change
    std::function<void(runtime::Task&)> apply;
  };
  // Each perturbation moves its value far past the 6-digit rounding. The
  // transfer volumes carry the transfer scale, so it moves three values.
  std::vector<Perturbation> perturbations = {
      {"globalSize", {0}, [](runtime::Task& t) { t.globalSize *= 2; }},
      {"localSize", {1}, [](runtime::Task& t) { t.localSize *= 2; }},
      {"bytesIn", {2},
       [](runtime::Task& t) { largestBuffer(t, false)->isRead = false; }},
      {"bytesOut", {3},
       [](runtime::Task& t) { largestBuffer(t, true)->isWritten = false; }},
      {"transferScale", {2, 3, 4},
       [](runtime::Task& t) { t.transferScale *= 0.5; }},
  };
  std::size_t position = 5;
  for (const auto& [name, value] : base.sizeBindings) {
    (void)value;
    perturbations.push_back(
        {"binding " + name, {position++}, [name = name](runtime::Task& t) {
           t.sizeBindings[name] = t.sizeBindings[name] * 2.0 + 1.0;
         }});
  }

  for (const Perturbation& p : perturbations) {
    SCOPED_TRACE(p.field);
    runtime::Task task = base;
    p.apply(task);
    std::vector<double> sig;
    quantizeSignature(task, kDigits, sig);
    ASSERT_EQ(sig.size(), baseSig.size());
    EXPECT_NE(sig, baseSig);
    for (std::size_t i = 0; i < sig.size(); ++i) {
      EXPECT_EQ(sig[i] != baseSig[i], p.moved.count(i) == 1)
          << "signature position " << i;
    }
    const common::Fingerprint streamed = launchFingerprint(pair, task, kDigits);
    EXPECT_EQ(streamed, launchFingerprint(pair, sig));
    EXPECT_NE(streamed, baseFp);
    EXPECT_NE(cache.makeKey(machine, program, launchSignature(task)), baseKey);
  }
}

// ---- roundSignificant against its reference formula -------------------------

/// The quantizer's definition: e = floor(log10(|v|)), then
/// round(v * 10^(digits-1-e)) / 10^(digits-1-e), with every power from
/// log10 and pow. roundSignificant() must equal it bit for bit.
double roundByFormula(double v, int digits) {
  if (digits <= 0 || v == 0.0 || !std::isfinite(v)) {
    return v == 0.0 ? 0.0 : v;
  }
  const double exponent = std::floor(std::log10(std::fabs(v)));
  const double scale =
      std::pow(10.0, static_cast<double>(digits - 1) - exponent);
  if (!std::isfinite(scale) || scale == 0.0) return v;
  const double rounded = std::round(v * scale) / scale;
  if (!std::isfinite(rounded)) return v;
  return rounded == 0.0 ? 0.0 : rounded;
}

/// Compares roundSignificant with the formula bit for bit, reporting the
/// first few mismatches.
struct FormulaCheck {
  std::size_t mismatches = 0;

  void operator()(double v, int digits) {
    const double fast = roundSignificant(v, digits);
    const double formula = roundByFormula(v, digits);
    if (std::bit_cast<std::uint64_t>(fast) !=
            std::bit_cast<std::uint64_t>(formula) &&
        ++mismatches <= 5) {
      ADD_FAILURE() << std::hexfloat << v << " at " << digits
                    << " digits: " << fast << " vs " << formula;
    }
  }
};

TEST(RoundSignificant, IntegerFastPathMatchesTheFormula) {
  FormulaCheck check;
  // Every integer in [-10^6, 10^6] at each digit count whose fast-path
  // bound 10^digits falls inside that range or at its end (1-7; above 7
  // every one of them takes the fast path, as at 7).
  for (int digits = 1; digits <= 7; ++digits) {
    for (int v = -1000000; v <= 1000000; ++v) check(v, digits);
  }
  std::vector<double> values;
  // Every decade's edges, past the fast path's reach.
  double decade = 1.0;
  for (int k = 0; k <= 17; ++k, decade *= 10.0) {
    for (const double d : {-2.0, -1.0, 0.0, 1.0, 2.0}) {
      values.push_back(decade + d);
      values.push_back(-(decade + d));
    }
  }
  // Random integers of every bit length up to 53.
  common::Rng rng(97);
  for (int i = 0; i < 100000; ++i) {
    const auto bits = static_cast<int>(rng.below(53)) + 1;
    const auto magnitude = static_cast<double>(rng() >> (64 - bits));
    values.push_back(rng.below(2) == 0 ? magnitude : -magnitude);
  }
  for (int digits = 1; digits <= 15; ++digits) {
    for (const double v : values) check(v, digits);
  }
  EXPECT_EQ(check.mismatches, 0u);
}

TEST(RoundSignificant, TableExponentMatchesTheFormula) {
  // The decimal exponent comes from the binary exponent and a pow table,
  // and from log10 only next to a power of ten. Probe where that could
  // go wrong: every suite signature value, the doubles within 4 ulp of
  // each power of ten a double reaches (1e-324 to 1e308: subnormal table
  // entries lie percent away from the true power), and 1M random doubles
  // spread over every exponent, the overflow edges included.
  FormulaCheck check;
  std::vector<double> values;
  for (const auto& bench : suite::allBenchmarks()) {
    for (const std::size_t size : bench.sizes) {
      for (const double v : launchSignature(bench.make(size).task)) {
        values.push_back(v);
      }
    }
  }
  for (int k = -324; k <= 308; ++k) {
    const double power = std::pow(10.0, static_cast<double>(k));
    double below = power;
    double above = power;
    values.push_back(power);
    for (int ulp = 1; ulp <= 4; ++ulp) {
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, HUGE_VAL);
      values.push_back(below);
      values.push_back(above);
    }
  }
  for (const double v : std::vector<double>(values)) values.push_back(-v);
  for (int digits = 1; digits <= 17; ++digits) {
    for (const double v : values) check(v, digits);
  }

  common::Rng rng(2024);
  for (int i = 0; i < 1000000; ++i) {
    // Uniform over the biased exponents of finite doubles (0 =
    // subnormal), random sign and mantissa.
    const std::uint64_t exponentField = rng.below(2047);
    const std::uint64_t bits = (rng() & 0x800FFFFFFFFFFFFFull) |
                               (exponentField << 52);
    const double v = std::bit_cast<double>(bits);
    check(v, kCacheRoundDigits);
    check(v, static_cast<int>(rng.below(17)) + 1);
  }
  EXPECT_EQ(check.mismatches, 0u);
}

}  // namespace
}  // namespace tp::serve
