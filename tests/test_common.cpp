// Unit tests for tp_common: RNG determinism and distributions, statistics,
// CSV round-trips, string utilities, thread pool behaviour, the shared
// word-fold key hashes (split/joined equivalence, collision sanity), wire
// serialization, the pair
// interner, the striped in-flight latch and the numbered-file store.

#include <gtest/gtest.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <set>
#include <sstream>
#include <unordered_set>

#include <string>
#include <thread>
#include <vector>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/intern.hpp"
#include "common/numbered_files.hpp"
#include "common/rng.hpp"
#include "common/serial.hpp"
#include "common/stats.hpp"
#include "common/str.hpp"
#include "common/striped.hpp"
#include "common/thread_pool.hpp"

namespace tp::common {
namespace {

TEST(Rng, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowIsUnbiasedOverSmallRange) {
  Rng rng(13);
  std::vector<int> counts(5, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[rng.below(5)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.2, 0.02);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(17);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, GaussianMoments) {
  Rng rng(19);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.gaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  rng.shuffle(v);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 100u);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(29);
  Rng child = parent.split();
  EXPECT_NE(parent(), child());
}

// The next eight outputs of a generator: equal states give equal outputs,
// and eight consecutive outputs pin all 256 state bits in practice.
std::vector<std::uint64_t> nextOutputs(Rng rng) {
  std::vector<std::uint64_t> out;
  for (int i = 0; i < 8; ++i) out.push_back(rng());
  return out;
}

Rng stepped(Rng rng, std::uint64_t k) {
  for (std::uint64_t i = 0; i < k; ++i) static_cast<void>(rng());
  return rng;
}

Rng jumped(Rng rng, std::uint64_t k) {
  rng.jump(k);
  return rng;
}

// The first jump in this binary derives the jump table; eight threads race
// to it (TSan runs this suite) and must all land on the same state.
TEST(Rng, FirstJumpsFromManyThreadsAgree) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kSteps = (std::uint64_t{1} << 40) + 12345;
  std::atomic<bool> go{false};
  std::vector<std::vector<std::uint64_t>> outputs(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&go, &outputs, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      outputs[static_cast<std::size_t>(t)] =
          nextOutputs(jumped(Rng(31), kSteps));
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  for (const auto& out : outputs) EXPECT_EQ(out, outputs[0]);
  EXPECT_EQ(outputs[0], nextOutputs(jumped(Rng(31), kSteps)));
}

TEST(Rng, JumpEqualsSingleSteps) {
  for (const std::uint64_t k :
       {0ull, 1ull, 63ull, 64ull, 255ull, 256ull, 257ull, (1ull << 20) + 3}) {
    EXPECT_EQ(nextOutputs(jumped(Rng(37), k)), nextOutputs(stepped(Rng(37), k)))
        << "k = " << k;
  }
  // Seeded distances touching every table entry up to 2^23; larger ones are
  // pinned by JumpsCompose and the published 2^128 constant below, since
  // stepping 2^32 outputs one by one takes seconds.
  Rng pick(41);
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t k = pick.below(std::uint64_t{1} << 24);
    const Rng start(pick());
    EXPECT_EQ(nextOutputs(jumped(start, k)), nextOutputs(stepped(start, k)))
        << "k = " << k;
  }
}

TEST(Rng, JumpsCompose) {
  Rng pick(43);
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t a = pick.below(std::uint64_t{1} << 32);
    const std::uint64_t b = pick.below(std::uint64_t{1} << 32);
    const Rng start(pick());
    EXPECT_EQ(nextOutputs(jumped(jumped(start, a), b)),
              nextOutputs(jumped(start, a + b)))
        << "a = " << a << ", b = " << b;
  }
}

// x^(2^128) and x^(2^192) mod P are xoshiro256's published JUMP and
// LONG_JUMP words, so the derived characteristic polynomial and the
// squaring chain are exactly the generator's.
TEST(Rng, JumpPolynomialsAreThePublishedJumps) {
  using Words = std::array<std::uint64_t, 4>;
  EXPECT_EQ(Rng::jumpPolynomial(128),
            (Words{0x180ec6d33cfd0abaull, 0xd5a61266f0c9392cull,
                   0xa9582618e03fc9aaull, 0x39abdc4529b1661cull}));
  EXPECT_EQ(Rng::jumpPolynomial(192),
            (Words{0x76e15d3efefdcbbfull, 0xc5004e441c522fb3ull,
                   0x77710069854ee241ull, 0x39109bb02acbe635ull}));
  // x^(2^0) = x: one step.
  EXPECT_EQ(Rng::jumpPolynomial(0), (Words{2, 0, 0, 0}));
}

// range() takes any lo <= hi: the span is unsigned, so a span beyond
// INT64_MAX no longer overflows (UBSan runs this suite), and over the full
// 2^64 range the offset from lo is the raw output.
TEST(Rng, RangeSpansBeyondInt64Max) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  Rng rng(47);
  Rng raw = rng;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t offset = raw();
    EXPECT_EQ(rng.range(kMin, kMax),
              static_cast<std::int64_t>(static_cast<std::uint64_t>(kMin) +
                                        offset));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_GE(rng.range(-1, kMax), -1);
    EXPECT_LT(rng.range(kMin, kMax - 1), kMax);
  }
  EXPECT_EQ(rng.range(kMin, kMin), kMin);
  EXPECT_EQ(rng.range(kMax, kMax), kMax);
  // Small spans keep their stream: lo + below(span + 1).
  Rng a(53), b(53);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.range(-7, 9), -7 + static_cast<std::int64_t>(b.below(17)));
  }
}

TEST(Stats, MeanAndStddev) {
  EXPECT_DOUBLE_EQ(mean({1, 2, 3, 4}), 2.5);
  EXPECT_NEAR(stddev({2, 4, 4, 4, 5, 5, 7, 9}), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(stddev({42}), 0.0);
}

TEST(Stats, Geomean) {
  EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
  EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
}

TEST(Stats, MedianAndPercentiles) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 2, 3}), 2.5);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 50), 3.0);
}

TEST(Stats, PercentileSingleSampleAndInterpolation) {
  EXPECT_DOUBLE_EQ(percentile({42.0}, 0), 42.0);
  EXPECT_DOUBLE_EQ(percentile({42.0}, 50), 42.0);
  EXPECT_DOUBLE_EQ(percentile({42.0}, 100), 42.0);
  // Linear interpolation between ranks.
  EXPECT_DOUBLE_EQ(percentile({0, 10}, 25), 2.5);
  EXPECT_DOUBLE_EQ(percentile({0, 10}, 75), 7.5);
}

TEST(Stats, PercentileExactBoundaryRanks) {
  // p*(n-1) divisible by 100 must select an element *exactly* — the old
  // p/100*(n-1) formulation computed e.g. 0.95*20 as 18.999999999999996
  // and interpolated between the wrong pair of neighbors.
  std::vector<double> xs(21);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = static_cast<double>(i);
  }
  EXPECT_DOUBLE_EQ(percentile(xs, 95), 19.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 5), 1.0);
  std::vector<double> small(5);
  for (std::size_t i = 0; i < small.size(); ++i) {
    small[i] = static_cast<double>(10 * i);
  }
  EXPECT_DOUBLE_EQ(percentile(small, 25), 10.0);
  EXPECT_DOUBLE_EQ(percentile(small, 75), 30.0);
}

TEST(Stats, RunningStatsMatchesBatch) {
  RunningStats rs;
  const std::vector<double> xs = {1.5, 2.5, -3.0, 7.25, 0.0};
  for (const double x : xs) rs.add(x);
  EXPECT_EQ(rs.count(), xs.size());
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-12);
  EXPECT_NEAR(rs.stddev(), stddev(xs), 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), -3.0);
  EXPECT_DOUBLE_EQ(rs.max(), 7.25);
}

TEST(Stats, PearsonPerfectCorrelation) {
  EXPECT_NEAR(pearson({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
  EXPECT_NEAR(pearson({1, 2, 3}, {-2, -4, -6}), -1.0, 1e-12);
}

TEST(Str, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Str, Trim) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim("\t\n"), "");
  EXPECT_EQ(trim("abc"), "abc");
}

TEST(Str, Affixes) {
  EXPECT_TRUE(startsWith("foobar", "foo"));
  EXPECT_FALSE(startsWith("fo", "foo"));
  EXPECT_TRUE(endsWith("foobar", "bar"));
  EXPECT_FALSE(endsWith("foobar", "baz"));
}

TEST(Str, JoinAndThousands) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(withThousands(1234567), "1,234,567");
  EXPECT_EQ(withThousands(-1000), "-1,000");
  EXPECT_EQ(withThousands(42), "42");
}

TEST(Csv, RoundTrip) {
  Table t({"name", "value", "note"});
  t.addRow({"alpha", "1.5", "plain"});
  t.addRow({"beta", "-2", "has, comma"});
  t.addRow({"gamma", "3", "has \"quotes\""});
  std::ostringstream os;
  t.writeCsv(os);
  std::istringstream is(os.str());
  const Table back = Table::readCsv(is);
  ASSERT_EQ(back.numRows(), 3u);
  EXPECT_EQ(back.cell(1, "note"), "has, comma");
  EXPECT_EQ(back.cell(2, "note"), "has \"quotes\"");
  EXPECT_DOUBLE_EQ(back.cellDouble(0, "value"), 1.5);
  EXPECT_EQ(back.cellInt(1, "value"), -2);
}

TEST(Csv, TypedAccessorsThrowOnGarbage) {
  Table t({"v"});
  t.addRow({"not_a_number"});
  EXPECT_THROW(t.cellDouble(0, "v"), IoError);
  EXPECT_THROW(t.cellInt(0, "v"), IoError);
  EXPECT_THROW(t.columnIndex("missing"), IoError);
}

TEST(Csv, WrongColumnCountNamesSourceAndLine) {
  std::istringstream is("a,b\n1,2\n3\n");
  try {
    Table::readCsv(is, "traffic.csv");
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("traffic.csv:3"), std::string::npos) << what;
    EXPECT_NE(what.find("expected 2 columns, got 1"), std::string::npos)
        << what;
  }
}

TEST(Csv, WrongColumnCountDefaultsSourceName) {
  std::istringstream is("a,b\n1,2,3\n");
  try {
    Table::readCsv(is);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("<csv>:2"), std::string::npos)
        << e.what();
  }
}

TEST(Csv, UnterminatedQuoteNamesStartLine) {
  std::istringstream is("a,b\n1,\"open\n");
  try {
    Table::readCsv(is, "db.csv");
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("db.csv:2"), std::string::npos) << what;
    EXPECT_NE(what.find("unterminated"), std::string::npos) << what;
  }
}

TEST(Csv, CellParseErrorCarriesRowProvenance) {
  std::istringstream is("name,value\nok,1.5\nbad,oops\n");
  const Table t = Table::readCsv(is, "feats.csv");
  EXPECT_DOUBLE_EQ(t.cellDouble(0, "value"), 1.5);
  try {
    t.cellDouble(1, "value");
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("feats.csv:3"), std::string::npos)
        << e.what();
  }
}

TEST(Csv, QuotedNewlinesKeepLineNumbersAligned) {
  // The quoted field spans two physical lines; the row after it must be
  // reported at its true line number.
  std::istringstream is("a,b\n\"multi\nline\",2\n3\n");
  try {
    Table::readCsv(is, "multi.csv");
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("multi.csv:4"), std::string::npos)
        << e.what();
  }
}

TEST(Csv, ProgrammaticRowsHaveNoProvenance) {
  Table t({"v"});
  t.addRow({"zzz"});
  EXPECT_EQ(t.rowLocation(0), "");
  try {
    t.cellDouble(0, "v");
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    // No " (source:line)" suffix for rows that never came from CSV.
    EXPECT_EQ(std::string(e.what()).find(" ("), std::string::npos) << e.what();
  }
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallelFor(0, 1000, [&](std::size_t i) { hits[i]++; }, 16);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallelFor(5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ExceptionPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallelFor(0, 100,
                                [](std::size_t i) {
                                  if (i == 42) throw Error("boom");
                                },
                                1),
               Error);
}

TEST(ThreadPool, SubmitAndWaitIdle) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) pool.submit([&] { counter++; });
  pool.waitIdle();
  EXPECT_EQ(counter.load(), 50);
}

TEST(Error, RequireThrowsWithMessage) {
  try {
    TP_REQUIRE(false, "context " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

// ---- shared key hashing ----------------------------------------------------

TEST(Hash, FieldBoundariesCannotAlias) {
  // LaunchKeyHash and the feedback recorder's dedup table hash
  // (machine, program, signature) through hashLaunchKey; the length
  // prefix keeps adjacent variable-length fields from aliasing.
  EXPECT_NE(hashLaunchKey("ab", "c", {}), hashLaunchKey("a", "bc", {}));
  EXPECT_NE(hashLaunchKey("", "abc", {}), hashLaunchKey("abc", "", {}));
  EXPECT_NE(hashLaunchKey("m", "p", {1.0, 2.0}),
            hashLaunchKey("m", "p", {2.0, 1.0}));
  EXPECT_NE(hashLaunchKey("m", "p", {1.0}),
            hashLaunchKey("m", "p", {1.0, 0.0}));
  // Deterministic across calls.
  EXPECT_EQ(hashLaunchKey("mc2", "fft/run", {65536.0, 64.0}),
            hashLaunchKey("mc2", "fft/run", {65536.0, 64.0}));
}

TEST(Hash, CollisionSanityOverRealisticKeySpace) {
  // The shapes real traffic produces: a few machines and programs
  // crossed with a dense grid of launch signatures. Any collision here
  // would put two distinct launches in one refiner entry, so demand
  // exactly zero across ~20k keys.
  std::unordered_set<std::uint64_t> seen;
  std::size_t keys = 0;
  for (const char* machine : {"mc1", "mc2"}) {
    for (const char* program : {"fft/run", "spmv/kernel", "nbody/step",
                                "md5/hash", "scale/scale"}) {
      for (int n = 0; n < 40; ++n) {
        for (int k = 0; k < 50; ++k) {
          const double size = static_cast<double>(1 << (n % 20)) + n;
          seen.insert(hashLaunchKey(machine, program,
                                    {size, 64.0, static_cast<double>(k)}));
          ++keys;
        }
      }
    }
  }
  EXPECT_EQ(seen.size(), keys);
}

TEST(Hash, ByteFoldIgnoresWherePiecesSplit) {
  // The words folded depend on the concatenated bytes only: every way of
  // cutting a 40-byte stream into three pieces, cuts on and across the
  // 8-byte word boundaries included, folds like the whole stream.
  std::string bytes;
  for (int i = 0; i < 40; ++i) bytes.push_back(static_cast<char>(i * 37 + 1));
  const std::string_view all = bytes;
  for (std::size_t len = 0; len <= all.size(); ++len) {
    const std::uint64_t whole =
        ByteFold(kHashSeed).bytes(all.data(), len).finish();
    for (std::size_t i = 0; i <= len; ++i) {
      for (std::size_t j = i; j <= len; ++j) {
        const std::uint64_t pieces = ByteFold(kHashSeed)
                                         .bytes(all.data(), i)
                                         .bytes(all.data() + i, j - i)
                                         .bytes(all.data() + j, len - j)
                                         .finish();
        ASSERT_EQ(pieces, whole) << len << " bytes cut at " << i << ", " << j;
      }
    }
  }
}

TEST(Hash, PairSplitAndJoinedFormsAgreeAtEverySplitOffset) {
  // The interner hashes (first, head + joiner + tail) without building
  // the concatenation. Seconds of 1-25 bytes with the joiner at every
  // offset put it on both sides of, and exactly on, an 8-byte boundary.
  PairInterner interner(1024);
  for (const std::string_view first : {"", "mc2", "machine-12"}) {
    for (std::size_t len = 1; len <= 25; ++len) {
      for (std::size_t at = 0; at < len; ++at) {
        std::string joined;
        for (std::size_t i = 0; i < len; ++i) {
          joined.push_back(static_cast<char>('a' + (i * 7 + len) % 26));
        }
        joined[at] = '/';
        const std::string_view head = std::string_view(joined).substr(0, at);
        const std::string_view tail = std::string_view(joined).substr(at + 1);
        ASSERT_EQ(hashPair(first, head, '/', tail), hashPair(first, joined))
            << "'" << first << "', '" << joined << "'";
        const std::uint32_t id = interner.intern(first, head, tail);
        ASSERT_NE(id, PairInterner::kInvalid);
        EXPECT_EQ(interner.find(first, joined), id) << joined;
        EXPECT_EQ(interner.second(id), joined);
      }
    }
  }
}

TEST(Hash, PairHashCollisionSanityOverRealisticNameSpace) {
  // Machine names crossed with "program/kernel" names of every length
  // class real traffic uses: ~24k pairs, zero 64-bit collisions.
  std::unordered_set<std::uint64_t> seen;
  std::size_t pairs = 0;
  for (int m = 0; m < 12; ++m) {
    const std::string machine = "mc" + std::to_string(m);
    for (int p = 0; p < 100; ++p) {
      for (int k = 0; k < 20; ++k) {
        const std::string program = "prog" + std::to_string(p);
        const std::string kernel = "kernel_" + std::to_string(k);
        seen.insert(hashPair(machine, program, '/', kernel));
        ++pairs;
      }
    }
  }
  EXPECT_EQ(seen.size(), pairs);
}

TEST(Hash, FingerprintCollisionSanityOverRealisticKeySpace) {
  // The words a launch fingerprint folds (pair id, then the quantized
  // signature) over the grid of CollisionSanityOverRealisticKeySpace,
  // with ten pair ids: ~100k keys. Neither 64-bit half may collide on its
  // own, so the 128-bit fingerprint does not either.
  std::unordered_set<std::uint64_t> his;
  std::unordered_set<std::uint64_t> los;
  std::size_t keys = 0;
  for (std::uint64_t pairId = 0; pairId < 10; ++pairId) {
    for (int n = 0; n < 40; ++n) {
      for (int k = 0; k < 50; ++k) {
        for (const double local : {64.0, 256.0}) {
          const double size = static_cast<double>(1 << (n % 20)) + n;
          FingerprintBuilder fb;
          fb.u64(pairId).f64(size).f64(local).f64(size * 4.0).f64(
              static_cast<double>(k));
          const Fingerprint fp = fb.take();
          his.insert(fp.hi);
          los.insert(fp.lo);
          ++keys;
        }
      }
    }
  }
  EXPECT_EQ(his.size(), keys);
  EXPECT_EQ(los.size(), keys);
}

// ---- wire serialization ----------------------------------------------------

TEST(Serial, RoundTripsEveryFieldType) {
  WireWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefull);
  w.f64(-1234.5678e-9);
  w.str("hello \0 world");  // string_view stops at the NUL here, fine
  w.str(std::string("bin\0ary", 7));
  w.doubles({1.0, -0.0, 5e-324, 1e308});

  WireReader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_DOUBLE_EQ(r.f64(), -1234.5678e-9);
  EXPECT_EQ(r.str(), "hello ");
  EXPECT_EQ(r.str(), std::string("bin\0ary", 7));
  const auto values = r.doubles();
  ASSERT_EQ(values.size(), 4u);
  EXPECT_EQ(values[0], 1.0);
  EXPECT_TRUE(std::signbit(values[1]));  // -0.0 survives bit-exactly
  EXPECT_EQ(values[2], 5e-324);
  EXPECT_EQ(values[3], 1e308);
  EXPECT_TRUE(r.atEnd());
  r.expectEnd();
}

TEST(Serial, TruncationAndTrailingBytesThrow) {
  WireWriter w;
  w.u32(7);
  w.str("payload");
  const std::string bytes = w.data();

  WireReader truncated(std::string_view(bytes).substr(0, bytes.size() - 2));
  EXPECT_EQ(truncated.u32(), 7u);
  EXPECT_THROW(truncated.str(), Error);

  const std::string padded = bytes + "x";
  WireReader trailing(padded);
  EXPECT_EQ(trailing.u32(), 7u);
  EXPECT_EQ(trailing.str(), "payload");
  EXPECT_FALSE(trailing.atEnd());
  EXPECT_THROW(trailing.expectEnd(), Error);

  // A length prefix larger than the remaining bytes must throw, not
  // allocate.
  WireWriter lying;
  lying.u32(0xffffffffu);
  WireReader r(lying.data());
  EXPECT_THROW(r.doubles(), Error);
  WireReader r2(lying.data());
  EXPECT_THROW(r2.str(), Error);
}

TEST(Serial, EncodingIsByteStable) {
  // The wire format is an interchange format: fixed little-endian bytes,
  // not host memory order.
  WireWriter w;
  w.u16(0x0102);
  w.u32(0x03040506u);
  const std::string& b = w.data();
  ASSERT_EQ(b.size(), 6u);
  EXPECT_EQ(static_cast<unsigned char>(b[0]), 0x02);
  EXPECT_EQ(static_cast<unsigned char>(b[1]), 0x01);
  EXPECT_EQ(static_cast<unsigned char>(b[2]), 0x06);
  EXPECT_EQ(static_cast<unsigned char>(b[3]), 0x05);
  EXPECT_EQ(static_cast<unsigned char>(b[4]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(b[5]), 0x03);
}

TEST(Serial, CheckedCountRejectsHostileLengthPrefix) {
  // A length prefix claiming more elements than the input has bytes must
  // throw in checkedCount() — before any reserve() can turn it into a
  // multi-gigabyte allocation (lint rule R3 pins every decode loop to
  // this helper).
  WireWriter w;
  w.u32(0xFFFFFFFFu);  // claims ~4e9 elements...
  w.u32(7);            // ...with 4 bytes of payload behind it
  WireReader r(w.data());
  const std::uint32_t claimed = r.u32();
  EXPECT_THROW(r.checkedCount(claimed, 8), tp::Error);

  // An honest count passes through unchanged.
  WireWriter w2;
  w2.u32(2);
  w2.f64(1.0);
  w2.f64(2.0);
  WireReader r2(w2.data());
  EXPECT_EQ(r2.checkedCount(r2.u32(), 8), 2u);
}

TEST(InternerTest, InternFindRoundTrip) {
  PairInterner interner(16);
  const std::uint32_t a = interner.intern("m0", "prog/kernel");
  const std::uint32_t b = interner.intern("m1", "prog", "kernel");
  ASSERT_NE(a, PairInterner::kInvalid);
  ASSERT_NE(b, PairInterner::kInvalid);
  EXPECT_NE(a, b);
  EXPECT_EQ(interner.intern("m0", "prog/kernel"), a);  // idempotent
  EXPECT_EQ(interner.find("m0", "prog/kernel"), a);
  EXPECT_EQ(interner.find("m1", "prog", "kernel"), b);
  EXPECT_EQ(interner.find("m1", "prog/kernel"), b);  // split == joined
  EXPECT_EQ(interner.find("m2", "prog/kernel"), PairInterner::kInvalid);
  EXPECT_EQ(interner.first(a), "m0");
  EXPECT_EQ(interner.second(a), "prog/kernel");
}

TEST(InternerTest, ConcurrentInternAndFind) {
  // Referenced by the TP_LOCK_FREE_AUDITED reasons on PairInterner's
  // read path: under TSan this is the race test for the slot publication
  // protocol. Writers intern disjoint pair sets while readers probe the
  // full key space; a reader may race the publishing store, so the only
  // legal outcomes are kInvalid (not yet visible) or the final id with
  // fully readable strings.
  PairInterner interner(512);
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kPairsPerWriter = 128;
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&interner, w] {
      for (int i = 0; i < kPairsPerWriter; ++i) {
        const std::string machine = "machine" + std::to_string(w);
        const std::string program = "prog" + std::to_string(i) + "/k";
        ASSERT_NE(interner.intern(machine, program), PairInterner::kInvalid);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&interner, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (int w = 0; w < kWriters; ++w) {
          for (int i = 0; i < kPairsPerWriter; ++i) {
            const std::string machine = "machine" + std::to_string(w);
            const std::string head = "prog" + std::to_string(i);
            const std::uint32_t id = interner.find(machine, head, "k");
            if (id != PairInterner::kInvalid) {
              ASSERT_EQ(interner.first(id), machine);
              ASSERT_EQ(interner.second(id), head + "/k");
            }
          }
        }
      }
    });
  }
  for (int t = 0; t < kWriters; ++t) threads[t].join();
  stop.store(true, std::memory_order_relaxed);
  for (std::size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  // Every interned pair is findable once writers have quiesced.
  EXPECT_EQ(interner.size(),
            static_cast<std::size_t>(kWriters * kPairsPerWriter));
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kPairsPerWriter; ++i) {
      const std::string machine = "machine" + std::to_string(w);
      const std::string program = "prog" + std::to_string(i) + "/k";
      EXPECT_NE(interner.find(machine, program), PairInterner::kInvalid);
    }
  }
  EXPECT_EQ(interner.fullRejections(), 0u);
}

TEST(InternerTest, CapacityRejectionDegradesAndCounts) {
  PairInterner interner(4);
  std::vector<std::uint32_t> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(interner.intern("m", "p" + std::to_string(i)));
    ASSERT_NE(ids.back(), PairInterner::kInvalid);
  }
  EXPECT_EQ(interner.size(), 4u);
  EXPECT_EQ(interner.fullRejections(), 0u);

  // New pairs are rejected and counted; each rejection degrades the
  // caller to its uncached path but corrupts nothing.
  EXPECT_EQ(interner.intern("m", "p4"), PairInterner::kInvalid);
  EXPECT_EQ(interner.intern("m", "p5"), PairInterner::kInvalid);
  EXPECT_EQ(interner.fullRejections(), 2u);
  EXPECT_EQ(interner.size(), 4u);

  // Existing pairs keep their fast path: re-intern is a hit, not a
  // rejection, and lookups still resolve.
  EXPECT_EQ(interner.intern("m", "p0"), ids[0]);
  EXPECT_EQ(interner.fullRejections(), 2u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(interner.find("m", "p" + std::to_string(i)), ids[i]);
  }
  EXPECT_EQ(interner.find("m", "p4"), PairInterner::kInvalid);
}

TEST(InternerTest, ConcurrentReadersAtCapacity) {
  // The degrade path under contention: the table is full, writers keep
  // hammering intern() with fresh pairs (every call a counted
  // rejection), and concurrent readers must keep resolving the resident
  // pairs exactly — capacity pressure may slow new pairs down but can
  // never corrupt published ones.
  constexpr std::size_t kCapacity = 8;
  PairInterner interner(kCapacity);
  std::vector<std::uint32_t> ids;
  for (std::size_t i = 0; i < kCapacity; ++i) {
    ids.push_back(interner.intern("m", "resident" + std::to_string(i)));
    ASSERT_NE(ids.back(), PairInterner::kInvalid);
  }

  constexpr int kAttemptsPerWriter = 200;
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&interner, w] {
      for (int i = 0; i < kAttemptsPerWriter; ++i) {
        const std::string program =
            "overflow" + std::to_string(w) + "_" + std::to_string(i);
        ASSERT_EQ(interner.intern("m", program), PairInterner::kInvalid);
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&interner, &ids] {
      for (int pass = 0; pass < 200; ++pass) {
        for (std::size_t i = 0; i < kCapacity; ++i) {
          ASSERT_EQ(interner.find("m", "resident" + std::to_string(i)),
                    ids[i]);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(interner.size(), kCapacity);
  EXPECT_EQ(interner.fullRejections(),
            static_cast<std::uint64_t>(2 * kAttemptsPerWriter));
}

TEST(StripedLatchTest, SharedStripesDrainToZero) {
  // Four threads on two stripes, so each stripe is shared. A gate checked
  // after enter() and closed before wait() leaves no unit inside once
  // wait() returns: the per-stripe Dekker pair the service's shutdown()
  // relies on.
  StripedLatch latch(2);
  std::atomic<bool> open{true};
  std::atomic<int> inside{0};
  std::atomic<std::uint64_t> entered{0};
  std::atomic<int> strayStripes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      const std::size_t first = latch.enter();
      latch.leave(first);
      for (;;) {
        const std::size_t stripe = latch.enter();
        // A thread keeps its stripe.
        if (stripe != first || stripe >= 2) strayStripes.fetch_add(1);
        if (!open.load(std::memory_order_seq_cst)) {
          latch.leave(stripe);
          return;
        }
        inside.fetch_add(1, std::memory_order_relaxed);
        entered.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::yield();
        inside.fetch_sub(1, std::memory_order_relaxed);
        latch.leave(stripe);
      }
    });
  }
  while (entered.load(std::memory_order_relaxed) < 4000) {
    std::this_thread::yield();
  }
  open.store(false, std::memory_order_seq_cst);
  latch.wait();
  EXPECT_EQ(inside.load(std::memory_order_relaxed), 0);
  for (auto& t : threads) t.join();
  EXPECT_EQ(strayStripes.load(), 0);
  latch.wait();  // every stripe back at 0: returns at once
}

/// Scheduler state letter of thread `tid` of this process, from
/// /proc/self/task/<tid>/stat: 'S' while it sleeps in the kernel.
char threadState(long tid) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/stat");
  std::string line;
  std::getline(in, line);
  const std::size_t close = line.rfind(')');
  return close == std::string::npos || close + 2 >= line.size()
             ? '?'
             : line[close + 2];
}

/// Whether thread `tid` reads as sleeping on 20 consecutive polls 1 ms
/// apart, tried until a 10 s deadline.
bool staysAsleep(long tid) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  int asleep = 0;
  while (asleep < 20 && std::chrono::steady_clock::now() < deadline) {
    asleep = threadState(tid) == 'S' ? asleep + 1 : 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return asleep == 20;
}

/// Waits up to 10 s for `done`. A thread blocked in an atomic wait cannot
/// be cancelled or joined, so a wake-up that never comes ends the test
/// binary with a failure instead of hanging it.
void readyOrExit(std::future<void>& done, const char* what) {
  if (done.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    std::fprintf(stderr, "StripedLatchTest: %s did not return within 10 s\n",
                 what);
    std::fflush(stderr);
    std::_Exit(EXIT_FAILURE);
  }
}

TEST(StripedLatchTest, WaitBlockedOnAStripeIsWokenByTheLeaveThatEmptiesIt) {
  // leave() notifies only while a wait() is registered. A waiter that is
  // asleep inside wait() when the last unit leaves must still be woken.
  StripedLatch latch(4);
  const std::size_t first = latch.enter();
  const std::size_t second = latch.enter();
  ASSERT_EQ(first, second);  // one thread keeps its stripe

  std::atomic<long> waiterTid{0};
  std::promise<void> returned;
  std::future<void> done = returned.get_future();
  std::thread waiter([&] {
    waiterTid.store(static_cast<long>(::syscall(SYS_gettid)));
    latch.wait();
    returned.set_value();
  });
  while (waiterTid.load() == 0) std::this_thread::yield();
  const long tid = waiterTid.load();

  // The waiter does nothing between publishing its id and calling wait(),
  // so a thread that stays asleep is blocked inside wait().
  ASSERT_TRUE(staysAsleep(tid)) << "waiter never blocked in wait()";
  latch.leave(first);  // one unit is still inside: no wake-up due
  EXPECT_EQ(done.wait_for(std::chrono::milliseconds(20)),
            std::future_status::timeout);
  ASSERT_TRUE(staysAsleep(tid)) << "waiter left wait() with a unit inside";
  latch.leave(second);  // empties the stripe
  readyOrExit(done, "wait() blocked on the emptied stripe");
  waiter.join();

  // Many cycles with no waiter registered notify nothing, and leave every
  // stripe at 0: a later wait() returns at once.
  std::vector<std::thread> cyclers;
  for (int t = 0; t < 4; ++t) {
    cyclers.emplace_back([&latch] {
      for (int i = 0; i < 20000; ++i) latch.leave(latch.enter());
    });
  }
  for (auto& t : cyclers) t.join();
  std::promise<void> drained;
  std::future<void> drainedDone = drained.get_future();
  std::thread late([&] {
    latch.wait();
    drained.set_value();
  });
  readyOrExit(drainedDone, "wait() after cycles with no waiter");
  late.join();
}

// ---- numbered files --------------------------------------------------------

/// Fresh per-test directory under gtest's temp root, removed on exit.
class ScratchDir {
public:
  explicit ScratchDir(const std::string& name)
      : path_(std::filesystem::path(::testing::TempDir()) /
              ("tp_common_" + name)) {
    std::filesystem::remove_all(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }
  std::filesystem::path operator/(const std::string& name) const {
    return path_ / name;
  }

private:
  std::filesystem::path path_;
};

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(NumberedFilesTest, PublishNamesScansAndContinues) {
  ScratchDir dir("numbered_publish");
  NumberedFiles files(dir.str(), "item-", ".dat", /*keepLast=*/0);
  EXPECT_EQ(files.highest(), 0u) << "absent directory scans as empty";
  EXPECT_EQ(files.count(), 0u);

  EXPECT_EQ(files.publish("first"), 1u);  // creates the directory
  EXPECT_EQ(files.path(1), (dir / "item-00000001.dat").string());
  EXPECT_EQ(readFile(files.path(1)), "first");
  // A writer learns its sequence before it writes.
  EXPECT_EQ(files.publish([](std::ostream& out, std::uint64_t seq) {
              out << "seq=" << seq;
            }),
            2u);
  EXPECT_EQ(readFile(files.path(2)), "seq=2");

  // Foreign names, other suffixes and leftover tmp files are not ours.
  std::ofstream(dir / "item-00000009.dat.tmp") << "torn";
  std::ofstream(dir / "item-12x.dat") << "foreign";
  std::ofstream(dir / "other-00000007.dat") << "foreign";
  EXPECT_EQ(files.sequences(), (std::vector<std::uint64_t>{2, 1}));
  EXPECT_EQ(files.highest(), 2u);

  // Numbering continues past files another instance left behind, and
  // wider sequences still parse.
  std::ofstream(dir / "item-123456789.dat") << "wide";
  NumberedFiles reopened(dir.str(), "item-", ".dat", 0);
  EXPECT_EQ(reopened.highest(), 123456789u);
  EXPECT_EQ(reopened.publish("next"), 123456790u);
  EXPECT_EQ(reopened.count(), 4u);
}

// Pruning keeps the newest keepLast files by count, whatever gaps the
// numbering has: sequence 1 survives the publish of 6 below, although it
// is more than keepLast numbers older.
TEST(NumberedFilesTest, PruneKeepsNewestByCountAcrossGaps) {
  ScratchDir dir("numbered_prune");
  std::filesystem::create_directories(dir.str());
  for (const char* name : {"item-00000001.dat", "item-00000005.dat"}) {
    std::ofstream(dir / name) << "old";
  }
  NumberedFiles files(dir.str(), "item-", ".dat", /*keepLast=*/3);
  EXPECT_EQ(files.publish("new"), 6u);
  EXPECT_EQ(files.sequences(), (std::vector<std::uint64_t>{6, 5, 1}));
  EXPECT_EQ(files.publish("newer"), 7u);
  EXPECT_EQ(files.sequences(), (std::vector<std::uint64_t>{7, 6, 5}));

  NumberedFiles keepOne(dir.str(), "item-", ".dat", /*keepLast=*/1);
  EXPECT_EQ(keepOne.publish("only"), 8u);
  EXPECT_EQ(keepOne.sequences(), (std::vector<std::uint64_t>{8}));
  EXPECT_EQ(readFile(keepOne.path(8)), "only");
}

TEST(NumberedFilesTest, UnwritableDirectoryThrowsIoError) {
  ScratchDir dir("numbered_unwritable");
  std::filesystem::create_directories(dir.str());
  const std::string blocker = (dir / "a_file").string();
  std::ofstream(blocker) << "not a directory";
  NumberedFiles files(blocker, "item-", ".dat", 0);
  EXPECT_THROW(files.publish("bytes"), IoError);
  EXPECT_EQ(files.count(), 0u);
  EXPECT_THROW(NumberedFiles("", "item-", ".dat", 0), Error);
}

}  // namespace
}  // namespace tp::common
