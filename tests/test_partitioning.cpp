// Partitioning-space tests: enumeration size, invariants, corner lookups,
// family classification, group apportioning.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <set>

#include "common/error.hpp"
#include "runtime/partitioning.hpp"

namespace tp::runtime {
namespace {

TEST(PartitioningSpace, SizeMatchesCompositionCount) {
  // Compositions of d units into k parts: C(d + k - 1, k - 1).
  EXPECT_EQ(PartitioningSpace(3, 10).size(), 66u);   // C(12,2)
  EXPECT_EQ(PartitioningSpace(2, 10).size(), 11u);   // C(11,1)
  EXPECT_EQ(PartitioningSpace(3, 5).size(), 21u);    // C(7,2)
  EXPECT_EQ(PartitioningSpace(3, 20).size(), 231u);  // C(22,2)
  EXPECT_EQ(PartitioningSpace(1, 10).size(), 1u);
}

TEST(PartitioningSpace, AllSumToDivisionsAndAreUnique) {
  const PartitioningSpace space(3, 10);
  std::set<std::vector<int>> seen;
  for (const auto& p : space.all()) {
    EXPECT_EQ(std::accumulate(p.units.begin(), p.units.end(), 0), 10);
    EXPECT_EQ(p.units.size(), 3u);
    for (const int u : p.units) EXPECT_GE(u, 0);
    EXPECT_TRUE(seen.insert(p.units).second) << "duplicate partitioning";
  }
}

TEST(PartitioningSpace, IndexOfRoundTrips) {
  const PartitioningSpace space(3, 10);
  for (std::size_t i = 0; i < space.size(); ++i) {
    EXPECT_EQ(space.indexOf(space.at(i)), i);
  }
  Partitioning bogus{{5, 5, 5}, 10};  // sums to 15
  EXPECT_THROW(space.indexOf(bogus), Error);
}

TEST(PartitioningSpace, CornerIndices) {
  const PartitioningSpace space(3, 10);
  const auto& cpu = space.at(space.cpuOnlyIndex());
  EXPECT_EQ(cpu.units, (std::vector<int>{10, 0, 0}));
  const auto& gpu1 = space.at(space.singleDeviceIndex(1));
  EXPECT_EQ(gpu1.units, (std::vector<int>{0, 10, 0}));
  EXPECT_THROW(space.singleDeviceIndex(7), Error);
}

TEST(Partitioning, Helpers) {
  Partitioning p{{5, 3, 2}, 10};
  EXPECT_DOUBLE_EQ(p.fraction(0), 0.5);
  EXPECT_DOUBLE_EQ(p.fraction(2), 0.2);
  EXPECT_FALSE(p.isSingleDevice());
  EXPECT_EQ(p.activeDevices(), 3);
  EXPECT_EQ(p.toString(), "50/30/20");

  Partitioning solo{{0, 10, 0}, 10};
  EXPECT_TRUE(solo.isSingleDevice());
  EXPECT_EQ(solo.singleDevice(), 1u);
}

TEST(PartitioningSpace, FamilyClassification) {
  const PartitioningSpace space(3, 10);
  EXPECT_EQ(space.family(space.cpuOnlyIndex()), PartitionFamily::CpuOnly);
  EXPECT_EQ(space.family(space.singleDeviceIndex(1)),
            PartitionFamily::SingleGpu);
  EXPECT_EQ(space.family(space.indexOf({{0, 5, 5}, 10})),
            PartitionFamily::MultiGpu);
  EXPECT_EQ(space.family(space.indexOf({{2, 4, 4}, 10})),
            PartitionFamily::Mixed);
  const auto labels = space.familyLabels();
  EXPECT_EQ(labels.size(), space.size());
}

// --- apportion properties ---------------------------------------------------

std::vector<std::size_t> countsFor(std::size_t total, const Partitioning& p) {
  std::vector<std::size_t> counts(p.numDevices());
  apportion(total, p, counts);
  return counts;
}

TEST(Apportion, ExactSumAcrossOddSizesAndDeviceCounts) {
  // Property sweep: every partitioning of several spaces, awkward totals
  // included. The counts must sum to exactly the total, zero-share
  // devices must receive nothing, and every count must be within one of
  // the exact proportional share.
  for (const std::size_t devices : {1u, 2u, 3u, 4u, 5u}) {
    for (const int divisions : {1, 3, 7, 10, 13}) {
      const PartitioningSpace space(devices, divisions);
      for (const std::size_t total :
           {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{7},
            std::size_t{11}, std::size_t{64}, std::size_t{101},
            std::size_t{999}, std::size_t{16383}}) {
        for (std::size_t i = 0; i < space.size(); ++i) {
          const Partitioning& p = space.at(i);
          const auto counts = countsFor(total, p);
          ASSERT_EQ(counts.size(), devices);
          std::size_t sum = 0;
          for (std::size_t d = 0; d < devices; ++d) {
            sum += counts[d];
            if (p.units[d] == 0) {
              EXPECT_EQ(counts[d], 0u)
                  << "zero-share device got work: " << p.toString();
            }
            const double exact =
                static_cast<double>(total) * p.fraction(d);
            EXPECT_NEAR(static_cast<double>(counts[d]), exact, 1.0)
                << p.toString() << " total=" << total;
          }
          ASSERT_EQ(sum, total) << p.toString() << " total=" << total;
        }
      }
    }
  }
}

/// The largest-remainder method as first written: floors, then a stable
/// sort of the active devices by remainder, leftovers to the front.
std::vector<std::size_t> apportionBySorting(std::size_t total,
                                            const Partitioning& p) {
  const std::size_t n = p.numDevices();
  std::vector<std::size_t> counts(n, 0);
  if (total == 0) return counts;
  std::size_t unitSum = 0;
  for (const int u : p.units) unitSum += static_cast<std::size_t>(u);
  std::vector<std::size_t> remainder(n, 0);
  std::size_t assigned = 0;
  for (std::size_t d = 0; d < n; ++d) {
    const std::size_t scaled = total * static_cast<std::size_t>(p.units[d]);
    counts[d] = scaled / unitSum;
    remainder[d] = scaled % unitSum;
    assigned += counts[d];
  }
  std::vector<std::size_t> order;
  for (std::size_t d = 0; d < n; ++d) {
    if (p.units[d] > 0) order.push_back(d);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return remainder[a] > remainder[b];
                   });
  for (std::size_t k = 0; k < total - assigned; ++k) ++counts[order[k]];
  return counts;
}

TEST(Apportion, MatchesTheSortedReference) {
  // Every partitioning of spaces up to 12 devices (past the 8 that
  // PerDevice holds inline), at totals whose leftovers tie and do not.
  std::size_t checked = 0;
  for (const std::size_t devices : {1u, 2u, 3u, 5u, 9u, 12u}) {
    for (const int divisions : {1, 3, 7, 10}) {
      if (devices >= 9 && divisions > 7) continue;  // keep spaces small
      const PartitioningSpace space(devices, divisions);
      for (const std::size_t total :
           {std::size_t{0}, std::size_t{1}, std::size_t{5}, std::size_t{11},
            std::size_t{64}, std::size_t{999}, std::size_t{16383}}) {
        for (std::size_t i = 0; i < space.size(); ++i) {
          const Partitioning& p = space.at(i);
          ASSERT_EQ(countsFor(total, p), apportionBySorting(total, p))
              << p.toString() << " total=" << total;
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 100000u);
}

TEST(Apportion, HandBuiltUnitSumsNeedNotMatchDivisions) {
  // The denominator is the actual unit sum, so an under/over-subscribed
  // hand-built partitioning still apportions exactly.
  const Partitioning p{{3, 1, 0}, 10};  // units sum to 4, not 10
  const auto counts = countsFor(103, p);
  EXPECT_EQ(counts[0] + counts[1] + counts[2], 103u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_NEAR(static_cast<double>(counts[0]), 103.0 * 3.0 / 4.0, 1.0);
}

TEST(Apportion, RejectsAllZeroSharesAndNegativeUnits) {
  const Partitioning empty{{0, 0, 0}, 10};
  EXPECT_THROW(countsFor(5, empty), Error);
  // total == 0 is fine even with no active device.
  EXPECT_EQ(countsFor(0, empty), (std::vector<std::size_t>{0, 0, 0}));
  const Partitioning negative{{5, -1, 6}, 10};
  EXPECT_THROW(countsFor(5, negative), Error);
}

TEST(Apportion, LeftoverGoesToLargestRemainders) {
  // 10 items over 3/3/4 of 10 units: floors are 3/3/4 exactly.
  EXPECT_EQ(countsFor(10, Partitioning{{3, 3, 4}, 10}),
            (std::vector<std::size_t>{3, 3, 4}));
  // 11 items over 1/1/1: floors 3/3/3, remainders equal -> earliest
  // active device gets the leftover (deterministic tie-break).
  EXPECT_EQ(countsFor(11, Partitioning{{1, 1, 1}, 3}),
            (std::vector<std::size_t>{4, 4, 3}));
}

// --- neighborhood enumeration ----------------------------------------------

TEST(Neighbors, SingleUnitMovesFromCorner) {
  const PartitioningSpace space(3, 10);
  const auto ns = space.neighbors(space.cpuOnlyIndex(), 1);
  // From {10,0,0} only moves out of device 0 exist: {9,1,0} and {9,0,1}.
  ASSERT_EQ(ns.size(), 2u);
  EXPECT_EQ(space.at(ns[0]).units, (std::vector<int>{9, 0, 1}));
  EXPECT_EQ(space.at(ns[1]).units, (std::vector<int>{9, 1, 0}));
}

TEST(Neighbors, InteriorPointHasAllPairMoves) {
  const PartitioningSpace space(3, 10);
  const std::size_t center = space.indexOf({{5, 3, 2}, 10});
  const auto ns = space.neighbors(center, 1);
  EXPECT_EQ(ns.size(), 6u);  // 3 devices x 2 directions, all feasible
  for (const std::size_t n : ns) {
    EXPECT_NE(n, center);
    int l1 = 0;
    for (std::size_t d = 0; d < 3; ++d) {
      l1 += std::abs(space.at(n).units[d] - space.at(center).units[d]);
    }
    EXPECT_EQ(l1, 2);  // exactly one unit moved
  }
}

TEST(Neighbors, RadiusBoundsAndSymmetry) {
  const PartitioningSpace space(3, 10);
  const std::size_t center = space.indexOf({{5, 3, 2}, 10});
  EXPECT_TRUE(space.neighbors(center, 0).empty());
  const auto r1 = space.neighbors(center, 1);
  const auto r2 = space.neighbors(center, 2);
  EXPECT_GT(r2.size(), r1.size());
  // Every radius-1 neighbor is also a radius-2 neighbor.
  for (const std::size_t n : r1) {
    EXPECT_TRUE(std::find(r2.begin(), r2.end(), n) != r2.end());
  }
  // Radius-1 adjacency is symmetric.
  for (const std::size_t n : r1) {
    const auto back = space.neighbors(n, 1);
    EXPECT_TRUE(std::find(back.begin(), back.end(), center) != back.end());
  }
}

TEST(Neighbors, TwoDeviceLadder) {
  const PartitioningSpace space(2, 10);
  // at(i) == {i, 10-i}: interior rungs have two neighbors, ends one.
  const std::size_t mid = space.indexOf({{5, 5}, 10});
  EXPECT_EQ(space.neighbors(mid, 1).size(), 2u);
  EXPECT_EQ(space.neighbors(space.indexOf({{0, 10}, 10}), 1).size(), 1u);
  EXPECT_EQ(space.neighbors(space.indexOf({{10, 0}, 10}), 1).size(), 1u);
}

}  // namespace
}  // namespace tp::runtime
