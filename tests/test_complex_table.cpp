#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <unordered_set>
#include <vector>

#include "dd/complex_table.hpp"

namespace ddsim::dd {
namespace {

TEST(ComplexValue, Arithmetic) {
  const ComplexValue a{1.0, 2.0};
  const ComplexValue b{-0.5, 1.0};
  const ComplexValue sum = a + b;
  EXPECT_DOUBLE_EQ(sum.r, 0.5);
  EXPECT_DOUBLE_EQ(sum.i, 3.0);
  const ComplexValue prod = a * b;
  EXPECT_DOUBLE_EQ(prod.r, 1.0 * -0.5 - 2.0 * 1.0);
  EXPECT_DOUBLE_EQ(prod.i, 1.0 * 1.0 + 2.0 * -0.5);
  const ComplexValue quot = prod / b;
  EXPECT_NEAR(quot.r, a.r, 1e-12);
  EXPECT_NEAR(quot.i, a.i, 1e-12);
}

TEST(ComplexValue, Predicates) {
  EXPECT_TRUE((ComplexValue{0.0, 0.0}).exactlyZero());
  EXPECT_TRUE((ComplexValue{1.0, 0.0}).exactlyOne());
  EXPECT_TRUE((ComplexValue{1e-14, -1e-14}).approximatelyZero());
  EXPECT_FALSE((ComplexValue{1e-6, 0.0}).approximatelyZero());
  EXPECT_TRUE((ComplexValue{1.0 + 1e-14, 1e-14}).approximatelyOne());
  EXPECT_TRUE(
      (ComplexValue{0.5, 0.5}).approximatelyEquals(ComplexValue{0.5 + 1e-14, 0.5}));
}

TEST(ComplexValue, MagnitudeAndConj) {
  const ComplexValue z{3.0, 4.0};
  EXPECT_DOUBLE_EQ(z.mag2(), 25.0);
  EXPECT_DOUBLE_EQ(z.mag(), 5.0);
  EXPECT_DOUBLE_EQ(z.conj().i, -4.0);
}

TEST(ComplexValue, ToString) {
  EXPECT_EQ((ComplexValue{0.5, 0.0}).toString(), "0.5");
  EXPECT_EQ((ComplexValue{0.0, -1.0}).toString(), "-1i");
  EXPECT_EQ((ComplexValue{0.5, 0.5}).toString(), "0.5+0.5i");
}

TEST(ComplexTable, CanonicalZeroAndOne) {
  ComplexTable tab;
  EXPECT_EQ(tab.lookup(0.0, 0.0), tab.zero());
  EXPECT_EQ(tab.lookup(1.0, 0.0), tab.one());
  // within tolerance of the constants
  EXPECT_EQ(tab.lookup(1e-14, -1e-14), tab.zero());
  EXPECT_EQ(tab.lookup(1.0 + 1e-14, 1e-14), tab.one());
  EXPECT_TRUE(tab.zero()->exactlyZero());
  EXPECT_TRUE(tab.one()->exactlyOne());
}

TEST(ComplexTable, DeduplicatesWithinTolerance) {
  ComplexTable tab;
  const CWeight a = tab.lookup(0.25, -0.75);
  const CWeight b = tab.lookup(0.25 + 1e-14, -0.75 - 1e-14);
  EXPECT_EQ(a, b);
  const CWeight c = tab.lookup(0.25 + 1e-3, -0.75);
  EXPECT_NE(a, c);
}

TEST(ComplexTable, NearBucketBoundary) {
  // Values straddling a grid-cell boundary must still canonicalize together;
  // the 3x3 neighbourhood search handles this.
  ComplexTable tab;
  const double x = 3.0 * tab.tolerance();  // lands exactly on a cell edge
  const CWeight a = tab.lookup(x - 1e-14, 0.0);
  const CWeight b = tab.lookup(x + 1e-14, 0.0);
  EXPECT_EQ(a, b);
}

TEST(ComplexTable, CellIndexKeepsOrdinaryValuesAndSeparatesHugeOnes) {
  constexpr double kCell = 2.0 * kTolerance;
  for (const double x : {0.0, -0.0, 0.5, -0.5, 1.0, -0.70710678118654757,
                         3.0 * kTolerance, 1e-14, 123.456, -1e5, 9e5}) {
    EXPECT_EQ(detail::cellIndex(x, kCell), std::llround(x / kCell)) << x;
  }
  // From ~1.8e6 on, llround(x / cell) is out of range; there one ulp of x
  // is far above the tolerance, so every distinct double needs its own
  // index, and none may be one that an ordinary value has.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> huge;
  for (const double magnitude : {1e7, 1e9, 1e14, 1e300}) {
    for (const double x : {magnitude, -magnitude}) {
      huge.push_back(x);
      huge.push_back(std::nextafter(x, 0.0));
      huge.push_back(std::nextafter(x, std::copysign(kInf, x)));
    }
  }
  std::unordered_set<std::int64_t> indices;
  for (const double x : huge) {
    const std::int64_t index = detail::cellIndex(x, kCell);
    EXPECT_TRUE(indices.insert(index).second) << x;
    EXPECT_GE(index < 0 ? -index : index, std::int64_t{1} << 62) << x;
  }
}

TEST(ComplexTable, HugeValuesAreCanonicalizedExactly) {
  ComplexTable tab;
  for (const double x : {1e14, -1e14}) {
    const CWeight a = tab.lookup(x, 0.0);
    EXPECT_EQ(tab.lookup(x, 0.0), a);
    const double next =
        std::nextafter(x, std::copysign(std::numeric_limits<double>::infinity(), x));
    const CWeight b = tab.lookup(next, 0.0);
    EXPECT_NE(b, a);
    EXPECT_EQ(b->r, next);
    EXPECT_EQ(tab.lookup(x, 0.0), a);
  }
}

TEST(ComplexTable, SizeGrowsOnlyForDistinctValues) {
  ComplexTable tab;
  const std::size_t initial = tab.size();
  for (int i = 0; i < 100; ++i) {
    tab.lookup(0.123456, 0.654321);
  }
  EXPECT_EQ(tab.size(), initial + 1);
  EXPECT_GE(tab.hits(), 99U);
}

TEST(ComplexTable, GarbageCollectRecyclesUnreferencedEntries) {
  ComplexTable tab;
  const CWeight keep = tab.lookup(0.111, 0.222);
  const CWeight pin = tab.lookup(0.333, 0.444);
  tab.incRef(pin);
  for (int i = 0; i < 100; ++i) {
    tab.lookup(0.5 + i * 1e-3, -0.25);
  }
  const std::size_t before = tab.size();
  const std::size_t collected = tab.garbageCollect({keep});
  EXPECT_EQ(collected, 100U);
  EXPECT_EQ(tab.size(), before - 100);
  // Survivors keep their identity.
  EXPECT_EQ(tab.lookup(0.111, 0.222), keep);
  EXPECT_EQ(tab.lookup(0.333, 0.444), pin);
  // Constants are never collected.
  tab.garbageCollect({});
  EXPECT_TRUE(tab.zero()->exactlyZero());
  EXPECT_TRUE(tab.one()->exactlyOne());
}

TEST(ComplexTable, RootRefCountingIsBalanced) {
  ComplexTable tab;
  const CWeight w = tab.lookup(0.9, -0.9);
  tab.incRef(w);
  tab.incRef(w);
  tab.decRef(w);
  // Still pinned by one reference.
  EXPECT_EQ(tab.garbageCollect({}), 0U);
  tab.decRef(w);
  EXPECT_EQ(tab.garbageCollect({}), 1U);
  // Constants tolerate arbitrary inc/dec.
  tab.incRef(tab.zero());
  tab.decRef(tab.zero());
  tab.decRef(tab.one());
}

TEST(ComplexTable, FreedEntriesAreReused) {
  ComplexTable tab;
  const CWeight a = tab.lookup(0.123, 0.456);
  tab.garbageCollect({});
  const CWeight b = tab.lookup(0.789, -0.123);
  EXPECT_EQ(a, b);  // the recycled slot is handed out again
  EXPECT_NEAR(b->r, 0.789, 1e-12);
}

TEST(ComplexTable, ManyRandomLookupsAreStable) {
  ComplexTable tab;
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (int i = 0; i < 10000; ++i) {
    const double r = dist(rng);
    const double im = dist(rng);
    const CWeight first = tab.lookup(r, im);
    const CWeight second = tab.lookup(r, im);
    ASSERT_EQ(first, second);
    ASSERT_TRUE(first->approximatelyEquals({r, im}, tab.tolerance()));
  }
}

// The representative rule: probe the home cell first, then its neighbours;
// within a cell the oldest entry wins. These pin exactly which entry a
// lookup returns, so every DD built on the table is reproducible.
TEST(ComplexTable, RepresentativeIsHomeCellThenOldest) {
  const double tol = 1e-3;  // cell size 2e-3: cell k covers (2k-1, 2k+1)*tol
  ComplexTable tab(tol);
  const double im = 0.25;
  // Adjacent cells 100 and 101, 1.2 tol apart: two distinct entries.
  const CWeight older = tab.lookup(200.6 * tol, im);  // cell 100
  const CWeight newer = tab.lookup(201.8 * tol, im);  // cell 101
  ASSERT_NE(older, newer);
  // Within tol of both: the home cell decides, not the age.
  EXPECT_EQ(tab.lookup(201.2 * tol, im), newer);  // home cell 101
  EXPECT_EQ(tab.lookup(200.9 * tol, im), older);  // home cell 100

  // Two entries in one cell (cell 300), 1.8 tol apart: the older one wins
  // for a query within tol of both, whichever value it holds.
  const CWeight low = tab.lookup(599.1 * tol, im);
  const CWeight high = tab.lookup(600.9 * tol, im);
  ASSERT_NE(low, high);
  EXPECT_EQ(tab.lookup(600.0 * tol, im), low);
  const CWeight high2 = tab.lookup(800.9 * tol, im);  // cell 400
  const CWeight low2 = tab.lookup(799.1 * tol, im);
  ASSERT_NE(low2, high2);
  EXPECT_EQ(tab.lookup(800.0 * tol, im), high2);
}

TEST(ComplexTable, GrowthKeepsPointersAndOrder) {
  const double tol = 1e-6;
  ComplexTable tab(tol);
  // An older/newer pair sharing cell 1000 (x = 2000 tol), made before any
  // growth.
  const CWeight older = tab.lookup(1999.2 * tol, -0.5);
  const CWeight newer = tab.lookup(2000.8 * tol, -0.5);
  ASSERT_NE(older, newer);
  // Tens of thousands of distinct weights: the table grows several times.
  constexpr int kValues = 40000;
  std::vector<CWeight> ptrs;
  ptrs.reserve(kValues);
  for (int k = 0; k < kValues; ++k) {
    ptrs.push_back(tab.lookup(0.1 + k * 1e-4, 0.3 - k * 1e-5));
  }
  EXPECT_EQ(tab.size(), kValues + 4U);
  EXPECT_GE(tab.bucketCount(), ComplexTable::kInitialBuckets *
                                   ComplexTable::kGrowthFactor *
                                   ComplexTable::kGrowthFactor);
  for (int k = 0; k < kValues; ++k) {
    ASSERT_EQ(tab.lookup(0.1 + k * 1e-4, 0.3 - k * 1e-5), ptrs[k]) << k;
    ASSERT_NEAR(ptrs[k]->r, 0.1 + k * 1e-4, tol);
  }
  EXPECT_EQ(tab.lookup(1999.2 * tol, -0.5), older);
  EXPECT_EQ(tab.lookup(2000.8 * tol, -0.5), newer);
  EXPECT_EQ(tab.lookup(2000.0 * tol, -0.5), older);
}

TEST(ComplexTable, GarbageCollectAcrossGrowth) {
  const double tol = 1e-6;
  ComplexTable tab(tol);
  const CWeight older = tab.lookup(1999.2 * tol, 0.7);
  const CWeight newer = tab.lookup(2000.8 * tol, 0.7);
  constexpr int kValues = 20000;
  std::unordered_set<CWeight> live{older, newer};
  std::vector<CWeight> kept;
  for (int k = 0; k < kValues; ++k) {
    const CWeight w = tab.lookup(-0.2 - k * 1e-4, 0.1);
    if (k % 3 == 0) {
      live.insert(w);
      kept.push_back(w);
    }
  }
  const ComplexValue keptValue = *kept[1];
  EXPECT_EQ(tab.garbageCollect(live), kValues - kept.size());
  // A survivor keeps its address and its value.
  EXPECT_EQ(*kept[1], keptValue);
  EXPECT_EQ(tab.lookup(keptValue), kept[1]);
  EXPECT_EQ(tab.size(), kept.size() + 4);
  // Grow again past the size before the collection; survivors stay put.
  for (int k = 0; k < 2 * kValues; ++k) {
    live.insert(tab.lookup(0.4 + k * 1e-4, -0.1));
  }
  for (std::size_t j = 0; j < kept.size(); ++j) {
    const auto k = static_cast<double>(3 * j);
    ASSERT_EQ(tab.lookup(-0.2 - k * 1e-4, 0.1), kept[j]) << j;
  }
  // The collection kept the cell's order: the older entry still wins, and
  // once it is collected the newer one takes over.
  EXPECT_EQ(tab.lookup(2000.0 * tol, 0.7), older);
  live.erase(older);
  EXPECT_EQ(tab.garbageCollect(live), 1U);
  EXPECT_EQ(tab.lookup(2000.0 * tol, 0.7), newer);
  // The collected entry is recycled first: a new value lands at its address.
  const CWeight recycled = tab.lookup(-0.9, 0.3);
  EXPECT_EQ(recycled, older);
  EXPECT_EQ(recycled->r, -0.9);
  EXPECT_EQ(recycled->i, 0.3);
}

}  // namespace
}  // namespace ddsim::dd
