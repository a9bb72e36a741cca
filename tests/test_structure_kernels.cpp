/// \file test_structure_kernels.cpp
/// \brief Tests of the structure-aware multiply kernels (cached
///        identity/diagonal node flags, fast-path counters) and of which
///        compute-table entries a garbage collection ends.

#include <gtest/gtest.h>

#include <numbers>
#include <random>
#include <set>

#include "baseline/statevector.hpp"
#include "dd/package.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace ddsim {
namespace {

const dd::GateMatrix kHadamard = {
    dd::ComplexValue{1.0 / std::numbers::sqrt2, 0.0},
    dd::ComplexValue{1.0 / std::numbers::sqrt2, 0.0},
    dd::ComplexValue{1.0 / std::numbers::sqrt2, 0.0},
    dd::ComplexValue{-1.0 / std::numbers::sqrt2, 0.0}};
const dd::GateMatrix kPauliX = {dd::ComplexValue{0, 0}, dd::ComplexValue{1, 0},
                                dd::ComplexValue{1, 0}, dd::ComplexValue{0, 0}};
const dd::GateMatrix kTGate = {
    dd::ComplexValue{1, 0}, dd::ComplexValue{0, 0}, dd::ComplexValue{0, 0},
    dd::ComplexValue{1.0 / std::numbers::sqrt2, 1.0 / std::numbers::sqrt2}};

// ---------------------------------------------------------------------------
// Structure flags
// ---------------------------------------------------------------------------

TEST(StructureFlags, IdentityDDIsFlaggedIdentityAndDiagonal) {
  dd::Package pkg(4);
  const dd::MEdge id = pkg.makeIdent();
  EXPECT_TRUE(id.p->isIdentity());
  EXPECT_TRUE(id.p->isDiagonal());
}

TEST(StructureFlags, DiagonalGateIsDiagonalButNotIdentity) {
  dd::Package pkg(4);
  const dd::MEdge t = pkg.makeGateDD(kTGate, 2);
  EXPECT_TRUE(t.p->isDiagonal());
  EXPECT_FALSE(t.p->isIdentity());
}

TEST(StructureFlags, OffDiagonalGateIsNeither) {
  dd::Package pkg(4);
  const dd::MEdge x = pkg.makeGateDD(kPauliX, 1);
  EXPECT_FALSE(x.p->isDiagonal());
  EXPECT_FALSE(x.p->isIdentity());
  const dd::MEdge h = pkg.makeGateDD(kHadamard, 0);
  EXPECT_FALSE(h.p->isDiagonal());
  EXPECT_FALSE(h.p->isIdentity());
}

TEST(StructureFlags, ControlledGateKeepsDiagonalClassification) {
  dd::Package pkg(4);
  // CX has off-diagonal blocks; CPhase-like CT stays diagonal.
  const dd::MEdge cx =
      pkg.makeGateDD(kPauliX, 0, {dd::Control{2, true}});
  EXPECT_FALSE(cx.p->isDiagonal());
  const dd::MEdge ct = pkg.makeGateDD(kTGate, 0, {dd::Control{2, true}});
  EXPECT_TRUE(ct.p->isDiagonal());
  EXPECT_FALSE(ct.p->isIdentity());
}

// ---------------------------------------------------------------------------
// Identity fast paths (counter-based: the skip must actually be taken)
// ---------------------------------------------------------------------------

TEST(IdentityFastPath, MatrixVectorSkipsWithoutRecursion) {
  dd::Package pkg(5);
  std::mt19937_64 rng(7);
  const auto amps = test::randomAmplitudes(5, rng);
  const dd::VEdge v = pkg.makeStateFromVector(amps);
  const dd::MEdge id = pkg.makeIdent();

  const auto skipsBefore = pkg.stats().identitySkipsMV;
  const auto recBefore = pkg.stats().recursiveMulVCalls;
  const dd::VEdge w = pkg.multiply(id, v);
  EXPECT_EQ(w.p, v.p);  // same node, identical state
  EXPECT_EQ(w.w, v.w);
  EXPECT_GT(pkg.stats().identitySkipsMV, skipsBefore);
  // Top-level fast path: no recursive multiply call at all.
  EXPECT_EQ(pkg.stats().recursiveMulVCalls, recBefore);
}

TEST(IdentityFastPath, GateDDPaddingIsSkippedInsideRecursion) {
  // A controlled gate embeds an explicit identity chain on the unsatisfied
  // control branch; the multiply must resolve that whole subtree via the
  // flag instead of descending it level by level.
  dd::Package pkg(8);
  std::mt19937_64 rng(11);
  const auto amps = test::randomAmplitudes(8, rng);
  const dd::VEdge v = pkg.makeStateFromVector(amps);
  const dd::MEdge cx = pkg.makeGateDD(kPauliX, 0, {dd::Control{7, true}});

  const auto skipsBefore = pkg.stats().identitySkipsMV;
  (void)pkg.multiply(cx, v);
  EXPECT_GT(pkg.stats().identitySkipsMV, skipsBefore);
}

TEST(IdentityFastPath, MatrixMatrixSkips) {
  dd::Package pkg(5);
  const dd::MEdge h = pkg.makeGateDD(kHadamard, 2);
  const dd::MEdge id = pkg.makeIdent();

  const auto skipsBefore = pkg.stats().identitySkipsMM;
  const dd::MEdge l = pkg.multiply(id, h);
  EXPECT_EQ(l.p, h.p);
  const dd::MEdge r = pkg.multiply(h, id);
  EXPECT_EQ(r.p, h.p);
  EXPECT_GE(pkg.stats().identitySkipsMM, skipsBefore + 2);
}

TEST(IdentityFastPath, SkipRateStaysAFraction) {
  // Top-level and per-quadrant skips resolve a sub-product without a
  // recursive call, so the rate must count each sub-product once — either
  // as a skip or as a call — to stay a rate.
  dd::Package pkg(3);
  const dd::MEdge h = pkg.makeGateDD(kHadamard, 2);
  (void)pkg.multiply(h, pkg.makeZeroState());
  EXPECT_GT(pkg.stats().identitySkipsMV, 0U);
  EXPECT_GE(pkg.stats().identitySkipRate(), 0.0);
  EXPECT_LE(pkg.stats().identitySkipRate(), 1.0);

  (void)pkg.multiply(h, h);
  EXPECT_GT(pkg.stats().identitySkipsMM, 0U);
  EXPECT_GE(pkg.stats().identitySkipRate(), 0.0);
  EXPECT_LE(pkg.stats().identitySkipRate(), 1.0);
}

TEST(IdentityFastPath, DiagonalProductPrunesOffDiagonalQuadrants) {
  dd::Package pkg(4);
  const dd::MEdge t0 = pkg.makeGateDD(kTGate, 0);
  const dd::MEdge t2 = pkg.makeGateDD(kTGate, 2);

  const auto beforeDiag = pkg.stats().diagonalFastPathsMM;
  const dd::MEdge prod = pkg.multiply(t0, t2);
  EXPECT_GT(pkg.stats().diagonalFastPathsMM, beforeDiag);
  EXPECT_TRUE(prod.p->isDiagonal());

  // Cross-check the result against the dense product.
  const auto dense = pkg.getMatrix(prod);
  dd::Package ref(4);
  const auto d0 = ref.getMatrix(ref.makeGateDD(kTGate, 0));
  const auto d2 = ref.getMatrix(ref.makeGateDD(kTGate, 2));
  const std::size_t dim = 1U << 4;
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t c = 0; c < dim; ++c) {
      dd::ComplexValue sum{0.0, 0.0};
      for (std::size_t k = 0; k < dim; ++k) {
        sum += d0[r * dim + k] * d2[k * dim + c];
      }
      EXPECT_NEAR(dense[r * dim + c].r, sum.r, 1e-10);
      EXPECT_NEAR(dense[r * dim + c].i, sum.i, 1e-10);
    }
  }
}

// ---------------------------------------------------------------------------
// Structure-aware kernels are a pure optimization: random-circuit sweep
// against the dense baseline.
// ---------------------------------------------------------------------------

class StructureKernelSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StructureKernelSweep, MatchesDenseBaselineBitForBit) {
  const std::uint64_t seed = GetParam();
  const auto circuit = test::randomCircuit(6, 120, seed);
  sim::CircuitSimulator simulator(circuit);
  const auto result = simulator.run();
  const auto dense = baseline::runOnStateVector(circuit);
  const auto got = simulator.package().getVector(result.finalState);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i].r, dense.state.amplitudes()[i].real(), 1e-7)
        << "seed=" << seed << " amp=" << i;
    ASSERT_NEAR(got[i].i, dense.state.amplitudes()[i].imag(), 1e-7)
        << "seed=" << seed << " amp=" << i;
  }
  // The sweep should actually exercise the fast paths, not just agree.
  EXPECT_GT(simulator.package().stats().identitySkipsMV, 0U);
}

INSTANTIATE_TEST_SUITE_P(Sweep, StructureKernelSweep,
                         ::testing::Range<std::uint64_t>(7100, 7110));

// ---------------------------------------------------------------------------
// Retention and invalidation: a garbage collection carries over the
// compute-table entries whose nodes all survived and ends the rest; an
// ended entry is never served or read through.
// ---------------------------------------------------------------------------

/// Every non-terminal node reachable from \p e.
std::set<const dd::VNode*> vectorNodes(const dd::VEdge& e) {
  std::set<const dd::VNode*> seen;
  std::vector<const dd::VNode*> stack{e.p};
  while (!stack.empty()) {
    const dd::VNode* n = stack.back();
    stack.pop_back();
    if (n->isTerminal() || !seen.insert(n).second) {
      continue;
    }
    for (const auto& child : n->e) {
      stack.push_back(child.p);
    }
  }
  return seen;
}

TEST(CacheRetention, RootedMultiplyResultSurvivesGarbageCollection) {
  dd::Package pkg(6);
  std::mt19937_64 rng(23);
  dd::VEdge v = pkg.makeStateFromVector(test::randomAmplitudes(6, rng));
  pkg.incRef(v);
  const dd::MEdge h = pkg.makeGateDD(kHadamard, 3);
  pkg.incRef(h);

  const dd::VEdge w = pkg.multiply(h, v);
  pkg.incRef(w);
  // Everything the cached sub-products name is rooted, so the collection
  // frees none of it and carries their entries over...
  pkg.garbageCollect();

  // ...and the repeat is served from them: no miss, no recursion below the
  // top-level entry, the same edge.
  const dd::CacheStats before = pkg.cacheStats();
  const dd::PackageStats s0 = pkg.stats();
  const dd::VEdge w2 = pkg.multiply(h, v);
  const dd::CacheStats after = pkg.cacheStats();
  EXPECT_EQ(w2.p, w.p);
  EXPECT_EQ(w2.w, w.w);
  EXPECT_GT(after.mulMVHits, before.mulMVHits);
  EXPECT_EQ(after.mulMVMisses, before.mulMVMisses);
  EXPECT_EQ(pkg.stats().recursiveMulVCalls - s0.recursiveMulVCalls, 1U);
}

TEST(CacheRetention, GenerationBumpIsNotAClear) {
  dd::Package pkg(5);
  std::mt19937_64 rng(31);
  dd::VEdge a = pkg.makeStateFromVector(test::randomAmplitudes(5, rng));
  dd::VEdge b = pkg.makeStateFromVector(test::randomAmplitudes(5, rng));
  pkg.incRef(a);
  pkg.incRef(b);
  dd::VEdge s = pkg.add(a, b);
  pkg.incRef(s);

  pkg.garbageCollect();
  const dd::CacheStats before = pkg.cacheStats();
  const dd::VEdge s2 = pkg.add(a, b);
  const dd::CacheStats after = pkg.cacheStats();

  EXPECT_EQ(s2.p, s.p);
  EXPECT_EQ(s2.w, s.w);
  EXPECT_GT(after.addHits, before.addHits);
  EXPECT_EQ(after.addMisses, before.addMisses);
}

TEST(CacheRetention, EveryTableKindHitsAgainAfterCollection) {
  constexpr std::size_t kQubits = 5;
  dd::Package pkg(kQubits);
  std::mt19937_64 rng(41);
  const auto rooted = [&pkg](auto e) {
    pkg.incRef(e);
    return e;
  };
  const dd::VEdge a =
      rooted(pkg.makeStateFromVector(test::randomAmplitudes(kQubits, rng)));
  const dd::VEdge b =
      rooted(pkg.makeStateFromVector(test::randomAmplitudes(kQubits, rng)));
  // Dense random blocks over the low three qubits (64 entries), padded with
  // identities above.
  const dd::MEdge x =
      rooted(pkg.makeMatrixFromDense(test::randomAmplitudes(6, rng)));
  const dd::MEdge y =
      rooted(pkg.makeMatrixFromDense(test::randomAmplitudes(6, rng)));

  // One entry per table kind, each naming only rooted nodes. Every kernel
  // keys its edges at weight one, so the collection has no weight to check.
  const dd::VEdge addV = rooted(pkg.add(a, b));
  const dd::MEdge addM = rooted(pkg.add(x, y));
  const dd::VEdge mxv = rooted(pkg.multiply(x, a));
  const dd::MEdge mxm = rooted(pkg.multiply(x, y));
  const dd::MEdge xt = rooted(pkg.conjugateTranspose(x));
  const dd::ComplexValue inner = pkg.innerProduct(a, b);
  const double norm = pkg.norm2(a);
  const dd::ComplexValue trace = pkg.trace(x);
  ASSERT_GT(pkg.garbageCollect(), 0U);

  // Each repeat is served by its carried-over entry: a hit, no miss.
  using S = dd::CacheStats;
  const auto expectServed = [&pkg](std::uint64_t S::*hits,
                                   std::uint64_t S::*misses,
                                   const auto& repeat) {
    const S before = pkg.cacheStats();
    repeat();
    const S after = pkg.cacheStats();
    EXPECT_GT(after.*hits, before.*hits);
    EXPECT_EQ(after.*misses, before.*misses);
  };
  expectServed(&S::addHits, &S::addMisses,
               [&] { EXPECT_EQ(pkg.add(a, b), addV); });
  expectServed(&S::addHits, &S::addMisses,
               [&] { EXPECT_EQ(pkg.add(x, y), addM); });
  expectServed(&S::mulMVHits, &S::mulMVMisses,
               [&] { EXPECT_EQ(pkg.multiply(x, a), mxv); });
  expectServed(&S::mulMMHits, &S::mulMMMisses,
               [&] { EXPECT_EQ(pkg.multiply(x, y), mxm); });
  expectServed(&S::otherHits, &S::otherMisses,
               [&] { EXPECT_EQ(pkg.conjugateTranspose(x), xt); });
  expectServed(&S::otherHits, &S::otherMisses,
               [&] { EXPECT_EQ(pkg.innerProduct(a, b), inner); });
  expectServed(&S::otherHits, &S::otherMisses,
               [&] { EXPECT_EQ(pkg.norm2(a), norm); });
  expectServed(&S::otherHits, &S::otherMisses,
               [&] { EXPECT_EQ(pkg.trace(x), trace); });
}

TEST(CacheRetention, CollectedOperandsInvalidateStaleEntries) {
  dd::Package pkg(6);
  std::mt19937_64 rng(29);
  const auto amps = test::randomAmplitudes(6, rng);
  dd::VEdge v = pkg.makeStateFromVector(amps);
  pkg.incRef(v);
  const dd::MEdge h = pkg.makeGateDD(kHadamard, 2);
  pkg.incRef(h);
  // The operands stay rooted but the product does not, so the collection
  // frees the result node of the top-level entry.
  pkg.multiply(h, v);
  ASSERT_GT(pkg.garbageCollect(), 0U);

  const dd::CacheStats before = pkg.cacheStats();
  const dd::VEdge w = pkg.multiply(h, v);
  const dd::CacheStats after = pkg.cacheStats();
  EXPECT_GT(after.mulMVMisses, before.mulMVMisses);
  dd::Package ref(6);
  const dd::VEdge rw = ref.multiply(ref.makeGateDD(kHadamard, 2),
                                    ref.makeStateFromVector(amps));
  test::expectAmplitudesNear(pkg.getVector(w), ref.getVector(rw));
}

TEST(CacheInvalidation, OperandRecycledAtTheSameAddressNeverHits) {
  constexpr std::size_t kQubits = 6;
  dd::Package pkg(kQubits);
  std::mt19937_64 rng(29);
  const dd::MEdge h = pkg.makeGateDD(kHadamard, 2);
  pkg.incRef(h);
  // Multiply an unrooted state: the collection frees its nodes and the
  // product's, while cache entries keyed on them stay in the tables.
  const dd::VEdge dead =
      pkg.makeStateFromVector(test::randomAmplitudes(kQubits, rng));
  const std::set<const dd::VNode*> deadNodes = vectorNodes(dead);
  pkg.multiply(h, dead);
  pkg.garbageCollect();

  // The allocator's free list hands the collected nodes out again, so the
  // next state sits (partly) at the addresses of the dead one.
  const auto amps = test::randomAmplitudes(kQubits, rng);
  dd::VEdge v = pkg.makeStateFromVector(amps);
  pkg.incRef(v);
  std::size_t reused = 0;
  for (const dd::VNode* n : vectorNodes(v)) {
    reused += deadNodes.count(n);
  }
  ASSERT_GT(reused, 0U);

  const dd::CacheStats before = pkg.cacheStats();
  dd::VEdge w = pkg.multiply(h, v);
  pkg.incRef(w);
  const dd::CacheStats after = pkg.cacheStats();

  // A fresh package does the same work and gets the same state: no lookup
  // was served by an entry of the collected state.
  dd::Package ref(kQubits);
  const dd::MEdge rh = ref.makeGateDD(kHadamard, 2);
  const dd::VEdge rv = ref.makeStateFromVector(amps);
  const dd::CacheStats refBefore = ref.cacheStats();
  const dd::VEdge rw = ref.multiply(rh, rv);
  const dd::CacheStats refAfter = ref.cacheStats();
  test::expectAmplitudesNear(pkg.getVector(w), ref.getVector(rw));
  EXPECT_EQ(after.mulMVHits - before.mulMVHits,
            refAfter.mulMVHits - refBefore.mulMVHits);
  EXPECT_EQ(after.mulMVMisses - before.mulMVMisses,
            refAfter.mulMVMisses - refBefore.mulMVMisses);
  EXPECT_EQ(after.addHits - before.addHits,
            refAfter.addHits - refBefore.addHits);
}

TEST(CacheInvalidation, TablesGrowCleanlyAfterAnEmergencyCollect) {
  constexpr std::size_t kQubits = 12;
  dd::Package pkg(kQubits);
  std::mt19937_64 rng(37);
  // Nothing is rooted: the emergency collection frees every node the
  // product's cache entries point at and returns their chunks to the OS.
  pkg.multiply(pkg.makeGateDD(kHadamard, 0),
               pkg.makeStateFromVector(test::randomAmplitudes(kQubits, rng)));
  const std::uint64_t insertsBefore = pkg.cacheStats().mulMVMisses;
  ASSERT_GT(pkg.emergencyCollect(), 0U);

  // Further multiplies grow the tables while their stale entries point into
  // released memory. Growth must drop those entries unread
  // (AddressSanitizer checks this), and every result must match a fresh
  // package's.
  for (int round = 0; round < 5; ++round) {
    const auto amps = test::randomAmplitudes(kQubits, rng);
    const dd::VEdge w =
        pkg.multiply(pkg.makeGateDD(kHadamard, 0), pkg.makeStateFromVector(amps));
    dd::Package ref(kQubits);
    const dd::VEdge rw = ref.multiply(ref.makeGateDD(kHadamard, 0),
                                      ref.makeStateFromVector(amps));
    test::expectAmplitudesNear(pkg.getVector(w), ref.getVector(rw));
  }
  // Every multiply miss is one insert. A table that took N inserts holds at
  // most 3N + 2^10 entries (it starts at 2^10 and grows x4 each time the
  // inserts since the last resize reach its size), so at least that many
  // inserts after the collection grew the multiply table once more.
  const std::uint64_t insertsAfter =
      pkg.cacheStats().mulMVMisses - insertsBefore;
  EXPECT_GE(insertsAfter, 3 * insertsBefore + (1U << 10));
}

}  // namespace
}  // namespace ddsim
