/// \file test_structure_kernels.cpp
/// \brief Tests of the structure-aware multiply kernels (cached
///        identity/diagonal node flags, fast-path counters) and of the
///        GC-surviving generation-tagged compute tables.

#include <gtest/gtest.h>

#include <numbers>
#include <random>

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
// GC retention: entries whose operands/result survive a collection are
// revalidated instead of recomputed.
// ---------------------------------------------------------------------------

TEST(CacheRetention, RootedMultiplyResultSurvivesGarbageCollection) {
  dd::Package pkg(6);
  std::mt19937_64 rng(23);
  const auto amps = test::randomAmplitudes(6, rng);
  dd::VEdge v = pkg.makeStateFromVector(amps);
  pkg.incRef(v);
  const dd::MEdge h = pkg.makeGateDD(kHadamard, 3);
  pkg.incRef(h);

  dd::VEdge w = pkg.multiply(h, v);
  pkg.incRef(w);

  // Everything referenced by the cached sub-products is rooted, so the
  // collection must not free any of it...
  pkg.garbageCollect();

  // ...and the repeated multiply must be served from retained entries:
  // hits (and the retained counter) go up, misses stay put.
  const auto before = pkg.cacheStats();
  const dd::VEdge w2 = pkg.multiply(h, v);
  const auto after = pkg.cacheStats();
  EXPECT_EQ(w2.p, w.p);
  EXPECT_EQ(w2.w, w.w);
  EXPECT_GT(after.mulMVHits, before.mulMVHits);
  EXPECT_EQ(after.mulMVMisses, before.mulMVMisses);
  EXPECT_GT(after.mulMVRetained, before.mulMVRetained);
  EXPECT_GT(after.gcRetentionRate(), 0.0);
}

TEST(CacheRetention, CollectedOperandsInvalidateStaleEntries) {
  dd::Package pkg(6);
  std::mt19937_64 rng(29);
  const auto amps = test::randomAmplitudes(6, rng);
  dd::VEdge v = pkg.makeStateFromVector(amps);
  pkg.incRef(v);
  const dd::MEdge h = pkg.makeGateDD(kHadamard, 2);
  pkg.incRef(h);

  const dd::VEdge w = pkg.multiply(h, v);
  // Deliberately do NOT root w: the product's nodes die in the collection,
  // so every cache entry referencing them must fail revalidation.
  (void)w;
  pkg.garbageCollect();

  const auto before = pkg.cacheStats();
  dd::VEdge w2 = pkg.multiply(h, v);
  pkg.incRef(w2);
  const auto after = pkg.cacheStats();
  // The recomputation is exact even though the stale entries died.
  dd::Package ref(6);
  const dd::VEdge rv = ref.makeStateFromVector(amps);
  const dd::VEdge rw = ref.multiply(ref.makeGateDD(kHadamard, 2), rv);
  test::expectAmplitudesNear(pkg.getVector(w2), ref.getVector(rw));
  EXPECT_GE(after.cacheStaleDropped, before.cacheStaleDropped);
}

TEST(CacheRetention, GenerationBumpIsNotAClear) {
  // After GC, previously cached additions on rooted operands are retained
  // too (the add table uses the same generation-tag protocol).
  dd::Package pkg(5);
  std::mt19937_64 rng(31);
  dd::VEdge a = pkg.makeStateFromVector(test::randomAmplitudes(5, rng));
  dd::VEdge b = pkg.makeStateFromVector(test::randomAmplitudes(5, rng));
  pkg.incRef(a);
  pkg.incRef(b);
  dd::VEdge s = pkg.add(a, b);
  pkg.incRef(s);

  pkg.garbageCollect();

  const auto before = pkg.cacheStats();
  const dd::VEdge s2 = pkg.add(a, b);
  const auto after = pkg.cacheStats();
  EXPECT_EQ(s2.p, s.p);
  EXPECT_GT(after.addRetained, before.addRetained);
  EXPECT_EQ(after.addMisses, before.addMisses);
}

}  // namespace
}  // namespace ddsim
