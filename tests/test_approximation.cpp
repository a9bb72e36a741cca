#include <gtest/gtest.h>

#include <random>
#include <utility>
#include <vector>

#include "dd/approximation.hpp"
#include "dd/package.hpp"
#include "ir/gate.hpp"
#include "test_util.hpp"

namespace ddsim::dd {
namespace {

TEST(Approximation, FidelityOneIsIdentity) {
  Package p(4);
  std::mt19937_64 rng(1);
  const VEdge v = p.makeStateFromVector(test::randomAmplitudes(4, rng));
  const auto result = approximate(p, v, 1.0);
  EXPECT_EQ(result.state.p, v.p);
  EXPECT_EQ(result.state.w, v.w);
  EXPECT_DOUBLE_EQ(result.fidelity, 1.0);
  EXPECT_EQ(result.removedEdges, 0U);
}

TEST(Approximation, RejectsBadTargets) {
  Package p(2);
  const VEdge v = p.makeZeroState();
  EXPECT_THROW(approximate(p, v, 0.0), std::invalid_argument);
  EXPECT_THROW(approximate(p, v, 1.5), std::invalid_argument);
}

TEST(Approximation, PrunesTinyBranch) {
  Package p(2);
  // Dominant |00> with a tiny |11> branch.
  const double eps = 1e-3;
  const double major = std::sqrt(1.0 - eps * eps);
  std::vector<ComplexValue> amps = {{major, 0}, {0, 0}, {0, 0}, {eps, 0}};
  const VEdge v = p.makeStateFromVector(amps);
  const auto result = approximate(p, v, 0.99);
  EXPECT_GT(result.removedEdges, 0U);
  EXPECT_LT(result.nodesAfter, result.nodesBefore);
  // Now a pure |00> state.
  EXPECT_NEAR(p.getAmplitude(result.state, 0).mag2(), 1.0, 1e-9);
  EXPECT_NEAR(p.getAmplitude(result.state, 3).mag2(), 0.0, 1e-12);
  EXPECT_GE(result.fidelity, 0.99);
  EXPECT_NEAR(p.norm2(result.state), 1.0, 1e-9);
}

TEST(Approximation, RespectsFidelityBudget) {
  Package p(6);
  std::mt19937_64 rng(7);
  const VEdge v = p.makeStateFromVector(test::randomAmplitudes(6, rng));
  for (const double target : {0.999, 0.99, 0.9, 0.5}) {
    const auto result = approximate(p, v, target);
    EXPECT_GE(result.fidelity, target) << "target " << target;
    EXPECT_NEAR(p.norm2(result.state), 1.0, 1e-9);
  }
}

TEST(Approximation, MonotoneSizeInBudget) {
  Package p(7);
  std::mt19937_64 rng(13);
  const VEdge v = p.makeStateFromVector(test::randomAmplitudes(7, rng));
  const auto tight = approximate(p, v, 0.999);
  const auto loose = approximate(p, v, 0.7);
  EXPECT_LE(loose.nodesAfter, tight.nodesAfter);
}

TEST(Approximation, DominantBasisStateSurvives) {
  Package p(5);
  // 99% on |10101>, the rest spread uniformly.
  std::vector<ComplexValue> amps(32, ComplexValue{std::sqrt(0.01 / 31.0), 0});
  amps[0b10101] = {std::sqrt(0.99), 0};
  const VEdge v = p.makeStateFromVector(amps);
  const auto result = approximate(p, v, 0.95);
  EXPECT_GT(p.getAmplitude(result.state, 0b10101).mag2(), 0.9);
}

TEST(Approximation, TiedEdgesAreCutTheSameWayAtAnyAddress) {
  // In the uniform 4-qubit state every edge carries probability mass 1/2,
  // so the cut rests on the tie-break alone. The second package builds the
  // state from a free list that a garbage collection has scrambled, so its
  // nodes sit at other addresses in another order; the cut must not care.
  const std::vector<ComplexValue> uniform(16, ComplexValue{0.25, 0.0});
  const auto approximateUniform = [&uniform](Package& p) {
    const VEdge v = p.makeStateFromVector(uniform);
    const auto result = approximate(p, v, 0.45);
    return std::pair{result, p.getVector(result.state)};
  };
  Package fresh(4);
  const auto [a, ampsA] = approximateUniform(fresh);

  Package scrambled(4);
  std::mt19937_64 rng(5);
  (void)scrambled.makeStateFromVector(test::randomAmplitudes(4, rng));
  ASSERT_GT(scrambled.garbageCollect(), 0U);
  const auto [b, ampsB] = approximateUniform(scrambled);

  EXPECT_EQ(a.removedEdges, 1U);
  EXPECT_EQ(a.removedEdges, b.removedEdges);
  EXPECT_EQ(a.nodesAfter, b.nodesAfter);
  EXPECT_EQ(a.fidelity, b.fidelity);
  EXPECT_TRUE(ampsA == ampsB) << "different edges were cut";
}

}  // namespace
}  // namespace ddsim::dd
