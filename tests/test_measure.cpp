#include <gtest/gtest.h>

#include <map>
#include <numbers>
#include <random>

#include "dd/package.hpp"
#include "ir/gate.hpp"
#include "test_util.hpp"

namespace ddsim::dd {
namespace {

TEST(Measure, ProbabilityOfOneOnBasisStates) {
  Package p(3);
  for (std::uint64_t bits = 0; bits < 8; ++bits) {
    const VEdge v = p.makeBasisState(bits);
    for (Qubit q = 0; q < 3; ++q) {
      const double expected = ((bits >> q) & 1U) != 0 ? 1.0 : 0.0;
      EXPECT_NEAR(p.probabilityOfOne(v, q), expected, 1e-12);
    }
  }
}

TEST(Measure, ProbabilityOfOneOnSuperposition) {
  Package p(2);
  // (|00> + |01> + |10> + |11>)/2: every qubit reads 1 with probability 1/2.
  std::vector<ComplexValue> amps(4, ComplexValue{0.5, 0.0});
  const VEdge v = p.makeStateFromVector(amps);
  EXPECT_NEAR(p.probabilityOfOne(v, 0), 0.5, 1e-12);
  EXPECT_NEAR(p.probabilityOfOne(v, 1), 0.5, 1e-12);
}

TEST(Measure, ProbabilityMatchesAmplitudes) {
  Package p(5);
  std::mt19937_64 rng(55);
  const auto amps = test::randomAmplitudes(5, rng);
  const VEdge v = p.makeStateFromVector(amps);
  for (Qubit q = 0; q < 5; ++q) {
    double expected = 0;
    for (std::size_t i = 0; i < amps.size(); ++i) {
      if (((i >> q) & 1U) != 0) {
        expected += amps[i].mag2();
      }
    }
    EXPECT_NEAR(p.probabilityOfOne(v, q), expected, 1e-9);
  }
}

TEST(Measure, CollapseProducesConsistentPosterior) {
  Package p(4);
  std::mt19937_64 rng(56);
  const auto amps = test::randomAmplitudes(4, rng);
  VEdge v = p.makeStateFromVector(amps);
  p.incRef(v);
  const int outcome = p.measureOneCollapsing(v, 2, rng);
  EXPECT_NEAR(p.norm2(v), 1.0, 1e-9);
  EXPECT_NEAR(p.probabilityOfOne(v, 2), outcome == 1 ? 1.0 : 0.0, 1e-9);
  // Conditional amplitudes preserved up to normalization.
  const auto post = p.getVector(v);
  double preMass = 0;
  for (std::size_t i = 0; i < amps.size(); ++i) {
    if ((((i >> 2) & 1U) != 0) == (outcome == 1)) {
      preMass += amps[i].mag2();
    }
  }
  const double scale = 1.0 / std::sqrt(preMass);
  for (std::size_t i = 0; i < amps.size(); ++i) {
    if ((((i >> 2) & 1U) != 0) == (outcome == 1)) {
      EXPECT_NEAR(post[i].r, amps[i].r * scale, 1e-9);
      EXPECT_NEAR(post[i].i, amps[i].i * scale, 1e-9);
    } else {
      EXPECT_NEAR(post[i].mag2(), 0.0, 1e-12);
    }
  }
  p.decRef(v);
}

TEST(Measure, MeasureAllOnBasisStateIsDeterministic) {
  Package p(6);
  std::mt19937_64 rng(57);
  VEdge v = p.makeBasisState(0b101101);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(p.measureAll(v, rng, false), 0b101101U);
  }
}

TEST(Measure, MeasureAllSamplesTheRightDistribution) {
  Package p(2);
  // Bell state: only 00 and 11 occur, roughly evenly.
  const double s = std::numbers::sqrt2 / 2;
  std::vector<ComplexValue> amps = {{s, 0}, {0, 0}, {0, 0}, {s, 0}};
  VEdge v = p.makeStateFromVector(amps);
  std::mt19937_64 rng(58);
  std::map<std::uint64_t, int> histogram;
  const int shots = 4000;
  for (int i = 0; i < shots; ++i) {
    ++histogram[p.measureAll(v, rng, false)];
  }
  EXPECT_EQ(histogram.count(1), 0U);
  EXPECT_EQ(histogram.count(2), 0U);
  EXPECT_NEAR(static_cast<double>(histogram[0]) / shots, 0.5, 0.05);
  EXPECT_NEAR(static_cast<double>(histogram[3]) / shots, 0.5, 0.05);
}

TEST(Measure, MeasureAllCollapseYieldsBasisState) {
  Package p(3);
  std::mt19937_64 rng(59);
  VEdge v = p.makeStateFromVector(test::randomAmplitudes(3, rng));
  p.incRef(v);
  const std::uint64_t outcome = p.measureAll(v, rng, true);
  EXPECT_NEAR(p.getAmplitude(v, outcome).mag2(), 1.0, 1e-12);
  p.decRef(v);
}

TEST(Measure, SampleCountsMatchesDistribution) {
  Package p(2);
  // 3/4 weight on |00>, 1/4 on |11>.
  std::vector<ComplexValue> amps = {
      {std::sqrt(0.75), 0}, {0, 0}, {0, 0}, {0.5, 0}};
  const VEdge v = p.makeStateFromVector(amps);
  std::mt19937_64 rng(61);
  const auto histogram = p.sampleCounts(v, 8000, rng);
  EXPECT_EQ(histogram.count(1), 0U);
  EXPECT_EQ(histogram.count(2), 0U);
  EXPECT_NEAR(static_cast<double>(histogram.at(0)) / 8000.0, 0.75, 0.03);
  EXPECT_NEAR(static_cast<double>(histogram.at(3)) / 8000.0, 0.25, 0.03);
}

TEST(Measure, RepeatedCollapsesConverge) {
  Package p(4);
  std::mt19937_64 rng(60);
  VEdge v = p.makeStateFromVector(test::randomAmplitudes(4, rng));
  p.incRef(v);
  std::uint64_t bits = 0;
  for (Qubit q = 0; q < 4; ++q) {
    bits |= static_cast<std::uint64_t>(p.measureOneCollapsing(v, q, rng)) << q;
  }
  // Fully measured: the state is the basis state of the outcomes.
  EXPECT_NEAR(p.getAmplitude(v, bits).mag2(), 1.0, 1e-9);
  p.decRef(v);
}

}  // namespace
}  // namespace ddsim::dd
