#include <gtest/gtest.h>

#include <cmath>

#include "algo/textbook.hpp"
#include "sim/simulator.hpp"

namespace ddsim::algo {
namespace {

std::uint64_t measuredValue(const std::vector<bool>& bits, std::size_t n) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) {
    v |= static_cast<std::uint64_t>(bits[i]) << i;
  }
  return v;
}

// ----------------------------------------------------------------------- QPE

class QpeExactTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(QpeExactTest, ExactPhasesAreMeasuredDeterministically) {
  const auto [bits, numerator] = GetParam();
  if (numerator >= (1ULL << bits)) {
    GTEST_SKIP();
  }
  const double phi =
      static_cast<double>(numerator) / static_cast<double>(1ULL << bits);
  const auto circuit = makePhaseEstimationCircuit(phi, bits);
  // Exactly representable phase: outcome is deterministic.
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const auto result = sim::simulate(circuit, {}, seed);
    EXPECT_EQ(measuredValue(result.classicalBits, bits), numerator)
        << "bits=" << bits << " num=" << numerator;
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, QpeExactTest,
                         ::testing::Combine(::testing::Values(3U, 5U, 8U),
                                            ::testing::Values(0ULL, 1ULL, 3ULL,
                                                              100ULL)));

TEST(Qpe, InexactPhaseConcentratesNearTruth) {
  const std::size_t bits = 7;
  const double phi = 1.0 / 3.0;
  const auto circuit = makePhaseEstimationCircuit(phi, bits);
  int near = 0;
  const int shots = 20;
  for (int seed = 0; seed < shots; ++seed) {
    const auto result =
        sim::simulate(circuit, {}, static_cast<std::uint64_t>(seed));
    const double estimate =
        static_cast<double>(measuredValue(result.classicalBits, bits)) /
        static_cast<double>(1ULL << bits);
    if (std::abs(estimate - phi) < 2.0 / (1ULL << bits)) {
      ++near;
    }
  }
  EXPECT_GE(near, shots * 3 / 5);  // theory: > 81% within +-2/2^m
}

// ---------------------------------------------------------------------- BV

TEST(BernsteinVazirani, RecoversHiddenString) {
  for (const std::uint64_t hidden : {0ULL, 1ULL, 0b101101ULL, 63ULL}) {
    const auto circuit = makeBernsteinVaziraniCircuit(hidden, 6);
    const auto result = sim::simulate(circuit);
    EXPECT_EQ(measuredValue(result.classicalBits, 6), hidden);
  }
}

TEST(BernsteinVazirani, SingleQueryScalesWide) {
  const std::uint64_t hidden = 0x2AAAAAAAAULL & ((1ULL << 30) - 1);
  const auto circuit = makeBernsteinVaziraniCircuit(hidden, 30);
  const auto result = sim::simulate(circuit);
  EXPECT_EQ(measuredValue(result.classicalBits, 30), hidden);
}

TEST(BernsteinVazirani, Validation) {
  EXPECT_THROW(makeBernsteinVaziraniCircuit(4, 2), std::invalid_argument);
  EXPECT_THROW(makeBernsteinVaziraniCircuit(0, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------- DJ

TEST(GHZ, AmplitudesAndCompactness) {
  const auto circuit = makeGHZCircuit(10);
  sim::CircuitSimulator simulator(circuit);
  const auto result = simulator.run();
  auto& pkg = simulator.package();
  const double s = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(pkg.getAmplitude(result.finalState, 0).r, s, 1e-12);
  EXPECT_NEAR(pkg.getAmplitude(result.finalState, (1ULL << 10) - 1).r, s, 1e-12);
  // GHZ is the classic compact-DD state: two paths, linear size.
  EXPECT_LE(pkg.size(result.finalState), 2 * 10 + 2);
}

TEST(WState, UniformOneHotAmplitudes) {
  const std::size_t n = 8;
  const auto circuit = makeWStateCircuit(n);
  sim::CircuitSimulator simulator(circuit);
  const auto result = simulator.run();
  auto& pkg = simulator.package();
  const double expected = 1.0 / std::sqrt(static_cast<double>(n));
  double total = 0;
  for (std::size_t q = 0; q < n; ++q) {
    const auto amp = pkg.getAmplitude(result.finalState, 1ULL << q);
    EXPECT_NEAR(amp.r, expected, 1e-9) << "one-hot " << q;
    total += amp.mag2();
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_NEAR(pkg.getAmplitude(result.finalState, 0).mag2(), 0.0, 1e-12);
  EXPECT_NEAR(pkg.getAmplitude(result.finalState, 3).mag2(), 0.0, 1e-12);
}

TEST(WState, Validation) {
  EXPECT_THROW(makeWStateCircuit(1), std::invalid_argument);
}

}  // namespace
}  // namespace ddsim::algo
