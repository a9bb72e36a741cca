#include <gtest/gtest.h>

#include "algo/numbertheory.hpp"
#include "algo/shor.hpp"
#include "sim/simulator.hpp"

namespace ddsim::algo {
namespace {

TEST(Shor, ValidatesInstances) {
  EXPECT_THROW(makeShorOracleCircuit(2, 1), std::invalid_argument);
  EXPECT_THROW(makeShorOracleCircuit(15, 1), std::invalid_argument);
  EXPECT_THROW(makeShorOracleCircuit(15, 5), std::invalid_argument);  // gcd>1
  EXPECT_THROW(makeShorBeauregardCircuit(15, 20), std::invalid_argument);
}

TEST(Shor, CircuitWidths) {
  // N=15: n=4 -> Beauregard 2n+3 = 11 qubits, oracle variant n+1 = 5.
  EXPECT_EQ(makeShorBeauregardCircuit(15, 7).numQubits(), 11U);
  EXPECT_EQ(makeShorOracleCircuit(15, 7).numQubits(), 5U);
  EXPECT_EQ(makeShorBeauregardCircuit(15, 7).numClbits(), 8U);
}

TEST(Shor, BenchmarkNames) {
  EXPECT_EQ(shorBenchmarkName(15, 7), "shor_15_7_11");
  EXPECT_EQ(shorBenchmarkName(15, 7, true), "shordd_15_7_5");
}

TEST(Shor, MeasuredValueAssembly) {
  const std::vector<bool> bits = {true, false, true, true};
  EXPECT_EQ(shorMeasuredValue(bits, 4), 0b1101U);
  // Six bits requested from four: must throw, never return a value.
  EXPECT_THROW(ADD_FAILURE() << "returned " << shorMeasuredValue(bits, 6),
               std::invalid_argument);
}

TEST(Shor, FactorsFromOrder) {
  // N=15, a=7: order 4, 7^2=4 mod 15 -> gcd(5,15)=5, gcd(3,15)=3.
  const auto f = factorsFromOrder(15, 7, 4);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->first * f->second, 15U);
  // Odd order gives nothing.
  EXPECT_FALSE(factorsFromOrder(15, 7, 3).has_value());
  // a^{r/2} = -1 mod N gives nothing: N=15, a=14 has order 2, 14 = -1.
  EXPECT_FALSE(factorsFromOrder(15, 14, 2).has_value());
}

/// Runs phase estimation repeatedly until the order is recovered; with 2n
/// phase bits a handful of trials succeeds with overwhelming probability.
std::optional<std::uint64_t> recoverOrder(const ir::Circuit& circuit,
                                          std::uint64_t N, std::uint64_t a,
                                          std::size_t phaseBits,
                                          sim::StrategyConfig config = {}) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto result = sim::simulate(circuit, config, seed);
    const std::uint64_t measured =
        shorMeasuredValue(result.classicalBits, phaseBits);
    if (const auto r = orderFromPhase(measured, static_cast<std::uint32_t>(phaseBits), a, N)) {
      return r;
    }
  }
  return std::nullopt;
}

class ShorOracleTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint64_t>> {};

TEST_P(ShorOracleTest, RecoversMultiplicativeOrder) {
  const auto [N, a] = GetParam();
  const std::size_t m = 2 * bitLength(N);
  const auto circuit = makeShorOracleCircuit(N, a);
  const auto order = recoverOrder(circuit, N, a, m);
  ASSERT_TRUE(order.has_value()) << "N=" << N << " a=" << a;
  EXPECT_EQ(*order, multiplicativeOrder(a, N).value());
}

INSTANTIATE_TEST_SUITE_P(Instances, ShorOracleTest,
                         ::testing::Values(std::make_tuple(15U, 7U),
                                           std::make_tuple(15U, 2U),
                                           std::make_tuple(21U, 2U),
                                           std::make_tuple(21U, 13U),
                                           std::make_tuple(33U, 5U),
                                           std::make_tuple(35U, 4U)));

TEST(Shor, BeauregardRecoversOrderN15) {
  const std::uint64_t N = 15;
  const std::uint64_t a = 7;
  const auto circuit = makeShorBeauregardCircuit(N, a);
  const auto order = recoverOrder(circuit, N, a, 2 * bitLength(N));
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(*order, 4U);
  const auto factors = factorsFromOrder(N, a, *order);
  ASSERT_TRUE(factors.has_value());
  EXPECT_EQ(std::min(factors->first, factors->second), 3U);
  EXPECT_EQ(std::max(factors->first, factors->second), 5U);
}

TEST(Shor, BeauregardRecoversOrderN21) {
  const std::uint64_t N = 21;
  const std::uint64_t a = 2;
  const auto circuit = makeShorBeauregardCircuit(N, a);
  const auto order =
      recoverOrder(circuit, N, a, 2 * bitLength(N),
                   sim::StrategyConfig::kOperations(8));
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(*order, multiplicativeOrder(2, 21).value());
}

TEST(Shor, OracleAndBeauregardAgreeOnPhaseDistribution) {
  // Same seed does not imply the same sample (different circuits consume
  // randomness differently), but both must produce phases consistent with
  // multiples of 1/r. Check that every sample's best convergent divides r.
  const std::uint64_t N = 15;
  const std::uint64_t a = 2;  // order 4
  const std::size_t m = 2 * bitLength(N);
  for (const bool oracle : {true, false}) {
    const auto circuit = oracle ? makeShorOracleCircuit(N, a)
                                : makeShorBeauregardCircuit(N, a);
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const auto result = sim::simulate(circuit, {}, seed);
      const std::uint64_t measured = shorMeasuredValue(result.classicalBits, m);
      // measured / 2^m must be close to s/4 for some integer s.
      const double phase =
          static_cast<double>(measured) / static_cast<double>(1ULL << m);
      const double nearest = std::round(phase * 4.0) / 4.0;
      EXPECT_NEAR(phase, nearest, 0.08)
          << (oracle ? "oracle" : "beauregard") << " seed " << seed;
    }
  }
}

TEST(Shor, EndToEndFactorization) {
  // Keep sampling until the classical post-processing yields factors.
  const std::uint64_t N = 15;
  const std::uint64_t a = 7;
  const std::size_t m = 2 * bitLength(N);
  const auto circuit = makeShorOracleCircuit(N, a);
  bool factored = false;
  for (std::uint64_t seed = 1; seed <= 20 && !factored; ++seed) {
    const auto result = sim::simulate(circuit, {}, seed);
    const std::uint64_t measured = shorMeasuredValue(result.classicalBits, m);
    const auto order = orderFromPhase(measured, static_cast<std::uint32_t>(m), a, N);
    if (!order) {
      continue;
    }
    if (const auto factors = factorsFromOrder(N, a, *order)) {
      EXPECT_EQ(factors->first * factors->second, N);
      factored = true;
    }
  }
  EXPECT_TRUE(factored);
}

TEST(Shor, OracleCircuitUsesOracleOps) {
  const auto circuit = makeShorOracleCircuit(15, 7);
  std::size_t oracles = 0;
  for (const auto& op : circuit.ops()) {
    oracles += op->kind() == ir::OpKind::Oracle ? 1U : 0U;
  }
  EXPECT_EQ(oracles, 2U * bitLength(15));
}

TEST(Shor, BeauregardGateCountIsSubstantial) {
  // The gate-level circuit is orders of magnitude larger than the oracle
  // variant — the very asymmetry DD-construct exploits.
  const auto gateLevel = makeShorBeauregardCircuit(15, 7);
  const auto oracle = makeShorOracleCircuit(15, 7);
  EXPECT_GT(gateLevel.flatGateCount(), 50U * oracle.flatGateCount());
}

}  // namespace
}  // namespace ddsim::algo
