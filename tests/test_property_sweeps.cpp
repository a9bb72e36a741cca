/// \file test_property_sweeps.cpp
/// \brief Parameterized property sweeps across random circuits, strategies
///        and seeds — the invariants of DESIGN.md Section 7 checked in bulk.

#include <gtest/gtest.h>

#include <cctype>
#include <random>

#include "baseline/statevector.hpp"
#include "sim/equivalence.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace ddsim {
namespace {

// ---------------------------------------------------------------------------
// Invariant 3: DD simulation equals the dense baseline on random circuits.
// ---------------------------------------------------------------------------

class RandomCircuitSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(RandomCircuitSweep, DDMatchesDense) {
  const auto [numQubits, seed] = GetParam();
  const auto circuit = test::randomCircuit(numQubits, 20 * numQubits, seed);
  sim::CircuitSimulator simulator(circuit);
  const auto result = simulator.run();
  const auto dense = baseline::runOnStateVector(circuit);
  const auto got = simulator.package().getVector(result.finalState);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i].r, dense.state.amplitudes()[i].real(), 1e-7)
        << "qubits=" << numQubits << " seed=" << seed << " amp=" << i;
    ASSERT_NEAR(got[i].i, dense.state.amplitudes()[i].imag(), 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomCircuitSweep,
                         ::testing::Combine(::testing::Values(2U, 3U, 5U, 7U,
                                                              9U),
                                            ::testing::Range<std::uint64_t>(100,
                                                                            106)));

// ---------------------------------------------------------------------------
// Invariants 4 + 5: all strategies produce the same normalized state.
// ---------------------------------------------------------------------------

class StrategyAgreementSweep
    : public ::testing::TestWithParam<std::tuple<sim::StrategyConfig, std::uint64_t>> {
};

TEST_P(StrategyAgreementSweep, FidelityOneWithSequentialAndUnitNorm) {
  const auto& [config, seed] = GetParam();
  const auto circuit = test::randomCircuit(6, 90, seed);

  sim::CircuitSimulator ref(circuit, sim::StrategyConfig::sequential());
  const auto refVec = ref.package().getVector(ref.run().finalState);

  sim::CircuitSimulator simulator(circuit, config);
  const auto result = simulator.run();
  EXPECT_NEAR(simulator.package().norm2(result.finalState), 1.0, 1e-7);

  const auto vec = simulator.package().getVector(result.finalState);
  std::complex<double> overlap{};
  for (std::size_t i = 0; i < vec.size(); ++i) {
    overlap += std::conj(refVec[i].toStd()) * vec[i].toStd();
  }
  EXPECT_NEAR(std::abs(overlap), 1.0, 1e-7) << config.toString();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StrategyAgreementSweep,
    ::testing::Combine(::testing::Values(sim::StrategyConfig::kOperations(3),
                                         sim::StrategyConfig::kOperations(7),
                                         sim::StrategyConfig::maxSizeStrategy(24),
                                         sim::StrategyConfig::maxSizeStrategy(512),
                                         sim::StrategyConfig::adaptive(0.1),
                                         sim::StrategyConfig::adaptive(2.0)),
                       ::testing::Range<std::uint64_t>(200, 204)),
    [](const auto& paramInfo) {
      std::string name = std::get<0>(paramInfo.param).toString() + "_s" +
                         std::to_string(std::get<1>(paramInfo.param));
      for (char& c : name) {
        if (std::isalnum(static_cast<unsigned char>(c)) == 0) {
          c = '_';
        }
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Invariant 1: canonicity — the same circuit simulated twice (any strategy)
// yields pointer-identical DDs inside one package.
// ---------------------------------------------------------------------------

TEST(Canonicity, SameUnitarySameNode) {
  for (std::uint64_t seed = 300; seed < 305; ++seed) {
    const auto circuit = test::randomCircuit(5, 40, seed);
    dd::Package pkg(5);
    const dd::MEdge a = sim::buildCircuitMatrix(pkg, circuit);
    pkg.incRef(a);
    const dd::MEdge b = sim::buildCircuitMatrix(pkg, circuit);
    EXPECT_EQ(a.p, b.p) << "seed " << seed;
    EXPECT_EQ(a.w, b.w) << "seed " << seed;
    pkg.decRef(a);
  }
}

// ---------------------------------------------------------------------------
// Invariant 2: normalization — every node's strongest out-edge has weight of
// magnitude 1, for states produced by real simulations (not just random
// vectors).
// ---------------------------------------------------------------------------

TEST(Normalization, HoldsAfterSimulation) {
  const auto circuit = test::randomCircuit(6, 60, 777);
  sim::CircuitSimulator simulator(circuit);
  const auto result = simulator.run();

  std::vector<const dd::VNode*> stack{result.finalState.p};
  std::unordered_set<const dd::VNode*> seen;
  while (!stack.empty()) {
    const dd::VNode* n = stack.back();
    stack.pop_back();
    if (n->isTerminal() || !seen.insert(n).second) {
      continue;
    }
    double maxMag = 0;
    for (const auto& e : n->e) {
      maxMag = std::max(maxMag, e.w->mag2());
      stack.push_back(e.p);
    }
    ASSERT_NEAR(maxMag, 1.0, 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Invariant 6: makePermutationDD equals the gate-built oracle.
// ---------------------------------------------------------------------------

class PermutationSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PermutationSweep, RandomPermutationMatchesDenseApplication) {
  const std::uint64_t seed = GetParam();
  std::mt19937_64 rng(seed);
  const std::size_t n = 4;
  std::vector<std::uint64_t> perm(1U << n);
  for (std::uint64_t i = 0; i < perm.size(); ++i) {
    perm[i] = i;
  }
  std::shuffle(perm.begin(), perm.end(), rng);

  dd::Package pkg(n);
  const dd::MEdge dd = pkg.makePermutationDD(perm);
  const auto amps = test::randomAmplitudes(n, rng);
  const dd::VEdge v = pkg.makeStateFromVector(amps);
  const auto got = pkg.getVector(pkg.multiply(dd, v));
  // (P v)[perm[x]] = v[x]
  for (std::uint64_t x = 0; x < perm.size(); ++x) {
    EXPECT_NEAR(got[perm[x]].r, amps[x].r, 1e-10);
    EXPECT_NEAR(got[perm[x]].i, amps[x].i, 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PermutationSweep,
                         ::testing::Range<std::uint64_t>(400, 410));

// ---------------------------------------------------------------------------
// Measurement statistics agree between DD and dense simulators for circuits
// with mid-circuit measurement (same seeds need not give same outcomes, but
// the produced states must stay valid).
// ---------------------------------------------------------------------------

TEST(MidCircuitMeasurement, StateStaysNormalized) {
  for (std::uint64_t seed = 500; seed < 505; ++seed) {
    ir::Circuit circuit(4, 4);
    std::mt19937_64 rng(seed);
    circuit.h(0);
    circuit.cx(0, 1);
    circuit.h(2);
    circuit.measure(1, 0);
    circuit.cx(2, 3);
    circuit.classicControlled(ir::GateType::X, 3, {}, {}, 0);
    circuit.measure(2, 1);
    circuit.h(3);

    sim::CircuitSimulator simulator(circuit, {}, seed);
    const auto result = simulator.run();
    EXPECT_NEAR(simulator.package().norm2(result.finalState), 1.0, 1e-9);
  }
}

}  // namespace
}  // namespace ddsim
