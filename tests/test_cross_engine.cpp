/// \file test_cross_engine.cpp
/// \brief Cross-engine consistency sweeps: the vector simulator, the
///        density-matrix simulator and the stochastic trajectory engine
///        must agree wherever their domains overlap.

#include <gtest/gtest.h>

#include <cctype>

#include "sim/density.hpp"
#include "sim/simulator.hpp"
#include "sim/stochastic.hpp"
#include "test_util.hpp"

namespace ddsim::sim {
namespace {

// ---------------------------------------------------------------------------
// Noiseless: density diagonal == vector probabilities, across random
// circuits.
// ---------------------------------------------------------------------------

class NoiselessAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NoiselessAgreement, DensityDiagonalMatchesVectorProbabilities) {
  const auto circuit = test::randomCircuit(4, 25, GetParam());

  CircuitSimulator vsim(circuit);
  const auto vres = vsim.run();
  const auto amps = vsim.package().getVector(vres.finalState);

  DensityMatrixSimulator dsim(circuit);
  const auto dres = dsim.run();

  for (std::uint64_t i = 0; i < amps.size(); ++i) {
    ASSERT_NEAR(dsim.basisProbability(dres.rho, i), amps[i].mag2(), 1e-8)
        << "seed " << GetParam() << " basis " << i;
  }
  EXPECT_NEAR(dsim.purity(dres.rho), 1.0, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sweep, NoiselessAgreement,
                         ::testing::Range<std::uint64_t>(600, 608));

// ---------------------------------------------------------------------------
// Noisy: trajectory averages converge to the exact density result for every
// built-in channel.
// ---------------------------------------------------------------------------

struct ChannelCase {
  const char* name;
  NoiseChannel channel;
};

// Named printer: the default dumps the struct bytes, pointers included, and
// the discovered test names would differ between runs.
void PrintTo(const ChannelCase& c, std::ostream* os) { *os << c.name; }

class ChannelAgreement : public ::testing::TestWithParam<ChannelCase> {};

TEST_P(ChannelAgreement, TrajectoriesMatchDensity) {
  ir::Circuit circuit(3);
  circuit.h(0);
  circuit.cx(0, 1);
  circuit.t(1);
  circuit.cx(1, 2);
  circuit.h(2);

  const NoiseModel noise{{GetParam().channel}};
  DensityMatrixSimulator dsim(circuit, noise);
  const auto dres = dsim.run();

  const auto stoch = simulateStochastic(circuit, noise, 600, 37);
  for (std::size_t q = 0; q < 3; ++q) {
    EXPECT_NEAR(stoch.meanProbabilityOfOne[q],
                dsim.probabilityOfOne(dres.rho, static_cast<dd::Qubit>(q)),
                0.06)
        << GetParam().name << " qubit " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Channels, ChannelAgreement,
    ::testing::Values(
        ChannelCase{"depolarizing", NoiseChannel::depolarizing(0.05)},
        ChannelCase{"bitflip", NoiseChannel::bitFlip(0.1)},
        ChannelCase{"phaseflip", NoiseChannel::phaseFlip(0.1)},
        ChannelCase{"ampdamp", NoiseChannel::amplitudeDamping(0.1)},
        ChannelCase{"phasedamp", NoiseChannel::phaseDamping(0.1)}));

// ---------------------------------------------------------------------------
// Zero-strength channels are exact identities on all three engines.
// ---------------------------------------------------------------------------

TEST(CrossEngine, ZeroStrengthNoiseIsIdentity) {
  const auto circuit = test::randomCircuit(4, 20, 71);
  const NoiseModel zero{{NoiseChannel::depolarizing(0.0),
                         NoiseChannel::amplitudeDamping(0.0)}};

  CircuitSimulator vsim(circuit);
  const auto vres = vsim.run();

  DensityMatrixSimulator dsim(circuit, zero);
  const auto dres = dsim.run();
  EXPECT_NEAR(dsim.purity(dres.rho), 1.0, 1e-8);

  const auto stoch = simulateStochastic(circuit, zero, 3, 5);
  for (std::size_t q = 0; q < 4; ++q) {
    const double pv = vsim.package().probabilityOfOne(
        vres.finalState, static_cast<dd::Qubit>(q));
    EXPECT_NEAR(dsim.probabilityOfOne(dres.rho, static_cast<dd::Qubit>(q)), pv,
                1e-8);
    EXPECT_NEAR(stoch.meanProbabilityOfOne[q], pv, 1e-8);
  }
}

// ---------------------------------------------------------------------------
// Full-strength phase flip == classical mixture: all coherence witnesses
// vanish identically on both noisy engines.
// ---------------------------------------------------------------------------

TEST(CrossEngine, CompleteDephasingAgreesExactly) {
  ir::Circuit circuit(1);
  circuit.h(0);
  const NoiseModel noise{{NoiseChannel::phaseFlip(0.5)}};

  DensityMatrixSimulator dsim(circuit, noise);
  const auto dres = dsim.run();
  EXPECT_NEAR(dsim.purity(dres.rho), 0.5, 1e-9);
  EXPECT_NEAR(dsim.probabilityOfOne(dres.rho, 0), 0.5, 1e-9);

  const auto stoch = simulateStochastic(circuit, noise, 2000, 41);
  EXPECT_NEAR(stoch.meanProbabilityOfOne[0], 0.5, 1e-9);  // exact per trajectory
}

}  // namespace
}  // namespace ddsim::sim
