/// \file test_util.hpp
/// \brief Shared helpers for the test suite: random states/circuits and
///        dense-vs-DD comparison utilities.

#pragma once

#include <gtest/gtest.h>

#include <complex>
#include <ostream>
#include <random>
#include <vector>

#include "baseline/dense_matrix.hpp"
#include "baseline/statevector.hpp"
#include "dd/package.hpp"
#include "ir/circuit.hpp"
#include "sim/stats.hpp"

namespace ddsim::sim {

// Named printer for parameterized strategy sweeps: without it gtest dumps
// the raw struct bytes (padding included), so the discovered test names
// change from run to run.
inline void PrintTo(const StrategyConfig& config, std::ostream* os) {
  *os << config.toString();
}

}  // namespace ddsim::sim

namespace ddsim::test {

inline std::vector<dd::ComplexValue> randomAmplitudes(std::size_t numQubits,
                                                      std::mt19937_64& rng) {
  std::normal_distribution<double> dist;
  std::vector<dd::ComplexValue> amps(1ULL << numQubits);
  double norm = 0;
  for (auto& a : amps) {
    a = {dist(rng), dist(rng)};
    norm += a.mag2();
  }
  const double scale = 1.0 / std::sqrt(norm);
  for (auto& a : amps) {
    a = a * scale;
  }
  return amps;
}

inline void expectAmplitudesNear(const std::vector<dd::ComplexValue>& actual,
                                 const std::vector<std::complex<double>>& expected,
                                 double tol = 1e-8) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_NEAR(actual[i].r, expected[i].real(), tol) << "index " << i;
    EXPECT_NEAR(actual[i].i, expected[i].imag(), tol) << "index " << i;
  }
}

inline void expectAmplitudesNear(const std::vector<dd::ComplexValue>& actual,
                                 const std::vector<dd::ComplexValue>& expected,
                                 double tol = 1e-8) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_NEAR(actual[i].r, expected[i].r, tol) << "index " << i;
    EXPECT_NEAR(actual[i].i, expected[i].i, tol) << "index " << i;
  }
}

/// Global-phase-insensitive state comparison via fidelity.
inline void expectSameStateUpToPhase(
    const std::vector<dd::ComplexValue>& a,
    const std::vector<std::complex<double>>& b, double tol = 1e-8) {
  ASSERT_EQ(a.size(), b.size());
  std::complex<double> overlap{};
  for (std::size_t i = 0; i < a.size(); ++i) {
    overlap += std::conj(a[i].toStd()) * b[i];
  }
  EXPECT_NEAR(std::abs(overlap), 1.0, tol);
}

/// Random circuit over the full gate set (no measurements); suitable for
/// DD-vs-dense equivalence sweeps.
inline ir::Circuit randomCircuit(std::size_t numQubits, std::size_t numGates,
                                 std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> qubitDist(0, numQubits - 1);
  std::uniform_real_distribution<double> angleDist(-3.14, 3.14);
  std::uniform_int_distribution<int> gateDist(0, 9);

  ir::Circuit circuit(numQubits, 0, "random_" + std::to_string(seed));
  for (std::size_t g = 0; g < numGates; ++g) {
    const auto target = static_cast<ir::Qubit>(qubitDist(rng));
    switch (gateDist(rng)) {
      case 0: circuit.h(target); break;
      case 1: circuit.x(target); break;
      case 2: circuit.t(target); break;
      case 3: circuit.sx(target); break;
      case 4: circuit.phase(angleDist(rng), target); break;
      case 5: circuit.ry(angleDist(rng), target); break;
      case 6: {
        auto control = static_cast<ir::Qubit>(qubitDist(rng));
        if (control == target) {
          control = static_cast<ir::Qubit>((control + 1) % numQubits);
        }
        circuit.cx(control, target);
        break;
      }
      case 7: {
        auto control = static_cast<ir::Qubit>(qubitDist(rng));
        if (control == target) {
          control = static_cast<ir::Qubit>((control + 1) % numQubits);
        }
        circuit.cphase(angleDist(rng), control, target);
        break;
      }
      case 8: {
        if (numQubits < 2) {
          circuit.h(target);
          break;
        }
        auto other = static_cast<ir::Qubit>(qubitDist(rng));
        if (other == target) {
          other = static_cast<ir::Qubit>((other + 1) % numQubits);
        }
        circuit.swap(target, other);
        break;
      }
      default: {
        // multi-controlled phase with mixed polarities
        dd::Controls controls;
        for (std::size_t q = 0; q < numQubits; ++q) {
          if (q != static_cast<std::size_t>(target) && (rng() & 3U) == 0) {
            controls.push_back(dd::Control{static_cast<dd::Qubit>(q),
                                           (rng() & 1U) != 0});
          }
        }
        circuit.mcphase(angleDist(rng), std::move(controls), target);
        break;
      }
    }
  }
  return circuit;
}

}  // namespace ddsim::test
