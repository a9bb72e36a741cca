/// \file textbook.hpp
/// \brief Classic small quantum algorithms: quantum phase estimation,
///        Bernstein-Vazirani and entangled-state preparation.
///
/// These complement the paper's three benchmark families: they are standard
/// circuits a simulator release ships, they exercise the public API from a
/// different angle (explicit phase-estimation registers, bit-oracles) and
/// they provide easily checkable end-to-end results for the test suite.

#pragma once

#include <cstdint>

#include "ir/circuit.hpp"

namespace ddsim::algo {

/// Textbook quantum phase estimation with an explicit `precisionBits`-qubit
/// register (contrast with the semiclassical single-qubit version inside the
/// Shor circuits): estimates phi for the single-qubit phase gate
/// U = diag(1, e^{2 pi i phi}) applied to the eigenstate |1>.
///
/// Layout: counting register = qubits 0..precisionBits-1 (bit k of the
/// measured integer y = clbit k, phi ~ y / 2^precisionBits), eigenstate
/// qubit on top.
[[nodiscard]] ir::Circuit makePhaseEstimationCircuit(double phi,
                                                     std::size_t precisionBits);

/// Bernstein-Vazirani: recovers the hidden bit string s from a single query
/// to the oracle f(x) = s.x (mod 2). The circuit measures s directly into
/// the classical register (one clbit per data qubit).
[[nodiscard]] ir::Circuit makeBernsteinVaziraniCircuit(std::uint64_t hidden,
                                                       std::size_t numBits);

/// GHZ state preparation (|0..0> + |1..1>)/sqrt(2).
[[nodiscard]] ir::Circuit makeGHZCircuit(std::size_t numQubits);

/// W state preparation (|10..0> + |01..0> + ... + |0..01>)/sqrt(n), built
/// from cascaded controlled rotations.
[[nodiscard]] ir::Circuit makeWStateCircuit(std::size_t numQubits);

}  // namespace ddsim::algo
