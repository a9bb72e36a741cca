#include "algo/textbook.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "algo/qft.hpp"

namespace ddsim::algo {

using ir::Circuit;
using ir::Control;
using ir::GateType;
using ir::Qubit;

Circuit makePhaseEstimationCircuit(double phi, std::size_t precisionBits) {
  if (precisionBits == 0 || precisionBits > 60) {
    throw std::invalid_argument("qpe: precision bits must be in [1, 60]");
  }
  const auto m = static_cast<Qubit>(precisionBits);
  Circuit circuit(precisionBits + 1, precisionBits,
                  "qpe_" + std::to_string(precisionBits));

  circuit.x(m);  // eigenstate |1> of the phase gate
  for (Qubit k = 0; k < m; ++k) {
    circuit.h(k);
  }
  // Counting qubit k picks up the phase of U^(2^k).
  for (Qubit k = 0; k < m; ++k) {
    const double theta =
        2.0 * std::numbers::pi * phi * static_cast<double>(1ULL << k);
    circuit.mcphase(theta, {Control{k}}, m);
  }
  std::vector<Qubit> counting;
  for (Qubit k = 0; k < m; ++k) {
    counting.push_back(k);
  }
  appendInverseQFT(circuit, counting);
  for (Qubit k = 0; k < m; ++k) {
    circuit.measure(k, static_cast<std::size_t>(k));
  }
  return circuit;
}

Circuit makeBernsteinVaziraniCircuit(std::uint64_t hidden, std::size_t numBits) {
  if (numBits == 0 || numBits > 62) {
    throw std::invalid_argument("bv: bit count must be in [1, 62]");
  }
  if (numBits < 64 && (hidden >> numBits) != 0) {
    throw std::invalid_argument("bv: hidden string exceeds bit count");
  }
  const auto anc = static_cast<Qubit>(numBits);
  Circuit circuit(numBits + 1, numBits, "bv_" + std::to_string(numBits));
  circuit.x(anc);
  circuit.h(anc);
  for (std::size_t i = 0; i < numBits; ++i) {
    circuit.h(static_cast<Qubit>(i));
  }
  // Oracle f(x) = s.x: one CX per set bit of s.
  for (std::size_t i = 0; i < numBits; ++i) {
    if (((hidden >> i) & 1U) != 0) {
      circuit.cx(static_cast<Qubit>(i), anc);
    }
  }
  for (std::size_t i = 0; i < numBits; ++i) {
    circuit.h(static_cast<Qubit>(i));
    circuit.measure(static_cast<Qubit>(i), i);
  }
  return circuit;
}

Circuit makeGHZCircuit(std::size_t numQubits) {
  if (numQubits == 0 || numQubits > 62) {
    throw std::invalid_argument("ghz: qubit count must be in [1, 62]");
  }
  Circuit circuit(numQubits, 0, "ghz_" + std::to_string(numQubits));
  circuit.h(0);
  for (std::size_t q = 1; q < numQubits; ++q) {
    circuit.cx(static_cast<Qubit>(q) - 1, static_cast<Qubit>(q));
  }
  return circuit;
}

Circuit makeWStateCircuit(std::size_t numQubits) {
  if (numQubits < 2 || numQubits > 62) {
    throw std::invalid_argument("wstate: qubit count must be in [2, 62]");
  }
  Circuit circuit(numQubits, 0, "wstate_" + std::to_string(numQubits));
  circuit.x(0);
  // Cascade: at step i the excitation either stays on qubit i (amplitude
  // 1/sqrt(n-i)) or moves on to qubit i+1.
  for (std::size_t i = 0; i + 1 < numQubits; ++i) {
    const double theta =
        2.0 * std::acos(1.0 / std::sqrt(static_cast<double>(numQubits - i)));
    circuit.gate(GateType::RY, static_cast<Qubit>(i + 1),
                 {Control{static_cast<Qubit>(i)}}, {theta});
    circuit.cx(static_cast<Qubit>(i + 1), static_cast<Qubit>(i));
  }
  return circuit;
}

}  // namespace ddsim::algo
