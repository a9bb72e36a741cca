#include "algo/arithmetic.hpp"

#include <numbers>
#include <stdexcept>
#include <utility>

#include "algo/numbertheory.hpp"
#include "algo/qft.hpp"

namespace ddsim::algo {

using ir::Circuit;
using ir::Control;
using ir::Controls;
using ir::GateType;
using ir::Qubit;

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;
}

void appendPhiAdd(Circuit& circuit, const std::vector<Qubit>& reg, std::uint64_t a,
                  bool subtract, const Controls& controls) {
  // One phase gate per register qubit; angle 2*pi*a / 2^{j+1} reduced mod
  // 2*pi (reg[j] holds the Fourier coefficient of weight 2^{len-1-j} after a
  // swapless QFT, which works out to exactly this angle — see qft.cpp).
  for (std::size_t j = 0; j < reg.size(); ++j) {
    const std::uint64_t denom = 1ULL << (j + 1);
    const std::uint64_t rem = a & (denom - 1);
    if (rem == 0) {
      continue;
    }
    double theta = kTwoPi * static_cast<double>(rem) / static_cast<double>(denom);
    if (subtract) {
      theta = -theta;
    }
    if (controls.empty()) {
      circuit.phase(theta, reg[j]);
    } else {
      circuit.mcphase(theta, controls, reg[j]);
    }
  }
}

namespace {

/// Forward phiADDmod(a, N) sequence of Beauregard into \p circuit.
void emitCCPhiAddModForward(Circuit& circuit, const std::vector<Qubit>& b,
                            Qubit ancilla, std::uint64_t a, std::uint64_t modulus,
                            const Controls& controls) {
  const Qubit msb = b.back();
  // 1. (controlled) += a
  appendPhiAdd(circuit, b, a, false, controls);
  // 2. -= N (unconditionally)
  appendPhiAdd(circuit, b, modulus, true);
  // 3. extract the underflow indicator (MSB after leaving Fourier space)
  appendInverseQFT(circuit, b, /*withSwaps=*/false);
  circuit.cx(msb, ancilla);
  appendQFT(circuit, b, /*withSwaps=*/false);
  // 4. += N conditioned on underflow
  appendPhiAdd(circuit, b, modulus, false, {Control{ancilla}});
  // 5. (controlled) -= a, to probe whether the controlled addition happened
  appendPhiAdd(circuit, b, a, true, controls);
  // 6. uncompute the ancilla
  appendInverseQFT(circuit, b, /*withSwaps=*/false);
  circuit.x(msb);
  circuit.cx(msb, ancilla);
  circuit.x(msb);
  appendQFT(circuit, b, /*withSwaps=*/false);
  // 7. (controlled) += a again
  appendPhiAdd(circuit, b, a, false, controls);
}

}  // namespace

void appendCCPhiAddMod(Circuit& circuit, const std::vector<Qubit>& b,
                       Qubit ancilla, std::uint64_t a, std::uint64_t modulus,
                       const Controls& controls, bool subtract) {
  if (b.size() < 2) {
    throw std::invalid_argument("phiADDmod: register too small");
  }
  Circuit block(circuit.numQubits(), 0, "phiaddmod");
  emitCCPhiAddModForward(block, b, ancilla, a % modulus, modulus, controls);
  if (subtract) {
    circuit.appendCircuit(block.inverted());
  } else {
    circuit.appendCircuit(std::move(block));
  }
}

void appendCMultMod(Circuit& circuit, const std::vector<Qubit>& x,
                    const std::vector<Qubit>& b, Qubit ancilla, std::uint64_t a,
                    std::uint64_t modulus, Qubit control, bool subtract) {
  Circuit block(circuit.numQubits(), 0, "cmultmod");
  appendQFT(block, b, /*withSwaps=*/false);
  for (std::size_t j = 0; j < x.size(); ++j) {
    const std::uint64_t addend =
        mulMod(a % modulus, (1ULL << j) % modulus, modulus);
    appendCCPhiAddMod(block, b, ancilla, addend, modulus,
                      {Control{control}, Control{x[j]}});
  }
  appendInverseQFT(block, b, /*withSwaps=*/false);
  if (subtract) {
    circuit.appendCircuit(block.inverted());
  } else {
    circuit.appendCircuit(std::move(block));
  }
}

void appendCUa(Circuit& circuit, const std::vector<Qubit>& x,
               const std::vector<Qubit>& b, Qubit ancilla, std::uint64_t a,
               std::uint64_t modulus, Qubit control) {
  const auto aInv = invMod(a, modulus);
  if (!aInv) {
    throw std::invalid_argument("CUa: a must be co-prime to the modulus");
  }
  // |x, 0> -> |x, a x mod N>
  appendCMultMod(circuit, x, b, ancilla, a, modulus, control);
  // swap x and the low n qubits of b (controlled)
  for (std::size_t j = 0; j < x.size(); ++j) {
    circuit.cswap(control, x[j], b[j]);
  }
  // |a x mod N, x> -> |a x mod N, x - a^-1 (a x) mod N> = |a x mod N, 0>
  appendCMultMod(circuit, x, b, ancilla, *aInv, modulus, control,
                 /*subtract=*/true);
}

Circuit makeAdderCircuit(std::size_t numQubits, std::uint64_t a) {
  Circuit circuit(numQubits, 0,
                  "add_" + std::to_string(a) + "_" + std::to_string(numQubits));
  std::vector<Qubit> reg;
  reg.reserve(numQubits);
  for (std::size_t q = 0; q < numQubits; ++q) {
    reg.push_back(static_cast<Qubit>(q));
  }
  appendQFT(circuit, reg, /*withSwaps=*/false);
  appendPhiAdd(circuit, reg, a);
  appendInverseQFT(circuit, reg, /*withSwaps=*/false);
  return circuit;
}

}  // namespace ddsim::algo
