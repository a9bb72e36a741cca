/// \file circuit.hpp
/// \brief Quantum circuit container with convenience emitters.
///
/// A Circuit owns an ordered sequence of operations over a fixed number of
/// qubits and classical bits. The emitter helpers (x(), h(), cx(), mcz(),
/// cphase(), ...) make the algorithm generators in algo/ read like the
/// circuit diagrams in the paper.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/operation.hpp"

namespace ddsim::ir {

class Circuit {
 public:
  explicit Circuit(std::size_t numQubits, std::size_t numClbits = 0,
                   std::string name = "");

  Circuit(Circuit&&) noexcept = default;
  Circuit& operator=(Circuit&&) noexcept = default;
  Circuit(const Circuit&) = delete;
  Circuit& operator=(const Circuit&) = delete;

  /// Deep copy (operations are cloned).
  [[nodiscard]] Circuit clone() const;

  [[nodiscard]] std::size_t numQubits() const noexcept { return numQubits_; }
  [[nodiscard]] std::size_t numClbits() const noexcept { return numClbits_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void setName(std::string name) { name_ = std::move(name); }

  [[nodiscard]] const std::vector<std::unique_ptr<Operation>>& ops() const noexcept {
    return ops_;
  }
  [[nodiscard]] std::size_t numOps() const noexcept { return ops_.size(); }
  /// Elementary unitary gate count with compound blocks flattened.
  [[nodiscard]] std::size_t flatGateCount() const noexcept;
  [[nodiscard]] bool empty() const noexcept { return ops_.empty(); }

  /// Append a pre-built operation (validates qubit indices).
  void append(std::unique_ptr<Operation> op);

  // ----------------------------------------------------------- gate emitters
  void gate(GateType type, Qubit target, Controls controls = {},
            std::vector<double> params = {});

  void i(Qubit q) { gate(GateType::I, q); }
  void x(Qubit q) { gate(GateType::X, q); }
  void y(Qubit q) { gate(GateType::Y, q); }
  void z(Qubit q) { gate(GateType::Z, q); }
  void h(Qubit q) { gate(GateType::H, q); }
  void s(Qubit q) { gate(GateType::S, q); }
  void sdg(Qubit q) { gate(GateType::Sdg, q); }
  void t(Qubit q) { gate(GateType::T, q); }
  void tdg(Qubit q) { gate(GateType::Tdg, q); }
  void sx(Qubit q) { gate(GateType::SX, q); }
  void sy(Qubit q) { gate(GateType::SY, q); }

  void rx(double theta, Qubit q) { gate(GateType::RX, q, {}, {theta}); }
  void ry(double theta, Qubit q) { gate(GateType::RY, q, {}, {theta}); }
  void rz(double theta, Qubit q) { gate(GateType::RZ, q, {}, {theta}); }
  void phase(double theta, Qubit q) { gate(GateType::Phase, q, {}, {theta}); }

  void cx(Qubit control, Qubit target) {
    gate(GateType::X, target, {Control{control}});
  }
  void ccx(Qubit c0, Qubit c1, Qubit target) {
    gate(GateType::X, target, {Control{c0}, Control{c1}});
  }
  void mcx(Controls controls, Qubit target) {
    gate(GateType::X, target, std::move(controls));
  }
  void cz(Qubit control, Qubit target) {
    gate(GateType::Z, target, {Control{control}});
  }
  void mcz(Controls controls, Qubit target) {
    gate(GateType::Z, target, std::move(controls));
  }
  void cphase(double theta, Qubit control, Qubit target) {
    gate(GateType::Phase, target, {Control{control}}, {theta});
  }
  void mcphase(double theta, Controls controls, Qubit target) {
    gate(GateType::Phase, target, std::move(controls), {theta});
  }

  void swap(Qubit a, Qubit b, Controls controls = {});
  void cswap(Qubit control, Qubit a, Qubit b) {
    swap(a, b, {Control{control}});
  }

  // --------------------------------------------------------- non-unitary ops
  void measure(Qubit q, std::size_t clbit);
  /// Measure every qubit into the classical bit of the same index.
  void measureAll();
  void reset(Qubit q);
  void barrier();

  void classicControlled(GateType type, Qubit target, Controls controls,
                         std::vector<double> params, std::size_t clbit,
                         bool expectedValue = true);

  void oracle(std::string name, std::size_t numTargets, OracleFunction fn,
              Controls controls = {});

  /// Append the body of \p block as a CompoundOperation repeated \p reps
  /// times (the *DD-repeating* unit). The block must not be wider than this
  /// circuit.
  void appendRepeated(Circuit block, std::size_t reps, std::string label = "");

  /// Append all operations of \p other (cloned), e.g. to stitch sub-circuits.
  void appendCircuit(const Circuit& other);
  /// As above, but moves the operations out of \p other instead of cloning
  /// them (same width checks and per-operation validation).
  void appendCircuit(Circuit&& other);

  /// Flatten: expand all compound blocks into a plain operation sequence.
  [[nodiscard]] Circuit flattened() const;

  /// The inverse circuit: operations reversed, each gate inverted. Only
  /// defined for purely unitary circuits (standard gates, compound blocks,
  /// barriers); other operation kinds throw std::invalid_argument.
  [[nodiscard]] Circuit inverted() const;

  /// Multi-line human-readable listing.
  [[nodiscard]] std::string toString() const;

 private:
  void validate(const Operation& op) const;

  std::size_t numQubits_;
  std::size_t numClbits_;
  std::string name_;
  std::vector<std::unique_ptr<Operation>> ops_;
};

}  // namespace ddsim::ir
