#include "ir/circuit.hpp"

#include <sstream>
#include <stdexcept>

namespace ddsim::ir {

Circuit::Circuit(std::size_t numQubits, std::size_t numClbits, std::string name)
    : numQubits_(numQubits), numClbits_(numClbits), name_(std::move(name)) {
  if (numQubits == 0) {
    throw std::invalid_argument("Circuit: must have at least one qubit");
  }
}

Circuit Circuit::clone() const {
  Circuit copy(numQubits_, numClbits_, name_);
  copy.ops_.reserve(ops_.size());
  for (const auto& op : ops_) {
    copy.ops_.push_back(op->clone());
  }
  return copy;
}

std::size_t Circuit::flatGateCount() const noexcept {
  std::size_t n = 0;
  for (const auto& op : ops_) {
    n += op->flatGateCount();
  }
  return n;
}

void Circuit::validate(const Operation& op) const {
  if (op.maxQubit() >= static_cast<Qubit>(numQubits_)) {
    throw std::invalid_argument("Circuit: operation '" + op.toString() +
                                "' exceeds qubit count");
  }
  if (op.kind() == OpKind::Measure) {
    const auto& m = static_cast<const MeasureOperation&>(op);
    if (m.clbit() >= numClbits_) {
      throw std::invalid_argument("Circuit: classical bit out of range");
    }
  }
  if (op.kind() == OpKind::ClassicControlled) {
    const auto& c = static_cast<const ClassicControlledOperation&>(op);
    if (c.clbit() >= numClbits_) {
      throw std::invalid_argument("Circuit: classical bit out of range");
    }
  }
}

void Circuit::append(std::unique_ptr<Operation> op) {
  validate(*op);
  ops_.push_back(std::move(op));
}

void Circuit::gate(GateType type, Qubit target, Controls controls,
                   std::vector<double> params) {
  append(std::make_unique<StandardOperation>(type, std::vector<Qubit>{target},
                                             std::move(controls),
                                             std::move(params)));
}

void Circuit::swap(Qubit a, Qubit b, Controls controls) {
  append(std::make_unique<StandardOperation>(
      GateType::Swap, std::vector<Qubit>{a, b}, std::move(controls)));
}

void Circuit::measure(Qubit q, std::size_t clbit) {
  append(std::make_unique<MeasureOperation>(q, clbit));
}

void Circuit::measureAll() {
  if (numClbits_ < numQubits_) {
    throw std::logic_error("measureAll: not enough classical bits");
  }
  for (std::size_t q = 0; q < numQubits_; ++q) {
    measure(static_cast<Qubit>(q), q);
  }
}

void Circuit::reset(Qubit q) { append(std::make_unique<ResetOperation>(q)); }

void Circuit::barrier() { append(std::make_unique<BarrierOperation>()); }

void Circuit::classicControlled(GateType type, Qubit target, Controls controls,
                                std::vector<double> params, std::size_t clbit,
                                bool expectedValue) {
  StandardOperation inner(type, std::vector<Qubit>{target}, std::move(controls),
                          std::move(params));
  append(std::make_unique<ClassicControlledOperation>(std::move(inner), clbit,
                                                      expectedValue));
}

void Circuit::oracle(std::string name, std::size_t numTargets, OracleFunction fn,
                     Controls controls) {
  append(std::make_unique<OracleOperation>(std::move(name), numTargets,
                                           std::move(fn), std::move(controls)));
}

void Circuit::appendRepeated(Circuit block, std::size_t reps, std::string label) {
  if (block.numQubits() > numQubits_) {
    throw std::invalid_argument("appendRepeated: block wider than circuit");
  }
  append(std::make_unique<CompoundOperation>(std::move(block.ops_), reps,
                                             std::move(label)));
}

void Circuit::appendCircuit(const Circuit& other) {
  if (other.numQubits() > numQubits_ || other.numClbits() > numClbits_) {
    throw std::invalid_argument("appendCircuit: other circuit is wider");
  }
  for (const auto& op : other.ops_) {
    append(op->clone());
  }
}

void Circuit::appendCircuit(Circuit&& other) {
  if (other.numQubits() > numQubits_ || other.numClbits() > numClbits_) {
    throw std::invalid_argument("appendCircuit: other circuit is wider");
  }
  for (auto& op : other.ops_) {
    append(std::move(op));
  }
  other.ops_.clear();
}

namespace {
void flattenInto(const std::vector<std::unique_ptr<Operation>>& ops,
                 Circuit& out) {
  for (const auto& op : ops) {
    if (op->kind() == OpKind::Compound) {
      const auto& comp = static_cast<const CompoundOperation&>(*op);
      for (std::size_t r = 0; r < comp.repetitions(); ++r) {
        flattenInto(comp.body(), out);
      }
    } else {
      out.append(op->clone());
    }
  }
}
}  // namespace

Circuit Circuit::flattened() const {
  Circuit out(numQubits_, numClbits_, name_);
  flattenInto(ops_, out);
  return out;
}

namespace {
std::unique_ptr<Operation> invertOperation(const Operation& op) {
  switch (op.kind()) {
    case OpKind::Standard:
      return std::make_unique<StandardOperation>(
          static_cast<const StandardOperation&>(op).inverse());
    case OpKind::Barrier:
      return std::make_unique<BarrierOperation>();
    case OpKind::Compound: {
      const auto& comp = static_cast<const CompoundOperation&>(op);
      std::vector<std::unique_ptr<Operation>> body;
      body.reserve(comp.body().size());
      for (auto it = comp.body().rbegin(); it != comp.body().rend(); ++it) {
        body.push_back(invertOperation(**it));
      }
      return std::make_unique<CompoundOperation>(
          std::move(body), comp.repetitions(), comp.label() + "-inverse");
    }
    default:
      throw std::invalid_argument("inverted: non-unitary operation '" +
                                  op.toString() + "'");
  }
}
}  // namespace

Circuit Circuit::inverted() const {
  Circuit out(numQubits_, numClbits_,
              name_.empty() ? "inverse" : name_ + "-inverse");
  for (auto it = ops_.rbegin(); it != ops_.rend(); ++it) {
    out.append(invertOperation(**it));
  }
  return out;
}

std::string Circuit::toString() const {
  std::ostringstream ss;
  ss << "circuit '" << name_ << "': " << numQubits_ << " qubits, " << numClbits_
     << " clbits, " << ops_.size() << " ops (" << flatGateCount()
     << " elementary gates)\n";
  for (const auto& op : ops_) {
    ss << "  " << op->toString() << "\n";
  }
  return ss.str();
}

}  // namespace ddsim::ir
