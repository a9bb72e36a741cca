#include "sim/build_dd.hpp"

#include <stdexcept>

#include "ir/hash.hpp"

namespace ddsim::sim {

using dd::MEdge;

MEdge buildOperationDD(dd::Package& pkg, const ir::Operation& op) {
  if (op.kind() == ir::OpKind::Oracle) {
    // DD-construct: the oracle's Boolean functionality becomes a
    // permutation-matrix DD directly, with no elementary-gate expansion.
    const auto& oracle = static_cast<const ir::OracleOperation&>(op);
    return pkg.makePermutationDD(oracle.permutationTable(), oracle.controls());
  }
  if (op.kind() != ir::OpKind::Standard) {
    throw std::invalid_argument("buildOperationDD: non-unitary operation '" +
                                op.toString() + "'");
  }
  const auto& s = static_cast<const ir::StandardOperation&>(op);
  if (s.type() == ir::GateType::Swap) {
    // SWAP = CX(a,b) CX(b,a) CX(a,b); extra controls distribute over the
    // factors since diag(I,U) diag(I,V) = diag(I,UV).
    const dd::Qubit a = s.targets()[0];
    const dd::Qubit b = s.targets()[1];
    const dd::GateMatrix x = ir::gateMatrix(ir::GateType::X);
    dd::Controls cab = s.controls();
    cab.push_back(dd::Control{a});
    dd::Controls cba = s.controls();
    cba.push_back(dd::Control{b});
    const MEdge cxAB = pkg.makeGateDD(x, b, cab);
    const MEdge cxBA = pkg.makeGateDD(x, a, cba);
    return pkg.multiply(cxAB, pkg.multiply(cxBA, cxAB));
  }
  return pkg.makeGateDD(s.matrix(), s.targets()[0], s.controls());
}

MEdge GateDDCache::get(const ir::Operation& op) {
  const ir::StandardOperation* gate = nullptr;
  std::uint64_t h = 0;
  switch (op.kind()) {
    case ir::OpKind::Standard:
      gate = &static_cast<const ir::StandardOperation&>(op);
      h = ir::contentHash(ir::kHashSeed, op);
      break;
    case ir::OpKind::Oracle:
      h = ir::hashCombine(ir::kHashSeed, reinterpret_cast<std::uintptr_t>(&op));
      break;
    default:
      return buildOperationDD(pkg_, op);  // throws: not a unitary
  }
  const auto [first, last] = entries_.equal_range(h);
  for (auto it = first; it != last; ++it) {
    const Entry& e = it->second;
    if (gate != nullptr ? e.gate && ir::sameGate(*e.gate, *gate)
                        : e.oracle == &op) {
      return e.edge;
    }
  }
  const MEdge m = buildOperationDD(pkg_, op);
  pkg_.incRef(m);
  if (gate != nullptr) {
    entries_.emplace(h, Entry{*gate, nullptr, m});
  } else {
    entries_.emplace(h, Entry{std::nullopt, &op, m});
  }
  return m;
}

}  // namespace ddsim::sim
