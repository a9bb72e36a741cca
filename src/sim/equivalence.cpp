#include "sim/equivalence.hpp"

#include <stdexcept>

#include "sim/build_dd.hpp"

namespace ddsim::sim {

using dd::MEdge;

namespace {

MEdge buildOps(dd::Package& pkg,
               const std::vector<std::unique_ptr<ir::Operation>>& ops,
               MEdge acc) {
  for (const auto& op : ops) {
    MEdge g{};
    switch (op->kind()) {
      case ir::OpKind::Standard:
      case ir::OpKind::Oracle:
        g = buildOperationDD(pkg, *op);
        break;
      case ir::OpKind::Barrier:
        continue;
      case ir::OpKind::Compound: {
        const auto& comp = static_cast<const ir::CompoundOperation&>(*op);
        // buildOps releases its accumulator after the first product, so the
        // fresh identity is rooted first: unrooted, it would drop the
        // package's own pin on its cached identity.
        const MEdge ident = pkg.makeIdent();
        pkg.incRef(ident);
        const MEdge block = buildOps(pkg, comp.body(), ident);
        for (std::size_t rep = 0; rep < comp.repetitions(); ++rep) {
          MEdge next = pkg.multiply(block, acc);
          pkg.incRef(next);
          pkg.decRef(acc);
          acc = next;
          pkg.maybeGarbageCollect();
        }
        pkg.decRef(block);
        continue;
      }
      default:
        throw std::invalid_argument(
            "buildCircuitMatrix: non-unitary operation '" + op->toString() +
            "'");
    }
    MEdge next = pkg.multiply(g, acc);
    pkg.incRef(next);
    pkg.decRef(acc);
    acc = next;
    pkg.maybeGarbageCollect();
  }
  return acc;
}

}  // namespace

MEdge buildCircuitMatrix(dd::Package& pkg, const ir::Circuit& circuit) {
  MEdge acc = pkg.makeIdent();
  pkg.incRef(acc);
  acc = buildOps(pkg, circuit.ops(), acc);
  pkg.decRef(acc);  // hand back unrooted, like the construction primitives
  return acc;
}

Equivalence checkEquivalence(const ir::Circuit& a, const ir::Circuit& b) {
  if (a.numQubits() != b.numQubits()) {
    return Equivalence::NotEquivalent;
  }
  dd::Package pkg(a.numQubits());
  const MEdge ua = buildCircuitMatrix(pkg, a);
  pkg.incRef(ua);
  const MEdge ub = buildCircuitMatrix(pkg, b);

  // Fast path: canonical DDs of equal unitaries usually coincide exactly.
  if (ua.p == ub.p && ua.w == ub.w) {
    return Equivalence::Equivalent;
  }

  // Robust path: |Tr(Ua^dagger Ub)| = 2^n iff Ua = e^{i phi} Ub (Cauchy-
  // Schwarz with equality only for a scalar multiple of the identity).
  // This also covers builds whose DDs differ only by tolerance-level
  // canonicalization noise, where pointer comparison is too strict.
  pkg.incRef(ub);
  const MEdge diff = pkg.multiply(pkg.conjugateTranspose(ua), ub);
  const dd::ComplexValue tr = pkg.trace(diff);
  const double dim = static_cast<double>(1ULL << a.numQubits());
  // The |trace| criterion is quadratically insensitive to small parameter
  // deviations, so the tolerance is tight; observed cross-association noise
  // is ~1e-15.
  constexpr double kTol = 1e-9;
  if (std::abs(tr.mag() - dim) > kTol * dim) {
    return Equivalence::NotEquivalent;
  }
  const bool phaseIsOne =
      std::abs(tr.r - dim) <= kTol * dim && std::abs(tr.i) <= kTol * dim;
  return phaseIsOne ? Equivalence::Equivalent
                    : Equivalence::EquivalentUpToPhase;
}

bool areEquivalent(const ir::Circuit& a, const ir::Circuit& b) {
  const Equivalence e = checkEquivalence(a, b);
  return e != Equivalence::NotEquivalent;
}

}  // namespace ddsim::sim
