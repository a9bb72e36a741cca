#include "dd/migration.hpp"

#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "dd/package.hpp"

namespace ddsim::dd {

namespace {

/// Post-order flattening: children are emitted before their parent, so the
/// parent's child indices are always valid when it is appended. Recursion
/// depth is bounded by the qubit count (<= 62), never by the node count.
template <std::size_t Arity>
std::int32_t exportNode(const Node<Arity>* p, FlatDD<Arity>& out,
                        std::unordered_map<const Node<Arity>*, std::int32_t>& index) {
  const auto it = index.find(p);
  if (it != index.end()) {
    return it->second;
  }
  FlatNode<Arity> fn;
  fn.v = p->v;
  for (std::size_t j = 0; j < Arity; ++j) {
    const Edge<Arity>& child = p->e[j];
    if (child.w->exactlyZero()) {
      // Normalization snaps near-zero quotients to the canonical zero
      // *after* the zero-stub pass, so a zero-weight edge can still point
      // at an internal node. The subtree is annihilated either way; emit
      // the canonical flat form (zero edge to the terminal).
      fn.children[j] = FlatEdge{};
      continue;
    }
    fn.children[j].w = *child.w;
    fn.children[j].node =
        child.p->isTerminal() ? kFlatTerminal : exportNode(child.p, out, index);
  }
  if (out.nodes.size() >
      static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max())) {
    throw std::length_error("exportDD: DD exceeds 2^31 nodes");
  }
  out.nodes.push_back(fn);
  const auto id = static_cast<std::int32_t>(out.nodes.size() - 1);
  index.emplace(p, id);
  return id;
}

template <std::size_t Arity>
FlatDD<Arity> exportImpl(const Package& src, const Edge<Arity>& root) {
  FlatDD<Arity> out;
  out.numQubits = src.qubits();
  if (root.p->isTerminal() || root.w->exactlyZero()) {
    out.root.w = root.w->exactlyZero() ? ComplexValue{} : *root.w;
    out.root.node = kFlatTerminal;
    return out;
  }
  out.root.w = *root.w;
  std::unordered_map<const Node<Arity>*, std::int32_t> index;
  out.root.node = exportNode(root.p, out, index);
  return out;
}

template <std::size_t Arity>
void validateFlat(const FlatDD<Arity>& flat, std::size_t dstQubits) {
  auto fail = [](const std::string& what) {
    throw MigrationError("importDD: " + what);
  };
  if (flat.numQubits == 0 || flat.numQubits > dstQubits) {
    fail("numQubits " + std::to_string(flat.numQubits) +
         " outside the destination package's range [1, " +
         std::to_string(dstQubits) + "]");
  }
  auto checkEdge = [&](const FlatEdge& e, Qubit parentLevel, std::size_t i,
                       bool isRoot) {
    if (e.node == kFlatTerminal) {
      // A terminal child mid-diagram is only the canonical zero; a weighted
      // terminal is legal at level 0 (and for a scalar root edge).
      if (!isRoot && parentLevel != 0 && !e.w.exactlyZero()) {
        fail("node " + std::to_string(i) + " at level " +
             std::to_string(parentLevel) +
             " has a non-zero terminal child (only legal at level 0)");
      }
      return;
    }
    if (e.node < 0 ||
        static_cast<std::size_t>(e.node) >= flat.nodes.size()) {
      fail("edge references node " + std::to_string(e.node) +
           " outside [0, " + std::to_string(flat.nodes.size()) + ")");
    }
    if (!isRoot && static_cast<std::size_t>(e.node) >= i) {
      fail("node " + std::to_string(i) + " references child " +
           std::to_string(e.node) +
           " at or after itself (children must precede parents)");
    }
    if (e.w.exactlyZero()) {
      fail("edge to node " + std::to_string(e.node) +
           " carries an exactly-zero weight (zero edges must point at the "
           "terminal)");
    }
    const Qubit childLevel = flat.nodes[static_cast<std::size_t>(e.node)].v;
    if (!isRoot && childLevel != parentLevel - 1) {
      fail("node " + std::to_string(i) + " at level " +
           std::to_string(parentLevel) + " has a child at level " +
           std::to_string(childLevel) + " (must be exactly one below)");
    }
  };
  for (std::size_t i = 0; i < flat.nodes.size(); ++i) {
    const FlatNode<Arity>& n = flat.nodes[i];
    if (n.v < 0 || static_cast<std::size_t>(n.v) >= flat.numQubits) {
      fail("node " + std::to_string(i) + " has level " + std::to_string(n.v) +
           " outside [0, " + std::to_string(flat.numQubits) + ")");
    }
    for (const FlatEdge& e : n.children) {
      checkEdge(e, n.v, i, /*isRoot=*/false);
    }
  }
  checkEdge(flat.root, /*parentLevel=*/0, /*i=*/0, /*isRoot=*/true);
}

}  // namespace

FlatVectorDD exportDD(const Package& src, const VEdge& root) {
  return exportImpl<2>(src, root);
}

FlatMatrixDD exportDD(const Package& src, const MEdge& root) {
  return exportImpl<4>(src, root);
}

VEdge importDD(Package& dst, const FlatVectorDD& flat) {
  validateFlat(flat, dst.qubits());
  // Rebuild bottom-up. makeVNode re-normalizes against the destination's
  // complex table, so each built edge may carry a top weight slightly
  // different from 1 (tolerance snapping); the stored child weight is
  // multiplied through to keep the represented function exact.
  std::vector<VEdge> built(flat.nodes.size());
  auto resolve = [&](const FlatEdge& fe) -> VEdge {
    if (fe.node == kFlatTerminal) {
      return fe.w.exactlyZero() ? dst.vZero()
                                : VEdge{dst.vOneTerminal().p, dst.clookup(fe.w)};
    }
    const VEdge& b = built[static_cast<std::size_t>(fe.node)];
    return {b.p, dst.clookup(fe.w * (*b.w))};
  };
  for (std::size_t i = 0; i < flat.nodes.size(); ++i) {
    const FlatNode<2>& n = flat.nodes[i];
    built[i] = dst.makeVNode(
        n.v, {resolve(n.children[0]), resolve(n.children[1])});
  }
  return resolve(flat.root);
}

MEdge importDD(Package& dst, const FlatMatrixDD& flat) {
  validateFlat(flat, dst.qubits());
  std::vector<MEdge> built(flat.nodes.size());
  auto resolve = [&](const FlatEdge& fe) -> MEdge {
    if (fe.node == kFlatTerminal) {
      return fe.w.exactlyZero() ? dst.mZero()
                                : MEdge{dst.mOneTerminal().p, dst.clookup(fe.w)};
    }
    const MEdge& b = built[static_cast<std::size_t>(fe.node)];
    return {b.p, dst.clookup(fe.w * (*b.w))};
  };
  for (std::size_t i = 0; i < flat.nodes.size(); ++i) {
    const FlatNode<4>& n = flat.nodes[i];
    built[i] = dst.makeMNode(
        n.v, {resolve(n.children[0]), resolve(n.children[1]),
              resolve(n.children[2]), resolve(n.children[3])});
  }
  return resolve(flat.root);
}

}  // namespace ddsim::dd
