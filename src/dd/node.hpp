/// \file node.hpp
/// \brief DD node and edge types for vectors (2 successors) and matrices
///        (4 successors, the quadrants M00 M01 M10 M11).
///
/// Conventions (matching the paper's Section II-B):
///  * Qubits are indexed 0..n-1; qubit n-1 ("q0" in the paper's notation,
///    the most significant one) labels the root node, qubit 0 sits just
///    above the terminal.
///  * DDs are level-complete: every root-to-terminal path visits every
///    variable exactly once. Gate DDs carry explicit identity chains, so
///    add/multiply may assume aligned variables.
///  * Edge weights are canonical pointers (CWeight) into a ComplexTable;
///    node equality is component-wise pointer equality.

#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "dd/complex_table.hpp"
#include "dd/complex_value.hpp"

namespace ddsim::dd {

/// Qubit/variable index. -1 marks the terminal node.
using Qubit = std::int32_t;
inline constexpr Qubit kTerminalVar = -1;

template <std::size_t Arity>
struct Node;

/// An edge: target node plus canonical complex weight.
template <std::size_t Arity>
struct Edge {
  Node<Arity>* p = nullptr;
  CWeight w = nullptr;

  constexpr bool operator==(const Edge&) const noexcept = default;

  [[nodiscard]] bool isTerminal() const noexcept {
    return p != nullptr && p->v == kTerminalVar;
  }
  /// True for the canonical representation of an all-zero vector/matrix:
  /// terminal node with (approximately) zero weight.
  [[nodiscard]] bool isZeroTerminal() const noexcept {
    return isTerminal() && w->exactlyZero();
  }
};

/// Cached per-node structure flags (matrix nodes only; vector nodes leave
/// them 0). Computed once in Package::makeMNode from the children's flags,
/// so the classification is O(1) per node instead of O(subtree) per query.
/// Semantics are *up to the edge weight*: a node flagged kNodeIsIdentity
/// represents a scalar multiple of the identity; the scalar lives on the
/// incoming edge.
inline constexpr std::uint8_t kNodeIsDiagonal = 1U << 0;
inline constexpr std::uint8_t kNodeIsIdentity = 1U << 1;

template <std::size_t Arity>
struct Node {
  std::array<Edge<Arity>, Arity> e{};
  Node* next = nullptr;   ///< unique-table chain / free-list link
  /// Serial that is never reused: MemoryManager::get() assigns the next one,
  /// free() clears it to 0 (terminals keep 0). Hashes read it instead of the
  /// address, and compute-table entries that outlive a GC tell their node
  /// from a recycled one at the same address by it (see ComputeTable).
  std::uint64_t id = 0;
  std::uint32_t ref = 0;  ///< root reference count (saturating)
  Qubit v = kTerminalVar;
  std::uint8_t flags = 0;  ///< kNodeIs* structure flags (matrix nodes)
  /// Traversal mark for Package::size(): nodes stamped with the current
  /// sweep number are "seen", so counting needs no per-call hash set. Lives
  /// in what would otherwise be struct padding.
  std::uint32_t visit = 0;

  [[nodiscard]] bool isTerminal() const noexcept { return v == kTerminalVar; }
  [[nodiscard]] bool isIdentity() const noexcept {
    return (flags & kNodeIsIdentity) != 0;
  }
  [[nodiscard]] bool isDiagonal() const noexcept {
    return (flags & kNodeIsDiagonal) != 0;
  }
};

using VNode = Node<2>;
using MNode = Node<4>;
using VEdge = Edge<2>;
using MEdge = Edge<4>;

namespace detail {
/// One FNV-1a-style step, shared by the unique and compute tables.
inline void hashMix(std::uint64_t& h, std::uint64_t x) noexcept {
  h ^= x;
  h *= 0x100000001b3ULL;
  h ^= h >> 32;
}
/// Weights hash by their exact value bits, canonical ones too: within one
/// ComplexTable a pointer and its value determine each other.
inline void hashMix(std::uint64_t& h, const ComplexValue& v) noexcept {
  hashMix(h, std::bit_cast<std::uint64_t>(v.r));
  hashMix(h, std::bit_cast<std::uint64_t>(v.i));
}
inline void hashMix(std::uint64_t& h, CWeight w) noexcept { hashMix(h, *w); }
template <std::size_t Arity>
void hashMix(std::uint64_t& h, const Node<Arity>* p) noexcept {
  hashMix(h, p->id);
}
}  // namespace detail

/// Hash over the successor edges of a node candidate.
template <std::size_t Arity>
[[nodiscard]] std::size_t hashNode(const Node<Arity>& n) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& edge : n.e) {
    detail::hashMix(h, edge.p);
    detail::hashMix(h, edge.w);
  }
  return static_cast<std::size_t>(h);
}

template <std::size_t Arity>
[[nodiscard]] bool sameChildren(const Node<Arity>& a, const Node<Arity>& b) noexcept {
  return a.e == b.e;
}

}  // namespace ddsim::dd
