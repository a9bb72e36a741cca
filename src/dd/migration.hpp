/// \file migration.hpp
/// \brief Cross-package DD migration: export a vector/matrix DD into a
///        portable flat edge-list form and rebuild it inside another
///        dd::Package.
///
/// A Package's node pointers and canonical weight pointers are only
/// meaningful inside that package — its unique table, complex table and
/// node serials are private state. The FlatDD form removes every
/// pointer: nodes become indices in children-before-parents order, weights
/// become plain ComplexValue copies. Importing rebuilds the DD bottom-up
/// through the destination's makeVNode/makeMNode and complex-table lookup,
/// so the result is canonical *in the destination* — normalized weights,
/// unique-table-deduplicated nodes, structure flags recomputed — and is
/// bit-for-bit independent of the source package's history (GC generations,
/// node serials, chunk layout).
///
/// The consumer in this codebase is the simulation checkpoint
/// (sim/checkpoint.hpp): it carries the state and the pending accumulator
/// out of one package and resumes them in another — in another simulator,
/// even another process. Its bytes hold the flat form through flatFields.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "dd/complex_value.hpp"
#include "dd/node.hpp"
#include "wire/wire.hpp"

namespace ddsim::dd {

class Package;

/// Structured failure of DD migration: a malformed flat structure.
/// Derives from std::invalid_argument so pre-existing callers that treat a
/// bad flat DD as an argument error keep working unchanged.
class MigrationError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Child index of a flat edge that points at the terminal node.
inline constexpr std::int32_t kFlatTerminal = -1;

/// One edge of a flattened DD: the child's index into FlatDD::nodes
/// (kFlatTerminal for the terminal) plus the plain-value weight.
struct FlatEdge {
  std::int32_t node = kFlatTerminal;
  ComplexValue w{};

  bool operator==(const FlatEdge&) const noexcept = default;
};

template <std::size_t Arity>
struct FlatNode {
  Qubit v = 0;
  std::array<FlatEdge, Arity> children{};

  bool operator==(const FlatNode&) const noexcept = default;
};

/// A pointer-free DD. `nodes` is topologically ordered children-before-
/// parents (every child index is strictly smaller than its parent's index),
/// which importDD validates and exploits for a single bottom-up pass.
template <std::size_t Arity>
struct FlatDD {
  static constexpr std::size_t kArity = Arity;

  std::size_t numQubits = 0;
  std::vector<FlatNode<Arity>> nodes;
  FlatEdge root{};

  /// Internal nodes plus the terminal — comparable to Package::size().
  [[nodiscard]] std::size_t nodeCount() const noexcept {
    return nodes.size() + 1;
  }

  bool operator==(const FlatDD&) const noexcept = default;
};

using FlatVectorDD = FlatDD<2>;
using FlatMatrixDD = FlatDD<4>;

/// Flatten the DD rooted at \p root. Read-only on \p src (no package state
/// is mutated, no references are taken); the result stays valid after the
/// source DD — or the whole source package — is gone.
[[nodiscard]] FlatVectorDD exportDD(const Package& src, const VEdge& root);
[[nodiscard]] FlatMatrixDD exportDD(const Package& src, const MEdge& root);

/// Rebuild a flattened DD inside \p dst and return its (unrooted) root
/// edge. The caller roots it with dst.incRef() like any other fresh edge.
///
/// Structural validation happens up front — child indices in bounds and
/// children-before-parents, levels descending exactly one per edge,
/// terminal children only with an exactly-zero weight or at level 0, the
/// root level inside the destination's qubit range — and malformed input
/// throws std::invalid_argument before any node is created. Node creation
/// goes through the destination's resource checks, so a budgeted or
/// fault-injected destination can throw dd::ResourceExhausted mid-import;
/// partially built nodes are unrooted and reclaimed by the next collection.
[[nodiscard]] VEdge importDD(Package& dst, const FlatVectorDD& flat);
[[nodiscard]] MEdge importDD(Package& dst, const FlatMatrixDD& flat);

/// The field list of a FlatDD: numQubits and the node count (u64 each),
/// the root edge, then each node's level (i32) and its Arity edges, an
/// edge being its child index (i32) and its weight (two f64). The
/// checkpoint embeds its state and accumulator through it. \p io is a
/// wire::WireWriter (with a const \p flat) or a wire::WireReader; the
/// reader bounds the node count by the bytes left before it allocates.
template <class IO, class Flat>
void flatFields(IO& io, Flat& flat) {
  constexpr std::size_t kEdgeBytes = 4 + 8 + 8;
  constexpr std::size_t kNodeBytes =
      4 + std::remove_cvref_t<Flat>::kArity * kEdgeBytes;
  const auto edge = [&io](auto& e) {
    io.i32(e.node);
    io.f64(e.w.r);
    io.f64(e.w.i);
  };
  io.u64(flat.numQubits);
  std::uint64_t count = flat.nodes.size();
  io.u64(count);
  if constexpr (!IO::kWrites) {
    if (count > io.remaining() / kNodeBytes) {
      throw wire::WireError("flat DD node count " + std::to_string(count) +
                            " exceeds the payload");
    }
    flat.nodes.resize(count);
  }
  edge(flat.root);
  for (auto& n : flat.nodes) {
    io.i32(n.v);
    for (auto& e : n.children) {
      edge(e);
    }
  }
}

}  // namespace ddsim::dd
