/// \file migration.hpp
/// \brief Cross-package DD migration: serialize a vector/matrix DD into a
///        portable flat edge-list form and rebuild it inside another
///        dd::Package.
///
/// A Package's node pointers and canonical weight pointers are only
/// meaningful inside that package — its unique table, complex table and
/// incarnation counters are private state. The FlatDD form removes every
/// pointer: nodes become indices in children-before-parents order, weights
/// become plain ComplexValue copies. Importing rebuilds the DD bottom-up
/// through the destination's makeVNode/makeMNode and complex-table lookup,
/// so the result is canonical *in the destination* — normalized weights,
/// unique-table-deduplicated nodes, structure flags recomputed — and is
/// bit-for-bit independent of the source package's history (GC epochs,
/// incarnation stamps, chunk layout).
///
/// The consumer in this codebase is the simulation checkpoint
/// (sim/checkpoint.hpp): it carries the state and the pending accumulator
/// out of one package and resumes them in another — in another simulator,
/// even another process.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "dd/complex_value.hpp"
#include "dd/node.hpp"

namespace ddsim::dd {

class Package;

/// Structured failure of DD migration: malformed flat structure, or a byte
/// stream that is truncated, version-incompatible or fails its checksum.
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

/// Byte-level wire format of a FlatDD, for checkpoints and cross-process
/// shipping. Layout: a fixed header — magic, format version, arity, qubit
/// count, node count, payload length, wire::fnv1a checksum over the entire
/// blob (checksum field zeroed) — followed by the payload (root edge, then
/// the nodes in their children-before-parents order). Numbers are encoded
/// by the shared byte codec (wire/wire.hpp): little-endian, weights as
/// IEEE-754 doubles by bit pattern, so a blob re-imports bit-identically
/// on any supported host.
[[nodiscard]] std::vector<std::uint8_t> serializeDD(const FlatVectorDD& flat);
[[nodiscard]] std::vector<std::uint8_t> serializeDD(const FlatMatrixDD& flat);

/// Decode a serialized flat DD. Throws MigrationError on a truncated
/// buffer, bad magic, unsupported version, arity mismatch, payload-length
/// mismatch or checksum failure — a corrupted blob is rejected before any
/// FlatDD structure is built (and importDD re-validates the structure
/// itself, so even a forged checksum cannot cause undefined
/// reconstruction).
[[nodiscard]] FlatVectorDD deserializeVectorDD(const std::uint8_t* data,
                                               std::size_t size);
[[nodiscard]] FlatMatrixDD deserializeMatrixDD(const std::uint8_t* data,
                                               std::size_t size);
[[nodiscard]] FlatVectorDD deserializeVectorDD(
    const std::vector<std::uint8_t>& bytes);
[[nodiscard]] FlatMatrixDD deserializeMatrixDD(
    const std::vector<std::uint8_t>& bytes);

}  // namespace ddsim::dd
