#include "dd/migration.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "dd/package.hpp"
#include "wire/wire.hpp"

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

// ------------------------------------------------- byte-level wire format

constexpr std::uint32_t kMagic = 0x4464444dU;  // "MDdD"
constexpr std::uint32_t kVersion = 1;
/// Header: magic, version, arity, numQubits, nodeCount, payloadLen,
/// checksum — all fixed-width little-endian. The checksum covers the whole
/// blob with the checksum field itself zeroed, so a bit flip anywhere —
/// including header fields like numQubits that no structural check would
/// catch — is detected.
constexpr std::size_t kHeaderSize = 4 + 4 + 4 + 8 + 8 + 8 + 8;
/// Payload entries: an edge is (child index i32, weight 2 x f64); a node is
/// its level (i32) followed by its Arity edges.
constexpr std::size_t kEdgeSize = 4 + 8 + 8;

/// The payload: the root edge, then each node's level and its Arity edges.
/// An edge is its child index and the two weight components.
template <class IO, class Flat>
void payloadFields(IO& io, Flat& flat) {
  const auto edge = [&io](auto& e) {
    io.i32(e.node);
    io.f64(e.w.r);
    io.f64(e.w.i);
  };
  edge(flat.root);
  for (auto& n : flat.nodes) {
    io.i32(n.v);
    for (auto& e : n.children) {
      edge(e);
    }
  }
}

template <std::size_t Arity>
std::vector<std::uint8_t> serializeImpl(const FlatDD<Arity>& flat) {
  const std::size_t nodeSize = 4 + Arity * kEdgeSize;
  const std::size_t payloadLen = kEdgeSize + flat.nodes.size() * nodeSize;
  wire::WireWriter w;
  w.out.reserve(kHeaderSize + payloadLen);
  w.u32(kMagic);
  w.u32(kVersion);
  w.u32(static_cast<std::uint32_t>(Arity));
  w.u64(flat.numQubits);
  w.u64(flat.nodes.size());
  w.u64(payloadLen);
  w.u64(0);  // checksum patched below, once the payload is written
  payloadFields(w, flat);
  // The checksum field still holds its zero placeholder here, so hashing
  // the full buffer implements the zeroed-checksum-field convention.
  std::vector<std::uint8_t> sum;
  wire::putU64(sum, wire::fnv1a(w.out.data(), w.out.size()));
  std::copy(sum.begin(), sum.end(), w.out.begin() + (kHeaderSize - 8));
  return std::move(w.out);
}

template <std::size_t Arity>
FlatDD<Arity> deserializeImpl(const std::uint8_t* data, std::size_t size) {
  auto fail = [](const std::string& what) {
    throw MigrationError("deserializeDD: " + what);
  };
  if (data == nullptr || size < kHeaderSize) {
    fail("buffer of " + std::to_string(size) +
         " bytes is shorter than the header (" + std::to_string(kHeaderSize) +
         " bytes)");
  }
  if (wire::peekU32(data) != kMagic) {
    fail("bad magic (not a serialized DD)");
  }
  if (const std::uint32_t version = wire::peekU32(data + 4);
      version != kVersion) {
    fail("unsupported format version " + std::to_string(version) +
         " (expected " + std::to_string(kVersion) + ")");
  }
  if (const std::uint32_t arity = wire::peekU32(data + 8); arity != Arity) {
    fail("arity " + std::to_string(arity) + " does not match the requested " +
         (Arity == 2 ? std::string("vector") : std::string("matrix")) +
         " DD");
  }
  const std::uint64_t numQubits = wire::peekU64(data + 12);
  const std::uint64_t nodeCount = wire::peekU64(data + 20);
  const std::uint64_t payloadLen = wire::peekU64(data + 28);
  const std::uint64_t checksum = wire::peekU64(data + 36);
  const std::size_t nodeSize = 4 + Arity * kEdgeSize;
  if (nodeCount >
      static_cast<std::uint64_t>(std::numeric_limits<std::int32_t>::max())) {
    fail("node count " + std::to_string(nodeCount) + " exceeds 2^31");
  }
  if (payloadLen != kEdgeSize + nodeCount * nodeSize) {
    fail("payload length " + std::to_string(payloadLen) +
         " inconsistent with node count " + std::to_string(nodeCount));
  }
  if (size != kHeaderSize + payloadLen) {
    fail("buffer of " + std::to_string(size) + " bytes, expected " +
         std::to_string(kHeaderSize + payloadLen) + " (truncated or padded)");
  }
  const std::uint8_t* payload = data + kHeaderSize;
  // Re-derive the zeroed-checksum-field hash by chaining: header prefix,
  // eight zero bytes in place of the checksum field, then the payload.
  const std::uint8_t zeros[8] = {};
  std::uint64_t expected = wire::fnv1a(data, kHeaderSize - 8);
  expected = wire::fnv1a(zeros, 8, expected);
  expected = wire::fnv1a(payload, payloadLen, expected);
  if (expected != checksum) {
    fail("checksum mismatch (corrupted header or edge list)");
  }
  if (numQubits == 0) {
    fail("numQubits must be nonzero");
  }
  FlatDD<Arity> flat;
  flat.numQubits = numQubits;
  flat.nodes.resize(nodeCount);
  wire::WireReader r(payload, payloadLen);
  payloadFields(r, flat);
  return flat;
}

}  // namespace

std::vector<std::uint8_t> serializeDD(const FlatVectorDD& flat) {
  return serializeImpl<2>(flat);
}

std::vector<std::uint8_t> serializeDD(const FlatMatrixDD& flat) {
  return serializeImpl<4>(flat);
}

FlatVectorDD deserializeVectorDD(const std::uint8_t* data, std::size_t size) {
  return deserializeImpl<2>(data, size);
}

FlatMatrixDD deserializeMatrixDD(const std::uint8_t* data, std::size_t size) {
  return deserializeImpl<4>(data, size);
}

FlatVectorDD deserializeVectorDD(const std::vector<std::uint8_t>& bytes) {
  return deserializeImpl<2>(bytes.data(), bytes.size());
}

FlatMatrixDD deserializeMatrixDD(const std::vector<std::uint8_t>& bytes) {
  return deserializeImpl<4>(bytes.data(), bytes.size());
}

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
