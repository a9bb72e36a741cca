/// \file build_dd.hpp
/// \brief Shared lowering of IR operations to matrix DDs, used by the
///        simulator and the equivalence checker, and the simulator's
///        per-run gate-DD cache.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>

#include "dd/package.hpp"
#include "ir/operation.hpp"

namespace ddsim::sim {

/// Matrix DD of a unitary operation (standard gate incl. Swap lowering, or
/// oracle as a permutation DD). Throws std::invalid_argument for
/// non-unitary operation kinds.
dd::MEdge buildOperationDD(dd::Package& pkg, const ir::Operation& op);

/// Gate-DD memoization for one package: each distinct gate is lowered once
/// and its matrix DD stays rooted for the package's lifetime, which also
/// keeps the multiply compute-table entries that involve it revalidatable
/// across garbage collections.
///
/// Circuit builders emit a separate object for every gate (Beauregard's
/// Shor circuit repeats a few hundred distinct gates tens of thousands of
/// times), so a standard gate is keyed by its content: type, targets,
/// sorted controls with their polarity, and the parameters' bit patterns
/// (ir::sameGate). A Swap is keyed as one gate and cached whole, lowering
/// included. A hash match is confirmed against the full key before it is
/// used. Oracles are keyed by object identity: their function is an opaque
/// callable whose equality cannot be decided cheaply. An oracle must
/// therefore outlive the cache, or a new one at its address would alias it.
class GateDDCache {
 public:
  explicit GateDDCache(dd::Package& pkg) : pkg_(pkg) {}

  /// The matrix DD of \p op (a Standard or Oracle operation), lowered by
  /// buildOperationDD on first sight. A hit allocates nothing.
  dd::MEdge get(const ir::Operation& op);

  /// Number of distinct gates lowered so far.
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  struct Entry {
    std::optional<ir::StandardOperation> gate;  ///< content key
    const ir::Operation* oracle = nullptr;      ///< identity key
    dd::MEdge edge;
  };

  dd::Package& pkg_;
  std::unordered_multimap<std::uint64_t, Entry> entries_;
};

}  // namespace ddsim::sim
