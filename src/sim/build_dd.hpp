/// \file build_dd.hpp
/// \brief Shared lowering of IR operations to matrix DDs, used by the
///        simulator and the equivalence checker.

#pragma once

#include "dd/package.hpp"
#include "ir/operation.hpp"

namespace ddsim::sim {

/// Matrix DD of a unitary operation (standard gate incl. Swap lowering, or
/// oracle as a permutation DD). Throws std::invalid_argument for
/// non-unitary operation kinds.
dd::MEdge buildOperationDD(dd::Package& pkg, const ir::Operation& op);

}  // namespace ddsim::sim
