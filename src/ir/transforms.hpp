/// \file transforms.hpp
/// \brief Circuit transformations.
///
/// `detectRepetitions` is an enabling extension for the paper's
/// *DD-repeating* strategy (Section IV-B): the strategy needs to know which
/// sub-sequences repeat, which is obvious when the circuit is generated
/// programmatically (Grover iterations) but lost when a circuit arrives as
/// a flat gate list (e.g. parsed from OpenQASM). This pass recovers maximal
/// adjacent repetitions and folds them into CompoundOperations, after which
/// the simulator can exploit them without any user annotation.

#pragma once

#include <cstddef>

#include "ir/circuit.hpp"

namespace ddsim::ir {

struct RepetitionOptions {
  /// Only fold runs of at least this many repetitions.
  std::size_t minRepetitions = 2;
  /// Only consider block bodies of at most this many operations (bounds the
  /// quadratic search window).
  std::size_t maxPeriod = 256;
  /// Require the folded block to span at least this many operations in
  /// total (period * repetitions), so trivial X-X pairs are left alone.
  std::size_t minTotalOps = 4;
};

/// Fold maximal adjacent repeated sub-sequences of unitary operations into
/// CompoundOperations. The result is semantically identical to the input
/// (flattening it yields the original operation sequence). Measurements,
/// resets, barriers and classically controlled gates act as boundaries.
[[nodiscard]] Circuit detectRepetitions(const Circuit& circuit,
                                        const RepetitionOptions& options = {});

}  // namespace ddsim::ir
