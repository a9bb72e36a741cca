#include "ir/transforms.hpp"

#include <algorithm>
#include <vector>

namespace ddsim::ir {

namespace {

/// Cheap structural fingerprint used to compare operations for equality.
/// toString() encodes kind, gate type, parameters, targets and controls; two
/// operations with equal strings are interchangeable for repetition folding.
std::vector<std::string> fingerprints(
    const std::vector<std::unique_ptr<Operation>>& ops) {
  std::vector<std::string> fps;
  fps.reserve(ops.size());
  for (const auto& op : ops) {
    fps.push_back(op->toString());
  }
  return fps;
}

bool isFoldable(const Operation& op) {
  switch (op.kind()) {
    case OpKind::Standard:
    case OpKind::Oracle:
    case OpKind::Compound:
      return true;
    default:
      return false;  // measurement/reset/barrier/classic control: boundary
  }
}

}  // namespace

Circuit detectRepetitions(const Circuit& circuit,
                          const RepetitionOptions& options) {
  const auto& ops = circuit.ops();
  const auto fps = fingerprints(ops);

  Circuit out(circuit.numQubits(), circuit.numClbits(), circuit.name());
  std::size_t i = 0;
  while (i < ops.size()) {
    if (!isFoldable(*ops[i])) {
      out.append(ops[i]->clone());
      ++i;
      continue;
    }

    // Extent of the contiguous foldable window starting at i.
    std::size_t windowEnd = i;
    while (windowEnd < ops.size() && isFoldable(*ops[windowEnd])) {
      ++windowEnd;
    }

    // Greedy: at position i, find the (period, repetitions) pair with the
    // largest folded span; prefer smaller periods on ties (tighter loops).
    std::size_t bestPeriod = 0;
    std::size_t bestReps = 0;
    const std::size_t windowLen = windowEnd - i;
    const std::size_t maxPeriod = std::min(options.maxPeriod, windowLen / 2);
    for (std::size_t period = 1; period <= maxPeriod; ++period) {
      std::size_t reps = 1;
      while (i + (reps + 1) * period <= windowEnd) {
        bool match = true;
        for (std::size_t k = 0; k < period && match; ++k) {
          match = fps[i + reps * period + k] == fps[i + k];
        }
        if (!match) {
          break;
        }
        ++reps;
      }
      if (reps >= options.minRepetitions &&
          period * reps >= options.minTotalOps &&
          period * reps > bestPeriod * bestReps) {
        bestPeriod = period;
        bestReps = reps;
      }
    }

    if (bestReps == 0) {
      out.append(ops[i]->clone());
      ++i;
      continue;
    }

    std::vector<std::unique_ptr<Operation>> body;
    body.reserve(bestPeriod);
    for (std::size_t k = 0; k < bestPeriod; ++k) {
      body.push_back(ops[i + k]->clone());
    }
    out.append(std::make_unique<CompoundOperation>(std::move(body), bestReps,
                                                   "detected"));
    i += bestPeriod * bestReps;
  }
  return out;
}

}  // namespace ddsim::ir
