#include "sim/stats.hpp"

#include <cmath>
#include <ostream>
#include <sstream>

#include "ir/hash.hpp"

namespace ddsim::sim {

std::string scheduleName(Schedule s) {
  switch (s) {
    case Schedule::Sequential: return "sequential";
    case Schedule::KOperations: return "k-operations";
    case Schedule::MaxSize: return "max-size";
    case Schedule::Adaptive: return "adaptive";
  }
  return "?";
}

void StrategyConfig::validate() const {
  if (k < 1) {
    throw std::invalid_argument("StrategyConfig: k must be >= 1");
  }
  if (maxSize == 0) {
    throw std::invalid_argument("StrategyConfig: maxSize (s_max) must be > 0");
  }
  if (!(adaptiveRatio > 0.0) || !std::isfinite(adaptiveRatio)) {
    throw std::invalid_argument(
        "StrategyConfig: adaptiveRatio must be positive and finite");
  }
  if (timeLimitSeconds < 0.0 || !std::isfinite(timeLimitSeconds)) {
    throw std::invalid_argument(
        "StrategyConfig: timeLimitSeconds must be non-negative and finite");
  }
  if (!(approximateFidelity > 0.0) || approximateFidelity > 1.0) {
    throw std::invalid_argument(
        "StrategyConfig: approximateFidelity must be in (0, 1]");
  }
  if (!(softBudgetFraction > 0.0) || softBudgetFraction > 1.0) {
    throw std::invalid_argument(
        "StrategyConfig: softBudgetFraction must be in (0, 1]");
  }
}

std::uint64_t StrategyConfig::contentHash() const noexcept {
  using ir::hashCombine;
  using ir::hashDouble;
  std::uint64_t h = hashCombine(ir::kHashSeed, 0x53434647ULL);  // "SCFG"
  h = hashCombine(h, static_cast<std::uint64_t>(schedule));
  h = hashCombine(h, k);
  h = hashCombine(h, maxSize);
  h = hashDouble(h, adaptiveRatio);
  h = hashCombine(h, reuseRepeatedBlocks ? 1U : 0U);
  // collectTrace is deliberately excluded: it only toggles step-trace
  // recording and never changes the simulation outcome, so trace-on and
  // trace-off submissions must coalesce to the same cache entry.
  h = hashDouble(h, timeLimitSeconds);
  h = hashDouble(h, approximateFidelity);
  h = hashCombine(h, approximateThreshold);
  h = hashCombine(h, nodeBudget);
  h = hashCombine(h, byteBudget);
  h = hashDouble(h, softBudgetFraction);
  h = hashCombine(h, degradeCooldownOps);
  return h;
}

std::string StrategyConfig::toString() const {
  std::ostringstream ss;
  ss << scheduleName(schedule);
  if (schedule == Schedule::KOperations) {
    ss << "(k=" << k << ")";
  } else if (schedule == Schedule::MaxSize) {
    ss << "(s_max=" << maxSize << ")";
  } else if (schedule == Schedule::Adaptive) {
    ss << "(ratio=" << adaptiveRatio << ")";
  }
  if (reuseRepeatedBlocks) {
    ss << "+DD-repeating";
  }
  if (nodeBudget > 0 || byteBudget > 0) {
    ss << "+budget(nodes=" << nodeBudget << ",bytes=" << byteBudget << ")";
  }
  return ss.str();
}

void SimulationTrace::writeCsv(std::ostream& os) const {
  os << "index,kind,state_nodes,matrix_nodes,seconds\n";
  for (const auto& step : steps) {
    const char* kind = step.kind == StepKind::ApplyToState ? "apply"
                       : step.kind == StepKind::CombineMatrix ? "combine"
                                                              : "measure";
    os << step.index << ',' << kind << ',' << step.stateNodes << ','
       << step.matrixNodes << ',' << step.seconds << '\n';
  }
}

std::string SimulationStats::toString() const {
  std::ostringstream ss;
  ss << "time=" << wallSeconds << "s gates=" << appliedGates
     << " MxV=" << mxvCount << " MxM=" << mxmCount
     << " peakStateNodes=" << peakStateNodes
     << " peakMatrixNodes=" << peakMatrixNodes
     << " finalStateNodes=" << finalStateNodes
     << " identitySkipRate=" << dd.identitySkipRate()
     << " mulCacheHitRate=" << cache.mulHitRate()
     << " gcRetentionRate=" << cache.gcRetentionRate();
  if (migratedNodes > 0) {
    ss << " migratedNodes=" << migratedNodes;
  }
  if (degradationEvents > 0) {
    ss << " degradationEvents=" << degradationEvents
       << " pressureFlushes=" << pressureFlushes
       << " sequentialFallbackOps=" << sequentialFallbackOps
       << " pressureApproximations=" << pressureApproximations
       << " resourceRecoveries=" << resourceRecoveries;
  }
  return ss.str();
}

}  // namespace ddsim::sim
