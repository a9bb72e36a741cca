/// \file stats.hpp
/// \brief Strategy configuration and instrumentation for DD-based simulation.

#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dd/package.hpp"

namespace ddsim::sim {

/// The scheduling strategies of the paper, plus an adaptive extension.
enum class Schedule {
  /// One matrix-vector multiplication per gate (Eq. 1) — the state of the
  /// art the paper improves on.
  Sequential,
  /// Combine k consecutive operations by matrix-matrix multiplication, then
  /// apply the product to the state (Section IV-A, strategy *k-operations*).
  KOperations,
  /// Combine operations until the product DD exceeds s_max nodes, then apply
  /// it (Section IV-A, strategy *max-size*).
  MaxSize,
  /// Extension beyond the paper: combine while the product DD stays below
  /// adaptiveRatio x (current state DD size). This operationalizes the
  /// Section III observation directly — matrix-matrix multiplication pays
  /// off exactly while the operand matrices are small *relative to the
  /// state* — without a hand-tuned absolute parameter.
  Adaptive,
};

[[nodiscard]] std::string scheduleName(Schedule s);

struct StrategyConfig {
  Schedule schedule = Schedule::Sequential;
  /// Number of operations to combine (KOperations).
  std::size_t k = 4;
  /// Node limit for the accumulated product DD (MaxSize).
  std::size_t maxSize = 4096;
  /// Relative product-size budget for Schedule::Adaptive.
  double adaptiveRatio = 0.25;
  /// *DD-repeating* (Section IV-B): build the matrix of each repeated block
  /// once and re-apply it, instead of streaming the block's gates.
  bool reuseRepeatedBlocks = false;
  /// Record a per-step trace (see SimulationTrace).
  bool collectTrace = false;
  /// Abort the run with SimulationTimeout once this much wall time has
  /// elapsed (0 = no limit). Mirrors the CPU-time budget of the paper's
  /// evaluation (">7 200.00" entries in Table II).
  double timeLimitSeconds = 0.0;
  /// Approximate-while-simulating: after every state update, if the state DD
  /// exceeds 512 nodes, prune it down with a per-step fidelity target of
  /// approximateFidelity (see dd::approximate). 1.0 (the
  /// default) disables approximation. The product of the per-step fidelities
  /// is reported in SimulationStats::approxFidelity — a lower bound on the
  /// fidelity of the final state against the exact run.
  double approximateFidelity = 1.0;
  /// Resource budget: abort-or-degrade once the package holds this many
  /// live DD nodes (0 = unlimited; the DDSIM_NODE_BUDGET environment
  /// variable supplies a default when unset). Soft pressure starts at
  /// dd::kSoftBudgetFraction x nodeBudget and triggers the degradation
  /// ladder (emergency collection, accumulator flush, sequential fallback
  /// for 16 operations, forced approximation); only the hard limit aborts.
  std::size_t nodeBudget = 0;
  /// Resource budget in bytes across node chunks and unique-table buckets
  /// (0 = unlimited).
  std::size_t byteBudget = 0;
  /// Durability: snapshot simulation progress into a Checkpoint (see
  /// sim/checkpoint.hpp) every this many top-level circuit operations and
  /// hand it to the sink installed via CircuitSimulator::setCheckpointSink.
  /// 0 (the default) disables checkpointing. A resumed run is required to
  /// produce bit-identical measurement outcomes to an uninterrupted one,
  /// so the knob is excluded from contentHash like the other
  /// outcome-neutral knob collectTrace.
  std::size_t checkpointIntervalOps = 0;

  [[nodiscard]] static StrategyConfig sequential() { return {}; }
  [[nodiscard]] static StrategyConfig kOperations(std::size_t k) {
    StrategyConfig c;
    c.schedule = Schedule::KOperations;
    c.k = k;
    return c;
  }
  [[nodiscard]] static StrategyConfig maxSizeStrategy(std::size_t sMax) {
    StrategyConfig c;
    c.schedule = Schedule::MaxSize;
    c.maxSize = sMax;
    return c;
  }
  [[nodiscard]] static StrategyConfig adaptive(double ratio = 0.25) {
    StrategyConfig c;
    c.schedule = Schedule::Adaptive;
    c.adaptiveRatio = ratio;
    return c;
  }

  /// Reject malformed configurations with std::invalid_argument. Checked
  /// unconditionally (a k of 0 is invalid even under Schedule::Sequential):
  /// k >= 1, maxSize > 0, adaptiveRatio > 0 and finite, a non-negative
  /// finite time limit, approximateFidelity in (0, 1]. CircuitSimulator
  /// calls this at construction so a bad config fails fast instead of
  /// silently misbehaving mid-run.
  void validate() const;

  /// Stable 64-bit content hash over every field that influences the
  /// simulation outcome or its statistics — part of the serve-layer result
  /// cache key alongside ir::contentHash(circuit) and the seed.
  /// Observation-only knobs (collectTrace) are excluded so that otherwise
  /// identical submissions coalesce regardless of tracing.
  [[nodiscard]] std::uint64_t contentHash() const noexcept;

  [[nodiscard]] std::string toString() const;
};

/// What happened in one engine step (for the Section III style analysis of
/// "how DDs perform during simulation").
enum class StepKind {
  ApplyToState,   ///< matrix-vector multiplication (simulation step)
  CombineMatrix,  ///< matrix-matrix multiplication into the accumulator
  Measure,        ///< measurement / reset collapse
};

struct StepRecord {
  std::size_t index = 0;  ///< running step number
  StepKind kind = StepKind::ApplyToState;
  std::size_t stateNodes = 0;   ///< state DD size after the step
  std::size_t matrixNodes = 0;  ///< accumulator / applied matrix DD size
  double seconds = 0.0;         ///< wall time consumed by the step
};

/// Per-step trace of a simulation run (enabled via
/// StrategyConfig::collectTrace).
struct SimulationTrace {
  std::vector<StepRecord> steps;

  /// CSV with header: index,kind,state_nodes,matrix_nodes,seconds
  void writeCsv(std::ostream& os) const;
};

struct SimulationStats {
  double wallSeconds = 0.0;
  /// Elementary unitary gates consumed (compound blocks flattened).
  std::uint64_t appliedGates = 0;
  /// Top-level matrix-vector products (simulation steps).
  std::uint64_t mxvCount = 0;
  /// Top-level matrix-matrix products spent combining operations.
  std::uint64_t mxmCount = 0;
  std::size_t peakStateNodes = 0;
  std::size_t peakMatrixNodes = 0;
  std::size_t finalStateNodes = 0;
  /// Product of per-step approximation fidelities (1.0 when approximation
  /// is disabled or never triggered).
  double approxFidelity = 1.0;
  /// Number of approximation passes that actually pruned something.
  std::uint64_t approxRounds = 0;
  /// Times the degradation ladder engaged (any rung).
  std::uint64_t degradationEvents = 0;
  /// Accumulator flushes forced by resource pressure rather than the
  /// schedule's own combine criterion.
  std::uint64_t pressureFlushes = 0;
  /// Operations applied sequentially (MxV) while a pressure cooldown
  /// suppressed matrix-matrix combination.
  std::uint64_t sequentialFallbackOps = 0;
  /// Approximation rounds forced by resource pressure (also counted in
  /// approxRounds).
  std::uint64_t pressureApproximations = 0;
  /// Hard-rung ResourceExhausted throws the ladder absorbed (emergency
  /// collection + retry succeeded).
  std::uint64_t resourceRecoveries = 0;
  /// DD nodes rebuilt in the package by cross-package imports (the state
  /// and accumulator a checkpoint resume brings in).
  std::uint64_t migratedNodes = 0;
  /// Progress snapshots handed to the checkpoint sink during this run.
  std::uint64_t checkpointsTaken = 0;
  /// 1 when this run was resumed from a checkpoint rather than started
  /// from |0...0> (counters above then continue from the checkpoint's).
  std::uint64_t resumedFromCheckpoint = 0;
  /// Snapshot of the DD package counters at the end of the run.
  dd::PackageStats dd;
  /// Snapshot of the memoization-layer counters at the end of the run
  /// (multiply-cache hit rate, unique-table hits, ...).
  dd::CacheStats cache;

  [[nodiscard]] std::string toString() const;
};

/// Snapshot of how far a run got before it was cut short. Both
/// SimulationTimeout and sim::ResourceExhausted carry one, so a caller can
/// report progress (and the degradation attempts made) instead of losing
/// everything to the exception.
struct PartialResult {
  /// Elementary gates applied to the state before the abort.
  std::uint64_t opsCompleted = 0;
  std::size_t peakLiveNodes = 0;
  double elapsedSeconds = 0.0;
  /// Statistics as of the abort (wallSeconds/dd/cache snapshots included).
  SimulationStats stats;
};

/// Thrown by CircuitSimulator::run when StrategyConfig::timeLimitSeconds is
/// exceeded.
class SimulationTimeout : public std::runtime_error {
 public:
  explicit SimulationTimeout(double limitSeconds, PartialResult partial = {})
      : std::runtime_error("simulation exceeded the time limit of " +
                           std::to_string(limitSeconds) + " s"),
        limit_(limitSeconds),
        partial_(std::move(partial)) {}
  [[nodiscard]] double limitSeconds() const noexcept { return limit_; }
  /// Progress made before the limit hit.
  [[nodiscard]] const PartialResult& partial() const noexcept {
    return partial_;
  }

 private:
  double limit_;
  PartialResult partial_;
};

/// Thrown by CircuitSimulator::run when a cancellation hook installed via
/// CircuitSimulator::setCancelCheck reported true. Cancellation is
/// cooperative: the hook is polled between operations and — through the
/// package abort-poll machinery — inside long-running multiplications, so
/// even a single runaway MxM unwinds promptly.
class SimulationCancelled : public std::runtime_error {
 public:
  explicit SimulationCancelled(PartialResult partial = {})
      : std::runtime_error("simulation cancelled"),
        partial_(std::move(partial)) {}
  /// Progress made before the cancellation was honoured.
  [[nodiscard]] const PartialResult& partial() const noexcept {
    return partial_;
  }

 private:
  PartialResult partial_;
};

/// Thrown by CircuitSimulator::run when the resource budget is exhausted and
/// every rung of the degradation ladder failed to bring usage back under it.
/// Wraps the dd-layer diagnosis (live nodes, budget, operation in flight)
/// and adds the simulation progress snapshot.
class ResourceExhausted : public dd::ResourceExhausted {
 public:
  ResourceExhausted(const dd::ResourceExhausted& cause, PartialResult partial)
      : dd::ResourceExhausted(cause), partial_(std::move(partial)) {}
  /// Progress made before the budget ran out.
  [[nodiscard]] const PartialResult& partial() const noexcept {
    return partial_;
  }

 private:
  PartialResult partial_;
};

/// Simple wall-clock stopwatch.
class Timer {
 public:
  Timer() : start_(clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace ddsim::sim
