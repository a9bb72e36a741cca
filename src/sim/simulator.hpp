/// \file simulator.hpp
/// \brief DD-based circuit simulator with configurable operation-combination
///        strategies.
///
/// The simulator consumes an ir::Circuit and maintains the state as a vector
/// DD. Depending on the StrategyConfig it either applies every gate matrix
/// directly (Eq. 1 of the paper), or first combines operations by
/// matrix-matrix multiplication (*k-operations* / *max-size*, Section IV-A).
/// Repeated compound blocks can be combined once and re-applied
/// (*DD-repeating*), and oracle operations are turned into permutation DDs
/// directly (*DD-construct*), both per Section IV-B.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <vector>

#include "dd/package.hpp"
#include "ir/circuit.hpp"
#include "sim/build_dd.hpp"
#include "sim/checkpoint.hpp"
#include "sim/stats.hpp"

namespace ddsim::sim {

struct SimulationResult {
  /// Final state (rooted in the simulator's package; valid as long as the
  /// simulator is alive).
  dd::VEdge finalState{};
  std::vector<bool> classicalBits;
  SimulationStats stats;
  /// Per-step record (only populated with StrategyConfig::collectTrace).
  SimulationTrace trace;
};

class CircuitSimulator {
 public:
  /// The circuit is referenced, not copied; it must outlive run().
  /// The config is validated (StrategyConfig::validate) — malformed values
  /// throw std::invalid_argument here rather than misbehaving mid-run.
  ///
  /// Seeding and reproducibility: the simulator owns a private
  /// std::mt19937_64 engine constructed directly from \p seed, and nothing
  /// else consumes randomness, so the same (circuit, config, seed) triple
  /// produces bit-identical classical outcomes on every run — regardless of
  /// which thread runs it or what executes concurrently. Batch drivers that
  /// need several decorrelated streams from one base seed must not use
  /// base+i (adjacent mt19937_64 seeds correlate); derive stream i as
  /// deriveSeed(base, i) instead — that is the seed-derivation rule the
  /// serving layer applies when a manifest entry fans out into repeats.
  CircuitSimulator(const ir::Circuit& circuit, StrategyConfig config = {},
                   std::uint64_t seed = 0);

  /// Simulate the whole circuit. May be called once per simulator.
  /// Throws SimulationTimeout if StrategyConfig::timeLimitSeconds is set
  /// and exceeded, and sim::ResourceExhausted if a node/byte budget is set
  /// and the degradation ladder (emergency collection, pressure flush,
  /// sequential fallback, forced approximation) could not keep the run
  /// under it. Both carry a PartialResult progress snapshot.
  SimulationResult run();

  /// Install a cooperative cancellation hook, polled between operations and
  /// (via the package abort-poll) inside long multiplications. When it
  /// returns true, run() aborts with SimulationCancelled carrying a
  /// PartialResult. Must be called before run(); the hook is invoked
  /// frequently, so it should be cheap (typically an atomic flag load).
  void setCancelCheck(std::function<bool()> check) {
    cancelCheck_ = std::move(check);
  }

  /// Install a checkpoint sink, called with a fresh progress snapshot every
  /// StrategyConfig::checkpointIntervalOps top-level operations (at
  /// quiescent block boundaries only — never mid-multiplication, never
  /// inside a compound body). The sink runs on the simulating thread; keep
  /// it cheap (typically Checkpoint::serialize into a buffer the caller
  /// owns). Must be installed before run(). No-op while
  /// checkpointIntervalOps == 0.
  void setCheckpointSink(std::function<void(const Checkpoint&)> sink) {
    ckptSink_ = std::move(sink);
  }

  /// Resume from a checkpoint instead of |0...0>: run() imports the state
  /// and accumulator, restores the RNG stream position, classical bits and
  /// carried statistics, and continues at Checkpoint::nextOpIndex.
  /// Measurement outcomes of interrupted-then-resumed runs are
  /// bit-identical to uninterrupted ones (enforced in
  /// tests/test_checkpoint.cpp across schedules). Throws
  /// CheckpointError when the checkpoint's (circuit, strategy, seed)
  /// identity triple does not match this simulator's, or when the embedded
  /// RNG state is malformed. Must be called before run().
  void resumeFrom(const Checkpoint& checkpoint);

  /// The DD package holding the final state (for amplitude queries etc.).
  [[nodiscard]] dd::Package& package() noexcept { return *pkg_; }

 private:
  /// Top-level loop over the circuit's operations, from the resume point
  /// on, checkpointing at operation boundaries.
  void processCircuit();
  void processOps(const std::vector<std::unique_ptr<ir::Operation>>& ops);
  void processOp(const ir::Operation& op);
  void handleUnitary(const ir::Operation& op);
  void handleCompound(const ir::CompoundOperation& comp);
  dd::MEdge buildBlockDD(const std::vector<std::unique_ptr<ir::Operation>>& body);
  void enqueue(const dd::MEdge& gateDD, std::size_t gateCount);
  void applyToState(const dd::MEdge& m);
  void flush();
  void afterStep();
  /// Degradation ladder helpers (see stats.hpp for the rung accounting).
  void enterCooldown();
  void forcedApproximation();
  [[nodiscard]] bool pressureObserved();
  [[nodiscard]] PartialResult makePartial();
  /// Replace |0...0> with the checkpointed state: import the state DD (and
  /// pending accumulator), restore RNG/classical/ladder context, and move
  /// the op cursor to Checkpoint::nextOpIndex.
  void applyResume();
  /// Count \p opsDelta top-level operations toward the checkpoint interval
  /// and snapshot into the sink when it fills. \p nextOp is the index of
  /// the first operation a resumed run would execute.
  void maybeCheckpoint(std::size_t nextOp, std::size_t opsDelta);
  void takeCheckpoint(std::size_t nextOp);
  [[nodiscard]] std::uint64_t circuitIdentityHash();
  [[nodiscard]] std::uint64_t strategyIdentityHash() const;

  const ir::Circuit& circuit_;
  StrategyConfig config_;
  std::unique_ptr<dd::Package> pkg_;
  std::mt19937_64 rng_;

  void recordStep(StepKind kind, std::size_t matrixNodes, double seconds);

  dd::VEdge state_{};
  dd::MEdge acc_{};      ///< accumulated operation product (combining modes)
  bool accPending_ = false;
  std::size_t accCount_ = 0;
  /// Gates sitting in the accumulator, i.e. counted in appliedGates but not
  /// yet applied to the state (PartialResult::opsCompleted excludes them).
  std::uint64_t accGates_ = 0;
  std::size_t lastStateSize_ = 0;
  /// Remaining operations to apply sequentially after a pressure event
  /// before matrix-matrix combination is re-enabled.
  std::size_t sequentialCooldown_ = 0;
  /// Set by the governor's pressure callback (possibly deep inside a
  /// multiplication); consumed at the next quiescent point.
  bool pressureSignaled_ = false;
  std::function<bool()> cancelCheck_;
  Timer runTimer_;

  /// Gate-DD memoization: each distinct gate is lowered once per run.
  /// Standard gates are keyed by content, since circuit builders emit a
  /// fresh object per gate (Beauregard Shor: ~37k ops, ~700 distinct
  /// gates); oracles by identity, since their function is an opaque
  /// callable (see GateDDCache).
  GateDDCache gateCache_;

  std::vector<bool> clbits_;
  SimulationStats stats_;
  SimulationTrace trace_;
  bool ran_ = false;

  /// Durability (see sim/checkpoint.hpp): the identity seed this simulator
  /// was constructed with, the lazily computed circuit content hash, the
  /// installed sink, the pending resume snapshot, the op cursor run()
  /// starts at (nonzero only when resuming), and the interval counter.
  std::uint64_t seed_;
  std::optional<std::uint64_t> circuitHash_;
  std::function<void(const Checkpoint&)> ckptSink_;
  std::optional<Checkpoint> resume_;
  std::size_t startOpIndex_ = 0;
  std::size_t opsSinceCkpt_ = 0;
};

/// Result of the one-shot helper below: no DD handle, since the backing
/// package dies with the temporary simulator.
struct DetachedResult {
  std::vector<bool> classicalBits;
  SimulationStats stats;
};

/// Convenience: simulate and return classical outcome plus statistics.
/// Deterministic under the same seeding rule as CircuitSimulator: equal
/// (circuit, config, seed) yields equal results run-to-run and across
/// concurrent callers (each call owns an isolated package and RNG).
DetachedResult simulate(const ir::Circuit& circuit, StrategyConfig config = {},
                        std::uint64_t seed = 0);

/// The seed-derivation rule for fanning one base seed out into independent
/// streams (job repeats, shot batches): stream \p stream of base \p base
/// uses SplitMix64(base XOR golden-ratio spaced stream index). Adjacent
/// streams are decorrelated — unlike base+i fed straight into mt19937_64 —
/// and the mapping is a stable part of the public contract, so manifests
/// that record (base, stream) reproduce bit-identical outcomes anywhere.
[[nodiscard]] std::uint64_t deriveSeed(std::uint64_t base,
                                       std::uint64_t stream) noexcept;

}  // namespace ddsim::sim
