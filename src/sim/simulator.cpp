#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "dd/approximation.hpp"
#include "dd/migration.hpp"
#include "ir/hash.hpp"
#include "obs/trace.hpp"

namespace ddsim::sim {

using dd::MEdge;
using dd::VEdge;
using ir::OpKind;

namespace {

/// Approximate-while-simulating prunes the state only above this many nodes.
constexpr std::size_t kApproximateThreshold = 512;
/// Operations run sequentially (MxV only) after a pressure event before
/// combination is re-enabled.
constexpr std::size_t kDegradeCooldownOps = 16;

}  // namespace

CircuitSimulator::CircuitSimulator(const ir::Circuit& circuit,
                                   StrategyConfig config, std::uint64_t seed)
    : circuit_(circuit),
      config_(config),
      pkg_(std::make_unique<dd::Package>(circuit.numQubits())),
      rng_(seed),
      gateCache_(*pkg_),
      clbits_(std::max<std::size_t>(1, circuit.numClbits()), false),
      seed_(seed) {
  config_.validate();
  // DDSIM_NODE_BUDGET supplies a process-wide default (used e.g. by the CI
  // job that runs the whole suite under a tiny budget); an explicit config
  // value wins.
  if (config_.nodeBudget == 0) {
    if (const char* env = std::getenv("DDSIM_NODE_BUDGET")) {
      config_.nodeBudget = std::strtoull(env, nullptr, 10);
    }
  }
  if (config_.nodeBudget > 0 || config_.byteBudget > 0) {
    pkg_->governor().setBudget({config_.nodeBudget, config_.byteBudget});
    // Fires deep inside a multiplication; only flag it — the ladder reacts
    // at the next quiescent point.
    pkg_->governor().setPressureCallback(
        [this](dd::ResourcePressure, std::size_t) {
          pressureSignaled_ = true;
        });
  }
}

SimulationResult CircuitSimulator::run() {
  if (ran_) {
    throw std::logic_error("CircuitSimulator::run may only be called once");
  }
  ran_ = true;

  runTimer_ = Timer{};
  const Timer& timer = runTimer_;
  if (config_.timeLimitSeconds > 0.0 || cancelCheck_) {
    // Interrupts even a single runaway multiplication, not just the gaps
    // between operations. The cancellation hook rides the same abort poll.
    pkg_->setAbortCheck([this] {
      return (cancelCheck_ && cancelCheck_()) ||
             (config_.timeLimitSeconds > 0.0 &&
              runTimer_.seconds() > config_.timeLimitSeconds);
    });
  }
  state_ = pkg_->makeZeroState();
  pkg_->incRef(state_);
  lastStateSize_ = pkg_->size(state_);

  try {
    if (resume_) {
      // Inside the try so a budget-failed import surfaces the same way as
      // any other mid-run exhaustion (wrapped with a progress snapshot).
      applyResume();
    }
    processCircuit();
    flush();
  } catch (const dd::ComputationAborted&) {
    // Disambiguate who tripped the shared abort poll: an active
    // cancellation request wins (a cancelled job is not "timed out").
    if (cancelCheck_ && cancelCheck_()) {
      throw SimulationCancelled(makePartial());
    }
    throw SimulationTimeout(config_.timeLimitSeconds, makePartial());
  } catch (const dd::ResourceExhausted& e) {
    // Every rung of the degradation ladder failed; surface the dd-layer
    // diagnosis together with how far the run got.
    throw ResourceExhausted(e, makePartial());
  }

  stats_.wallSeconds = timer.seconds();
  stats_.finalStateNodes = pkg_->size(state_);
  stats_.dd = pkg_->stats();
  stats_.cache = pkg_->cacheStats();
  return {state_, clbits_, stats_, trace_};
}

void CircuitSimulator::recordStep(StepKind kind, std::size_t matrixNodes,
                                  double seconds) {
  if (!config_.collectTrace) {
    return;
  }
  trace_.steps.push_back(
      {trace_.steps.size(), kind, lastStateSize_, matrixNodes, seconds});
}

void CircuitSimulator::processCircuit() {
  const auto& ops = circuit_.ops();
  // Indexed (not range-for) so a resumed run can start mid-circuit, and so
  // checkpoints land exactly on top-level operation boundaries.
  for (std::size_t i = startOpIndex_; i < ops.size(); ++i) {
    processOp(*ops[i]);
    maybeCheckpoint(i + 1, 1);
  }
}

void CircuitSimulator::processOps(
    const std::vector<std::unique_ptr<ir::Operation>>& ops) {
  for (const auto& op : ops) {
    processOp(*op);
  }
}

void CircuitSimulator::processOp(const ir::Operation& op) {
  switch (op.kind()) {
    case OpKind::Standard:
    case OpKind::Oracle:
      handleUnitary(op);
      break;
    case OpKind::ClassicControlled: {
      const auto& c = static_cast<const ir::ClassicControlledOperation&>(op);
      // Any measurement defining this bit flushed the accumulator, so the
      // classical value is final by the time we get here.
      if (clbits_[c.clbit()] == c.expectedValue()) {
        handleUnitary(c.op());
      }
      break;
    }
    case OpKind::Measure: {
      flush();
      const auto& m = static_cast<const ir::MeasureOperation&>(op);
      const obs::ScopedSpan span("sim.measure", obs::cat::kSim);
      const Timer t;
      clbits_[m.clbit()] =
          pkg_->measureOneCollapsing(state_, m.qubit(), rng_) != 0;
      lastStateSize_ = pkg_->size(state_);
      recordStep(StepKind::Measure, 0, t.seconds());
      afterStep();
      break;
    }
    case OpKind::Reset: {
      flush();
      const auto& r = static_cast<const ir::ResetOperation&>(op);
      if (pkg_->measureOneCollapsing(state_, r.qubit(), rng_) != 0) {
        applyToState(pkg_->makeGateDD(ir::gateMatrix(ir::GateType::X), r.qubit()));
      }
      afterStep();
      break;
    }
    case OpKind::Barrier:
      flush();
      break;
    case OpKind::Compound:
      handleCompound(static_cast<const ir::CompoundOperation&>(op));
      break;
  }
}

void CircuitSimulator::handleUnitary(const ir::Operation& op) {
  enqueue(gateCache_.get(op), op.flatGateCount());
}

void CircuitSimulator::handleCompound(const ir::CompoundOperation& comp) {
  if (!config_.reuseRepeatedBlocks) {
    // Inline the block: its gates stream through the normal combining logic
    // (a k-operations window may even span iteration boundaries).
    for (std::size_t rep = 0; rep < comp.repetitions(); ++rep) {
      processOps(comp.body());
    }
    return;
  }
  // DD-repeating: combine the whole block into one matrix DD, then apply it
  // once per repetition. After the one-time construction no further
  // matrix-matrix multiplication is needed (paper Section IV-B).
  flush();
  MEdge block{};
  try {
    block = buildBlockDD(comp.body());
  } catch (const dd::ResourceExhausted&) {
    // The block matrix does not fit the budget. Reclaim and degrade
    // DD-repeating to plain repetition: stream the block's gates through
    // the normal combining logic instead.
    pkg_->emergencyCollect();
    ++stats_.degradationEvents;
    ++stats_.resourceRecoveries;
    for (std::size_t rep = 0; rep < comp.repetitions(); ++rep) {
      processOps(comp.body());
    }
    return;
  }
  pkg_->incRef(block);
  stats_.peakMatrixNodes = std::max(stats_.peakMatrixNodes, pkg_->size(block));
  try {
    for (std::size_t rep = 0; rep < comp.repetitions(); ++rep) {
      applyToState(block);
      stats_.appliedGates += comp.flatGateCount() / comp.repetitions();
      afterStep();
    }
  } catch (...) {
    pkg_->decRef(block);
    throw;
  }
  pkg_->decRef(block);
}

MEdge CircuitSimulator::buildBlockDD(
    const std::vector<std::unique_ptr<ir::Operation>>& body) {
  MEdge block = pkg_->makeIdent();
  pkg_->incRef(block);
  try {
    for (const auto& op : body) {
      MEdge g{};
      switch (op->kind()) {
        case OpKind::Standard:
        case OpKind::Oracle:
          g = gateCache_.get(*op);
          break;
        case OpKind::Compound: {
          const auto& inner = static_cast<const ir::CompoundOperation&>(*op);
          MEdge innerBlock = buildBlockDD(inner.body());
          pkg_->incRef(innerBlock);
          g = pkg_->makeIdent();
          try {
            for (std::size_t rep = 0; rep < inner.repetitions(); ++rep) {
              g = pkg_->multiply(innerBlock, g);
              ++stats_.mxmCount;
            }
          } catch (...) {
            pkg_->decRef(innerBlock);
            throw;
          }
          pkg_->decRef(innerBlock);
          break;
        }
        default:
          throw std::invalid_argument(
              "DD-repeating requires purely unitary blocks, found: " +
              op->toString());
      }
      MEdge combined = pkg_->multiply(g, block);
      ++stats_.mxmCount;
      pkg_->incRef(combined);
      pkg_->decRef(block);
      block = combined;
      pkg_->maybeGarbageCollect();
    }
  } catch (...) {
    // Drop the root so an abandoned partial product is reclaimable by the
    // next (emergency) collection.
    pkg_->decRef(block);
    throw;
  }
  pkg_->decRef(block);  // caller re-roots
  return block;
}

void CircuitSimulator::enqueue(const MEdge& gateDD, std::size_t gateCount) {
  stats_.appliedGates += gateCount;
  if (config_.schedule == Schedule::Sequential) {
    applyToState(gateDD);
    afterStep();
    return;
  }
  // Degradation rung: while a pressure cooldown is active, run in the
  // paper's sequential mode (Eq. 1) — one MxV per operation, no accumulator
  // to blow up.
  if (sequentialCooldown_ > 0) {
    --sequentialCooldown_;
    ++stats_.sequentialFallbackOps;
    applyToState(gateDD);
    afterStep();
    return;
  }

  const obs::ScopedSpan span("sim.combine", obs::cat::kSim);
  const Timer t;
  if (!accPending_) {
    acc_ = gateDD;
    pkg_->incRef(acc_);
    accPending_ = true;
    accCount_ = 1;
    accGates_ = gateCount;
  } else {
    // state' = g * (acc * v) = (g * acc) * v: new factors multiply from the
    // left.
    MEdge combined{};
    try {
      combined = pkg_->multiply(gateDD, acc_);
    } catch (const dd::ResourceExhausted&) {
      // Accumulator explosion hit the hard rung mid-MxM. Reclaim, flush the
      // product built so far, apply the new gate directly, and cool down in
      // sequential mode.
      obs::traceInstant("sim.rung.collect-retry", obs::cat::kSim);
      pkg_->emergencyCollect();
      ++stats_.degradationEvents;
      ++stats_.pressureFlushes;
      pressureSignaled_ = false;
      flush();
      applyToState(gateDD);
      ++stats_.resourceRecoveries;
      enterCooldown();
      afterStep();
      return;
    }
    ++stats_.mxmCount;
    pkg_->incRef(combined);
    pkg_->decRef(acc_);
    acc_ = combined;
    ++accCount_;
    accGates_ += gateCount;
  }

  const std::size_t accSize = pkg_->size(acc_);
  stats_.peakMatrixNodes = std::max(stats_.peakMatrixNodes, accSize);
  recordStep(StepKind::CombineMatrix, accSize, t.seconds());

  // Soft rung: pressure observed while (or since) accumulating. Flush the
  // accumulator at this quiescent point and fall back to sequential
  // application for the cooldown window.
  if (pressureObserved()) {
    obs::traceInstant("sim.rung.pressure-flush", obs::cat::kSim);
    ++stats_.degradationEvents;
    ++stats_.pressureFlushes;
    flush();
    enterCooldown();
    return;
  }

  bool full = false;
  switch (config_.schedule) {
    case Schedule::KOperations:
      full = accCount_ >= config_.k;
      break;
    case Schedule::MaxSize:
      full = accSize > config_.maxSize;
      break;
    case Schedule::Adaptive:
      // Combine while the product stays small relative to the state: once
      // the matrix DD rivals the state DD, applying it costs as much as the
      // MxV we are trying to avoid.
      full = static_cast<double>(accSize) >
             config_.adaptiveRatio * static_cast<double>(lastStateSize_);
      break;
    case Schedule::Sequential:
      break;  // unreachable (handled above)
  }
  if (full) {
    flush();
  } else {
    afterStep();
  }
}

void CircuitSimulator::applyToState(const MEdge& m) {
  const obs::ScopedSpan span("sim.apply", obs::cat::kSim);
  const Timer t;
  VEdge next{};
  try {
    next = pkg_->multiply(m, state_);
  } catch (const dd::ResourceExhausted&) {
    // Hard rung mid-MxV: reclaim everything reclaimable, shrink the state
    // if approximation is allowed, then retry once. A second failure
    // propagates to run(), which wraps it with the progress snapshot.
    obs::traceInstant("sim.rung.collect-retry", obs::cat::kSim);
    pkg_->emergencyCollect();
    ++stats_.degradationEvents;
    if (config_.approximateFidelity < 1.0) {
      forcedApproximation();
    }
    next = pkg_->multiply(m, state_);
    ++stats_.resourceRecoveries;
  }
  ++stats_.mxvCount;
  pkg_->incRef(next);
  pkg_->decRef(state_);
  state_ = next;
  lastStateSize_ = pkg_->size(state_);

  // Approximate-while-simulating: trade bounded fidelity for a smaller
  // state DD (the size of which is exactly what every further step pays
  // for, per Section III of the paper).
  if (config_.approximateFidelity < 1.0 &&
      lastStateSize_ > kApproximateThreshold) {
    const auto approx =
        dd::approximate(*pkg_, state_, config_.approximateFidelity);
    if (approx.removedEdges > 0) {
      pkg_->incRef(approx.state);
      pkg_->decRef(state_);
      state_ = approx.state;
      stats_.approxFidelity *= approx.fidelity;
      ++stats_.approxRounds;
      lastStateSize_ = approx.nodesAfter;
    }
  }

  // Soft rung on the state DD itself: if pressure was observed and lossy
  // compression is allowed, prune now rather than carrying an oversized
  // state into the next multiplication.
  if (config_.approximateFidelity < 1.0 && pressureObserved()) {
    ++stats_.degradationEvents;
    forcedApproximation();
  }

  stats_.peakStateNodes = std::max(stats_.peakStateNodes, lastStateSize_);
  recordStep(StepKind::ApplyToState,
             config_.collectTrace ? pkg_->size(m) : 0, t.seconds());
}

void CircuitSimulator::flush() {
  if (!accPending_) {
    return;
  }
  applyToState(acc_);
  pkg_->decRef(acc_);
  accPending_ = false;
  accCount_ = 0;
  accGates_ = 0;
  afterStep();
}

void CircuitSimulator::afterStep() {
  pkg_->maybeGarbageCollect();
  if (cancelCheck_ && cancelCheck_()) {
    throw SimulationCancelled(makePartial());
  }
  if (config_.timeLimitSeconds > 0.0 &&
      runTimer_.seconds() > config_.timeLimitSeconds) {
    throw SimulationTimeout(config_.timeLimitSeconds, makePartial());
  }
}

void CircuitSimulator::enterCooldown() {
  obs::traceInstant("sim.rung.sequential-fallback", obs::cat::kSim);
  sequentialCooldown_ = kDegradeCooldownOps;
}

/// Prune the state DD down to the configured per-step fidelity, counting
/// the round as pressure-forced.
void CircuitSimulator::forcedApproximation() {
  const obs::ScopedSpan span("sim.forced-approximation", obs::cat::kSim);
  const auto approx =
      dd::approximate(*pkg_, state_, config_.approximateFidelity);
  if (approx.removedEdges > 0) {
    pkg_->incRef(approx.state);
    pkg_->decRef(state_);
    state_ = approx.state;
    stats_.approxFidelity *= approx.fidelity;
    ++stats_.approxRounds;
    ++stats_.pressureApproximations;
    lastStateSize_ = approx.nodesAfter;
  }
}

/// Consume the pressure flag: true if the governor signaled pressure since
/// the last check, or current usage still sits above the soft threshold.
bool CircuitSimulator::pressureObserved() {
  const bool signaled = std::exchange(pressureSignaled_, false);
  return signaled ||
         pkg_->resourcePressure() != dd::ResourcePressure::None;
}

std::uint64_t CircuitSimulator::circuitIdentityHash() {
  if (!circuitHash_) {
    circuitHash_ = ir::contentHash(circuit_);
  }
  return *circuitHash_;
}

std::uint64_t CircuitSimulator::strategyIdentityHash() const {
  StrategyConfig c = config_;
  // timeLimitSeconds is outcome-neutral for resume purposes: it decides
  // whether the run finishes, never what it measures. The serve layer
  // re-derives a shrinking limit from the job deadline on every retry
  // attempt, so hashing it would force every deadline-bound retry to
  // restart from scratch instead of resuming.
  c.timeLimitSeconds = 0.0;
  return c.contentHash();
}

void CircuitSimulator::resumeFrom(const Checkpoint& checkpoint) {
  if (ran_) {
    throw std::logic_error(
        "CircuitSimulator::resumeFrom must be called before run()");
  }
  if (checkpoint.circuitHash != circuitIdentityHash()) {
    throw CheckpointError("checkpoint belongs to a different circuit");
  }
  if (checkpoint.strategyHash != strategyIdentityHash()) {
    throw CheckpointError("checkpoint belongs to a different strategy");
  }
  if (checkpoint.seed != seed_) {
    throw CheckpointError("checkpoint belongs to a different seed");
  }
  if (checkpoint.nextOpIndex > circuit_.ops().size()) {
    throw CheckpointError("checkpoint op index past the end of the circuit");
  }
  if (checkpoint.classicalBits.size() != clbits_.size()) {
    throw CheckpointError(
        "checkpoint classical register width does not match the circuit");
  }
  resume_ = checkpoint;
}

void CircuitSimulator::applyResume() {
  const Checkpoint& ck = *resume_;
  // Restore the RNG stream position first: mt19937_64's operator>> sets
  // failbit on malformed input without touching the engine, so a bad blob
  // is rejected before any package state changes hands.
  std::istringstream is(ck.rngState);
  is >> rng_;
  if (is.fail()) {
    throw CheckpointError("malformed RNG state in checkpoint");
  }

  const VEdge imported = dd::importDD(*pkg_, ck.state);
  pkg_->incRef(imported);
  pkg_->decRef(state_);
  state_ = imported;
  lastStateSize_ = pkg_->size(state_);

  clbits_ = ck.classicalBits;
  stats_ = ck.stats;
  stats_.migratedNodes += ck.state.nodeCount();
  if (ck.accPending) {
    acc_ = dd::importDD(*pkg_, ck.acc);
    pkg_->incRef(acc_);
    accPending_ = true;
    accCount_ = static_cast<std::size_t>(ck.accCount);
    accGates_ = ck.accGates;
    stats_.migratedNodes += ck.acc.nodeCount();
  }
  sequentialCooldown_ = static_cast<std::size_t>(ck.sequentialCooldown);
  startOpIndex_ = static_cast<std::size_t>(ck.nextOpIndex);
  ++stats_.resumedFromCheckpoint;
  obs::traceInstant("sim.resume", obs::cat::kSim, startOpIndex_);
}

void CircuitSimulator::maybeCheckpoint(std::size_t nextOp,
                                       std::size_t opsDelta) {
  if (config_.checkpointIntervalOps == 0 || !ckptSink_) {
    return;
  }
  opsSinceCkpt_ += opsDelta;
  if (opsSinceCkpt_ < config_.checkpointIntervalOps) {
    return;
  }
  opsSinceCkpt_ = 0;
  if (nextOp >= circuit_.ops().size()) {
    return;  // nothing left to resume into — the run is about to finish
  }
  takeCheckpoint(nextOp);
}

void CircuitSimulator::takeCheckpoint(std::size_t nextOp) {
  const obs::ScopedSpan span("sim.checkpoint", obs::cat::kSim, nextOp);
  Checkpoint ck;
  ck.circuitHash = circuitIdentityHash();
  ck.strategyHash = strategyIdentityHash();
  ck.seed = seed_;
  ck.nextOpIndex = nextOp;
  std::ostringstream os;
  os << rng_;
  ck.rngState = os.str();
  ck.classicalBits = clbits_;
  ck.state = dd::exportDD(*pkg_, state_);
  ck.accPending = accPending_;
  if (accPending_) {
    ck.acc = dd::exportDD(*pkg_, acc_);
  }
  ck.accCount = accCount_;
  ck.accGates = accGates_;
  ck.sequentialCooldown = sequentialCooldown_;
  ++stats_.checkpointsTaken;
  ck.stats = stats_;
  ckptSink_(ck);
}

PartialResult CircuitSimulator::makePartial() {
  PartialResult p;
  p.opsCompleted =
      stats_.appliedGates >= accGates_ ? stats_.appliedGates - accGates_ : 0;
  p.peakLiveNodes = std::max(
      {stats_.peakStateNodes, stats_.peakMatrixNodes, pkg_->liveNodes()});
  p.elapsedSeconds = runTimer_.seconds();
  p.stats = stats_;
  p.stats.wallSeconds = p.elapsedSeconds;
  p.stats.finalStateNodes = pkg_->size(state_);
  p.stats.dd = pkg_->stats();
  p.stats.cache = pkg_->cacheStats();
  return p;
}

DetachedResult simulate(const ir::Circuit& circuit, StrategyConfig config,
                        std::uint64_t seed) {
  CircuitSimulator sim(circuit, config, seed);
  SimulationResult result = sim.run();
  return {std::move(result.classicalBits), result.stats};
}

std::uint64_t deriveSeed(std::uint64_t base, std::uint64_t stream) noexcept {
  // SplitMix64 over golden-ratio spaced stream offsets (same finalizer as
  // ir::hashCombine). Documented contract — see simulator.hpp.
  std::uint64_t z = base ^ (stream * 0x9e3779b97f4a7c15ULL +
                            0x9e3779b97f4a7c15ULL);
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 27;
  z *= 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z;
}

}  // namespace ddsim::sim
