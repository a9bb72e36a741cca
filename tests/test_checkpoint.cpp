/// Checkpoint/resume durability tests. The core guarantee (documented on
/// sim/checkpoint.hpp): an interrupted-then-resumed run produces
/// measurement outcomes bit-identical to the uninterrupted run, across
/// combination schedules.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "ir/circuit.hpp"
#include "sim/checkpoint.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "test_util.hpp"
#include "wire/wire.hpp"

namespace ddsim::sim {
namespace {

/// A circuit that exercises every resume-relevant code path: unitary
/// streams (combinable), mid-circuit measurements and a
/// reset (RNG draws + classic bits mid-run), and a final full measurement.
ir::Circuit makeMeasuredCircuit(std::uint64_t seed) {
  constexpr std::size_t kQubits = 4;
  ir::Circuit c(kQubits, kQubits, "ckpt_" + std::to_string(seed));
  c.appendCircuit(test::randomCircuit(kQubits, 25, seed));
  c.measure(0, 0);
  c.reset(1);
  c.appendCircuit(test::randomCircuit(kQubits, 25, seed + 1));
  c.measure(2, 1);
  c.appendCircuit(test::randomCircuit(kQubits, 20, seed + 2));
  c.measureAll();
  return c;
}

/// Run \p circuit with checkpointing armed, capturing every snapshot. The
/// sink stores serialized blobs — exactly what a durable caller would keep.
struct CapturedRun {
  SimulationResult result;
  std::vector<std::vector<std::uint8_t>> blobs;
};

CapturedRun runCapturing(const ir::Circuit& circuit, StrategyConfig config,
                         std::uint64_t seed, std::size_t interval) {
  config.checkpointIntervalOps = interval;
  CapturedRun out;
  CircuitSimulator simulator(circuit, config, seed);
  simulator.setCheckpointSink(
      [&](const Checkpoint& ck) { out.blobs.push_back(ck.serialize()); });
  out.result = simulator.run();
  return out;
}

TEST(Checkpoint, SerializeRoundTripPreservesEveryField) {
  const auto circuit = makeMeasuredCircuit(5);
  StrategyConfig config;
  config.schedule = Schedule::KOperations;
  config.k = 3;
  const CapturedRun run = runCapturing(circuit, config, 11, 4);
  ASSERT_FALSE(run.blobs.empty());

  for (const auto& blob : run.blobs) {
    const Checkpoint ck = Checkpoint::deserialize(blob);
    const Checkpoint again = Checkpoint::deserialize(ck.serialize());
    EXPECT_EQ(again.circuitHash, ck.circuitHash);
    EXPECT_EQ(again.strategyHash, ck.strategyHash);
    EXPECT_EQ(again.seed, ck.seed);
    EXPECT_EQ(again.nextOpIndex, ck.nextOpIndex);
    EXPECT_EQ(again.rngState, ck.rngState);
    EXPECT_EQ(again.classicalBits, ck.classicalBits);
    EXPECT_EQ(again.state, ck.state);
    EXPECT_EQ(again.accPending, ck.accPending);
    EXPECT_EQ(again.acc, ck.acc);
    EXPECT_EQ(again.accCount, ck.accCount);
    EXPECT_EQ(again.accGates, ck.accGates);
    EXPECT_EQ(again.sequentialCooldown, ck.sequentialCooldown);
    EXPECT_EQ(again.stats.appliedGates, ck.stats.appliedGates);
    EXPECT_EQ(again.stats.mxvCount, ck.stats.mxvCount);
    EXPECT_EQ(again.stats.mxmCount, ck.stats.mxmCount);
    EXPECT_EQ(again.stats.checkpointsTaken, ck.stats.checkpointsTaken);
  }
}

TEST(Checkpoint, PreviousVersionBlobIsRejected) {
  const auto circuit = makeMeasuredCircuit(7);
  const CapturedRun run = runCapturing(circuit, {}, 3, 10);
  ASSERT_FALSE(run.blobs.empty());
  // A checksum-valid blob claiming the version-2 layout (nested DD blobs
  // behind their own headers). It must be refused, not decoded with
  // shifted fields.
  const std::vector<std::uint8_t>& blob = run.blobs.front();
  const std::uint32_t magic = wire::peekU32(blob.data());
  ASSERT_EQ(wire::peekU16(blob.data() + 4), 3U);
  const wire::Opened opened = wire::open(blob, magic, 3);
  const std::vector<std::uint8_t> v2 =
      wire::seal(magic, 2, opened.kind, opened.payload);
  try {
    (void)Checkpoint::deserialize(v2);
    FAIL() << "version-2 checkpoint was accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version 2"),
              std::string::npos)
        << e.what();
  }
}

TEST(Checkpoint, ResumeRejectsIdentityMismatch) {
  const auto circuit = makeMeasuredCircuit(9);
  StrategyConfig config;
  config.schedule = Schedule::KOperations;
  config.k = 2;
  const CapturedRun run = runCapturing(circuit, config, 21, 6);
  ASSERT_FALSE(run.blobs.empty());
  const Checkpoint ck = Checkpoint::deserialize(run.blobs.front());

  // Wrong circuit.
  const auto other = makeMeasuredCircuit(10);
  {
    CircuitSimulator simulator(other, config, 21);
    EXPECT_THROW(simulator.resumeFrom(ck), CheckpointError);
  }
  // Wrong seed.
  {
    CircuitSimulator simulator(circuit, config, 22);
    EXPECT_THROW(simulator.resumeFrom(ck), CheckpointError);
  }
  // Wrong strategy (different k changes the strategy identity).
  {
    StrategyConfig otherConfig = config;
    otherConfig.k = 5;
    CircuitSimulator simulator(circuit, otherConfig, 21);
    EXPECT_THROW(simulator.resumeFrom(ck), CheckpointError);
  }
  // A different time limit does NOT change the identity: retries rebind
  // the remaining deadline per attempt and must still resume.
  {
    StrategyConfig rebound = config;
    rebound.timeLimitSeconds = 3600.0;
    CircuitSimulator simulator(circuit, rebound, 21);
    EXPECT_NO_THROW(simulator.resumeFrom(ck));
  }
  // Tampered op cursor past the end of the circuit.
  {
    Checkpoint bad = ck;
    bad.nextOpIndex = circuit.ops().size() + 1;
    CircuitSimulator simulator(circuit, config, 21);
    EXPECT_THROW(simulator.resumeFrom(bad), CheckpointError);
  }
  // Malformed RNG stream position.
  {
    Checkpoint bad = ck;
    bad.rngState = "not a generator state";
    CircuitSimulator simulator(circuit, config, 21);
    simulator.resumeFrom(bad);
    EXPECT_THROW((void)simulator.run(), CheckpointError);
  }
}

TEST(Checkpoint, ResumeAfterRunIsALogicError) {
  const auto circuit = makeMeasuredCircuit(13);
  const CapturedRun run = runCapturing(circuit, {}, 3, 8);
  ASSERT_FALSE(run.blobs.empty());
  const Checkpoint ck = Checkpoint::deserialize(run.blobs.front());

  CircuitSimulator simulator(circuit, {}, 3);
  (void)simulator.run();
  EXPECT_THROW(simulator.resumeFrom(ck), std::logic_error);
}

TEST(Checkpoint, SinkFiresAtQuiescentBoundariesOnly) {
  const auto circuit = makeMeasuredCircuit(15);
  constexpr std::size_t kInterval = 5;
  const CapturedRun run = runCapturing(circuit, {}, 3, kInterval);
  ASSERT_FALSE(run.blobs.empty());
  EXPECT_EQ(run.result.stats.checkpointsTaken, run.blobs.size());

  std::uint64_t lastNext = 0;
  for (const auto& blob : run.blobs) {
    const Checkpoint ck = Checkpoint::deserialize(blob);
    // Strictly advancing, never past the end (a checkpoint at nextOpIndex
    // == ops.size() would be pointless — the run is already done).
    EXPECT_GT(ck.nextOpIndex, lastNext);
    EXPECT_LT(ck.nextOpIndex, circuit.ops().size());
    lastNext = ck.nextOpIndex;
  }

  // Disarmed interval means no snapshots and no sink calls.
  const CapturedRun off = runCapturing(circuit, {}, 3, 0);
  EXPECT_TRUE(off.blobs.empty());
  EXPECT_EQ(off.result.stats.checkpointsTaken, 0U);
}

/// The determinism matrix over schedules. For each configuration, capture
/// a mid-run checkpoint, resume it in a fresh simulator, and demand
/// bit-identical classical outcomes.
TEST(Checkpoint, ResumedRunsAreBitIdenticalAcrossConfigurations) {
  const auto circuit = makeMeasuredCircuit(17);
  constexpr std::uint64_t kSeed = 99;

  std::vector<StrategyConfig> configs;
  for (const Schedule schedule :
       {Schedule::Sequential, Schedule::KOperations, Schedule::MaxSize,
        Schedule::Adaptive}) {
    StrategyConfig c;
    c.schedule = schedule;
    c.k = 3;
    c.maxSize = 256;
    configs.push_back(c);
  }

  for (const StrategyConfig& config : configs) {
    const std::string label = scheduleName(config.schedule);

    // Uninterrupted baseline (checkpointing off — the sink must be a pure
    // observer, so the captured run below must match it too).
    const DetachedResult baseline = simulate(circuit, config, kSeed);

    const CapturedRun captured = runCapturing(circuit, config, kSeed, 4);
    ASSERT_FALSE(captured.blobs.empty()) << label;
    EXPECT_EQ(captured.result.classicalBits, baseline.classicalBits)
        << label << ": the checkpoint sink perturbed the run";

    // Resume from a snapshot near the middle of the run — the interesting
    // case: state, RNG position and possibly a pending accumulator all
    // carry over.
    const auto& blob = captured.blobs[captured.blobs.size() / 2];
    const Checkpoint ck = Checkpoint::deserialize(blob);
    CircuitSimulator resumed(circuit, config, kSeed);
    resumed.resumeFrom(ck);
    const SimulationResult result = resumed.run();

    EXPECT_EQ(result.classicalBits, baseline.classicalBits)
        << label << ": resumed outcomes diverged from the uninterrupted run";
    EXPECT_EQ(result.stats.resumedFromCheckpoint, 1U) << label;
    EXPECT_EQ(result.stats.appliedGates, baseline.stats.appliedGates)
        << label << ": carried statistics missed gates";
  }
}

TEST(Checkpoint, ResumesMidAccumulator) {
  // With KOperations k=5 and a 1-op interval, some snapshot lands between
  // flushes — accumulated gates not yet applied to the state. Resuming
  // from exactly such a snapshot must still match the baseline.
  const auto circuit = makeMeasuredCircuit(19);
  StrategyConfig config;
  config.schedule = Schedule::KOperations;
  config.k = 5;
  constexpr std::uint64_t kSeed = 7;

  const DetachedResult baseline = simulate(circuit, config, kSeed);
  const CapturedRun captured = runCapturing(circuit, config, kSeed, 1);

  bool sawPending = false;
  for (const auto& blob : captured.blobs) {
    const Checkpoint ck = Checkpoint::deserialize(blob);
    if (!ck.accPending) {
      continue;
    }
    sawPending = true;
    EXPECT_GT(ck.accGates, 0U);
    CircuitSimulator resumed(circuit, config, kSeed);
    resumed.resumeFrom(ck);
    const SimulationResult result = resumed.run();
    EXPECT_EQ(result.classicalBits, baseline.classicalBits)
        << "resume at op " << ck.nextOpIndex << " with " << ck.accGates
        << " pending accumulator gates diverged";
  }
  EXPECT_TRUE(sawPending)
      << "no checkpoint captured a pending accumulator — interval/k "
         "combination no longer exercises the mid-accumulator path";
}

TEST(Checkpoint, StatsEncodingRoundTrips) {
  SimulationStats s;
  s.appliedGates = 123;
  s.mxvCount = 45;
  s.mxmCount = 67;
  s.peakStateNodes = 89;
  s.approxFidelity = 0.875;
  s.degradationEvents = 3;
  s.migratedNodes = 1000;
  s.checkpointsTaken = 4;
  s.resumedFromCheckpoint = 1;

  wire::WireWriter w;
  statsFields(w, s);
  wire::WireReader r(w.out);
  SimulationStats back;
  statsFields(r, back);
  EXPECT_TRUE(r.atEnd());
  EXPECT_EQ(back.appliedGates, s.appliedGates);
  EXPECT_EQ(back.mxvCount, s.mxvCount);
  EXPECT_EQ(back.mxmCount, s.mxmCount);
  EXPECT_EQ(back.peakStateNodes, s.peakStateNodes);
  EXPECT_DOUBLE_EQ(back.approxFidelity, s.approxFidelity);
  EXPECT_EQ(back.degradationEvents, s.degradationEvents);
  EXPECT_EQ(back.migratedNodes, s.migratedNodes);
  EXPECT_EQ(back.checkpointsTaken, s.checkpointsTaken);
  EXPECT_EQ(back.resumedFromCheckpoint, s.resumedFromCheckpoint);

  // Truncated stats block is rejected, not misread.
  wire::WireReader cut(w.out.data(), w.out.size() - 1);
  SimulationStats partial;
  EXPECT_THROW(statsFields(cut, partial), wire::WireError);
}

}  // namespace
}  // namespace ddsim::sim
