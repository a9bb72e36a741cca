#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <numbers>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "algo/grover.hpp"
#include "algo/supremacy.hpp"
#include "baseline/statevector.hpp"
#include "ir/hash.hpp"
#include "ir/transforms.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace ddsim::sim {
namespace {

/// DD simulation result vs. the dense reference, for a measurement-free
/// circuit (exact amplitude comparison).
void expectMatchesDense(const ir::Circuit& circuit, StrategyConfig config) {
  CircuitSimulator sim(circuit, config);
  const auto result = sim.run();
  const auto dense = baseline::runOnStateVector(circuit);
  const auto got = sim.package().getVector(result.finalState);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].r, dense.state.amplitudes()[i].real(), 1e-8)
        << config.toString() << " amp " << i;
    EXPECT_NEAR(got[i].i, dense.state.amplitudes()[i].imag(), 1e-8);
  }
}

TEST(Simulator, BellStateSequential) {
  ir::Circuit circuit(2);
  circuit.h(0);
  circuit.cx(0, 1);
  expectMatchesDense(circuit, StrategyConfig::sequential());
}

TEST(Simulator, PaperExample1) {
  // Fig. 1 of the paper: |01>, H on the most significant qubit, then CX.
  // In our encoding the paper's q0 is the top qubit (index 1).
  ir::Circuit circuit(2);
  circuit.x(0);      // paper's q1 = |1>
  circuit.h(1);      // H on q0
  circuit.cx(1, 0);  // CX with control q0
  CircuitSimulator sim(circuit);
  const auto result = sim.run();
  const auto vec = sim.package().getVector(result.finalState);
  // Expected final state (1/sqrt2)(|01> + |10>) in paper ordering, which is
  // amplitude on index 1 (q0=0,q1=1) and index 2 (q0=1,q1=0).
  const double s = std::numbers::sqrt2 / 2;
  EXPECT_NEAR(vec[1].r, s, 1e-12);
  EXPECT_NEAR(vec[2].r, s, 1e-12);
  EXPECT_NEAR(vec[0].mag2() + vec[3].mag2(), 0.0, 1e-12);
}

class StrategySweepTest : public ::testing::TestWithParam<StrategyConfig> {};

TEST_P(StrategySweepTest, RandomCircuitsMatchDense) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const auto circuit = test::randomCircuit(5, 60, seed);
    expectMatchesDense(circuit, GetParam());
  }
}

TEST_P(StrategySweepTest, AllStrategiesAgreeWithSequential) {
  const auto circuit = test::randomCircuit(6, 80, 42);
  CircuitSimulator ref(circuit, StrategyConfig::sequential());
  const auto refResult = ref.run();
  const auto refVec = ref.package().getVector(refResult.finalState);

  CircuitSimulator sim(circuit, GetParam());
  const auto result = sim.run();
  const auto vec = sim.package().getVector(result.finalState);
  for (std::size_t i = 0; i < vec.size(); ++i) {
    EXPECT_NEAR(vec[i].r, refVec[i].r, 1e-8);
    EXPECT_NEAR(vec[i].i, refVec[i].i, 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, StrategySweepTest,
    ::testing::Values(StrategyConfig::sequential(),
                      StrategyConfig::kOperations(1),
                      StrategyConfig::kOperations(2),
                      StrategyConfig::kOperations(4),
                      StrategyConfig::kOperations(16),
                      StrategyConfig::kOperations(1000),  // everything combined
                      StrategyConfig::maxSizeStrategy(2),
                      StrategyConfig::maxSizeStrategy(64),
                      StrategyConfig::maxSizeStrategy(100000),
                      StrategyConfig::adaptive(0.05),
                      StrategyConfig::adaptive(0.5),
                      StrategyConfig::adaptive(10.0)),
    [](const auto& paramInfo) {
      std::string name = paramInfo.param.toString();
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) {
          c = '_';
        }
      }
      return name;
    });

TEST(Simulator, SequentialAppliesOneMxVPerGate) {
  const auto circuit = test::randomCircuit(4, 25, 7);
  const std::size_t swaps = [&] {
    std::size_t n = 0;
    for (const auto& op : circuit.ops()) {
      const auto& s = static_cast<const ir::StandardOperation&>(*op);
      n += s.type() == ir::GateType::Swap ? 1U : 0U;
    }
    return n;
  }();
  const auto result = simulate(circuit, StrategyConfig::sequential());
  EXPECT_EQ(result.stats.mxvCount, circuit.flatGateCount());
  EXPECT_EQ(result.stats.appliedGates, circuit.flatGateCount());
  EXPECT_EQ(result.stats.mxmCount, 0U);
  (void)swaps;
}

TEST(Simulator, KOperationsReducesMxVCount) {
  const auto circuit = test::randomCircuit(4, 40, 8);
  const auto seq = simulate(circuit, StrategyConfig::sequential());
  const auto k4 = simulate(circuit, StrategyConfig::kOperations(4));
  EXPECT_EQ(k4.stats.mxvCount, (seq.stats.mxvCount + 3) / 4);
  EXPECT_EQ(k4.stats.mxmCount, seq.stats.mxvCount - k4.stats.mxvCount);
}

TEST(Simulator, MaxSizeRespectsNodeBudget) {
  const auto circuit = test::randomCircuit(6, 60, 9);
  const auto result = simulate(circuit, StrategyConfig::maxSizeStrategy(32));
  EXPECT_GT(result.stats.mxmCount, 0U);
  EXPECT_LT(result.stats.mxvCount, circuit.flatGateCount());
}

TEST(Simulator, MeasurementFlushesAndRecords) {
  ir::Circuit circuit(2, 2);
  circuit.h(0);
  circuit.cx(0, 1);
  circuit.measure(0, 0);
  circuit.measure(1, 1);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto result = simulate(circuit, StrategyConfig::kOperations(10), seed);
    // Bell state: both bits agree.
    EXPECT_EQ(result.classicalBits[0], result.classicalBits[1]);
  }
}

TEST(Simulator, ClassicControlledGateRespectsBit) {
  // Teleportation-style conditional correction: measure, then conditionally
  // flip the second qubit so it always ends up |1>.
  ir::Circuit circuit(2, 1);
  circuit.h(0);
  circuit.measure(0, 0);
  circuit.classicControlled(ir::GateType::X, 1, {}, {}, 0, false);
  circuit.cx(0, 1);  // if bit was 1, CX copies it
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    CircuitSimulator sim(circuit, StrategyConfig::sequential(), seed);
    const auto result = sim.run();
    EXPECT_NEAR(sim.package().probabilityOfOne(result.finalState, 1), 1.0, 1e-9);
  }
}

TEST(Simulator, ResetReturnsQubitToZero) {
  ir::Circuit circuit(1, 1);
  circuit.h(0);
  circuit.reset(0);
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    CircuitSimulator sim(circuit, StrategyConfig::sequential(), seed);
    const auto result = sim.run();
    EXPECT_NEAR(sim.package().probabilityOfOne(result.finalState, 0), 0.0, 1e-9);
  }
}

TEST(Simulator, BarrierFlushesAccumulator) {
  ir::Circuit circuit(2);
  circuit.h(0);
  circuit.barrier();
  circuit.h(1);
  const auto result = simulate(circuit, StrategyConfig::kOperations(10));
  // Barrier forces a flush after the first gate; second flush at the end.
  EXPECT_EQ(result.stats.mxvCount, 2U);
}

TEST(Simulator, CompoundInlinedByDefault) {
  ir::Circuit circuit(3);
  ir::Circuit block(3);
  block.h(0);
  block.cx(0, 1);
  circuit.appendRepeated(std::move(block), 5, "rep");
  expectMatchesDense(circuit, StrategyConfig::sequential());
  const auto result = simulate(circuit, StrategyConfig::sequential());
  EXPECT_EQ(result.stats.appliedGates, 10U);
}

TEST(Simulator, DDRepeatingMatchesInlined) {
  ir::Circuit circuit(4);
  circuit.h(0);
  circuit.h(1);
  ir::Circuit block(4);
  block.cx(0, 2);
  block.t(2);
  block.cx(1, 3);
  block.h(3);
  circuit.appendRepeated(std::move(block), 6, "rep");

  StrategyConfig repeating = StrategyConfig::sequential();
  repeating.reuseRepeatedBlocks = true;
  expectMatchesDense(circuit, repeating);

  // One MxM per block gate (once), then one MxV per repetition (+2 H).
  const auto result = simulate(circuit, repeating);
  EXPECT_EQ(result.stats.mxvCount, 2U + 6U);
  EXPECT_EQ(result.stats.mxmCount, 4U);
}

TEST(Simulator, DDRepeatingRejectsMeasurementInBlock) {
  ir::Circuit circuit(2, 1);
  ir::Circuit block(2, 1);
  block.h(0);
  block.measure(0, 0);
  circuit.appendRepeated(std::move(block), 2);
  StrategyConfig repeating = StrategyConfig::sequential();
  repeating.reuseRepeatedBlocks = true;
  CircuitSimulator sim(circuit, repeating);
  EXPECT_THROW(sim.run(), std::invalid_argument);
}

TEST(Simulator, OracleMatchesGateDecomposition) {
  // Increment oracle vs. its textbook gate realization on 3 qubits.
  ir::Circuit withOracle(3);
  withOracle.h(0);
  withOracle.h(1);
  withOracle.t(1);
  withOracle.oracle("inc", 3, [](std::uint64_t x) { return (x + 1) % 8; });

  ir::Circuit withGates(3);
  withGates.h(0);
  withGates.h(1);
  withGates.t(1);
  withGates.mcx({ir::Control{0}, ir::Control{1}}, 2);
  withGates.cx(0, 1);
  withGates.x(0);

  CircuitSimulator a(withOracle);
  CircuitSimulator b(withGates);
  const auto ra = a.run();
  const auto rb = b.run();
  const auto va = a.package().getVector(ra.finalState);
  const auto vb = b.package().getVector(rb.finalState);
  for (std::size_t i = 0; i < va.size(); ++i) {
    EXPECT_NEAR(va[i].r, vb[i].r, 1e-10);
    EXPECT_NEAR(va[i].i, vb[i].i, 1e-10);
  }
}

// --------------------------------------------------------- gate-DD cache

void expectSameCounters(const SimulationStats& a, const SimulationStats& b,
                        const std::string& label) {
  EXPECT_EQ(a.mxvCount, b.mxvCount) << label;
  EXPECT_EQ(a.mxmCount, b.mxmCount) << label;
  EXPECT_EQ(a.peakStateNodes, b.peakStateNodes) << label;
  EXPECT_EQ(a.peakMatrixNodes, b.peakMatrixNodes) << label;
  EXPECT_EQ(a.finalStateNodes, b.finalStateNodes) << label;
  const dd::PackageStats& p = a.dd;
  const dd::PackageStats& q = b.dd;
  EXPECT_EQ(p.matrixVectorMultiplications, q.matrixVectorMultiplications) << label;
  EXPECT_EQ(p.matrixMatrixMultiplications, q.matrixMatrixMultiplications) << label;
  EXPECT_EQ(p.recursiveMulVCalls, q.recursiveMulVCalls) << label;
  EXPECT_EQ(p.recursiveMulMCalls, q.recursiveMulMCalls) << label;
  EXPECT_EQ(p.recursiveAddCalls, q.recursiveAddCalls) << label;
  EXPECT_EQ(p.identitySkipsMV, q.identitySkipsMV) << label;
  EXPECT_EQ(p.identitySkipsMM, q.identitySkipsMM) << label;
  EXPECT_EQ(p.diagonalFastPathsMM, q.diagonalFastPathsMM) << label;
  EXPECT_EQ(p.garbageCollections, q.garbageCollections) << label;
  EXPECT_EQ(p.nodesCollected, q.nodesCollected) << label;
  EXPECT_EQ(p.peakLiveNodes, q.peakLiveNodes) << label;
  EXPECT_EQ(p.emergencyCollections, q.emergencyCollections) << label;
  EXPECT_EQ(p.bytesReleased, q.bytesReleased) << label;
  const dd::CacheStats& c = a.cache;
  const dd::CacheStats& d = b.cache;
  EXPECT_EQ(c.mulMVHits, d.mulMVHits) << label;
  EXPECT_EQ(c.mulMVMisses, d.mulMVMisses) << label;
  EXPECT_EQ(c.mulMMHits, d.mulMMHits) << label;
  EXPECT_EQ(c.mulMMMisses, d.mulMMMisses) << label;
  EXPECT_EQ(c.addHits, d.addHits) << label;
  EXPECT_EQ(c.addMisses, d.addMisses) << label;
  EXPECT_EQ(c.uniqueTableHits, d.uniqueTableHits) << label;
  EXPECT_EQ(c.uniqueTableMisses, d.uniqueTableMisses) << label;
  EXPECT_EQ(c.complexTableHits, d.complexTableHits) << label;
  EXPECT_EQ(c.complexTableMisses, d.complexTableMisses) << label;
}

TEST(GateCache, FlatAndFoldedCircuitsDoTheSameWork) {
  // Every repetition of the flat circuit is a separately built set of gate
  // objects, while the folded twin re-walks one body. A cache keyed by gate
  // content lowers each distinct gate once in both, so every package
  // counter agrees; one keyed by object identity lowers the flat circuit's
  // gates again in each repetition.
  ir::Circuit flat(5);
  for (int rep = 0; rep < 8; ++rep) {
    flat.appendCircuit(test::randomCircuit(5, 12, 21));
  }
  const ir::Circuit folded = ir::detectRepetitions(flat);
  ASSERT_LT(folded.numOps(), flat.numOps());

  for (const StrategyConfig& config :
       {StrategyConfig::sequential(), StrategyConfig::kOperations(4),
        StrategyConfig::maxSizeStrategy(64)}) {
    // Both packages stay alive in one process, so their nodes sit at
    // different addresses; the counters must agree regardless.
    CircuitSimulator flatSim(flat, config);
    CircuitSimulator foldedSim(folded, config);
    const SimulationResult a = flatSim.run();
    const SimulationResult b = foldedSim.run();
    expectSameCounters(a.stats, b.stats, config.toString());
    const auto ampsA = flatSim.package().getVector(a.finalState);
    const auto ampsB = foldedSim.package().getVector(b.finalState);
    ASSERT_EQ(ampsA.size(), ampsB.size());
    for (std::size_t i = 0; i < ampsA.size(); ++i) {
      EXPECT_EQ(ampsA[i].r, ampsB[i].r) << config.toString() << " amp " << i;
      EXPECT_EQ(ampsA[i].i, ampsB[i].i) << config.toString() << " amp " << i;
    }
  }
}

TEST(Determinism, RunDoesNotDependOnNodeAddresses) {
  // If a hash read node addresses, evictions would follow the allocator
  // and this cell's counters would differ between two runs in one process
  // (at 16 qubits its peak would range from ~2k to ~50k nodes). The second
  // run allocates next to a live warm-up package, so its nodes land
  // elsewhere; everything it reports must be the same.
  const ir::Circuit circuit = algo::makeGroverCircuit(12, 2989);
  const StrategyConfig config = StrategyConfig::maxSizeStrategy(256);
  const auto runOnce = [&] {
    CircuitSimulator sim(circuit, config, /*seed=*/7);
    const SimulationResult result = sim.run();
    return std::pair{result.stats, sim.package().getVector(result.finalState)};
  };
  const auto [first, firstAmps] = runOnce();

  dd::Package warmUp(10);
  std::mt19937_64 rng(3);
  const dd::VEdge held =
      warmUp.makeStateFromVector(test::randomAmplitudes(10, rng));
  warmUp.incRef(held);
  const auto [second, secondAmps] = runOnce();

  expectSameCounters(first, second, config.toString());
  EXPECT_TRUE(firstAmps == secondAmps) << "final states differ";
}

TEST(GateCache, NearTwinGatesAreLoweredSeparately) {
  const double theta = 0.7;
  const double nextTheta = std::nextafter(theta, 4.0);
  const std::vector<std::pair<ir::StandardOperation, ir::StandardOperation>>
      twins = {
          // One control's polarity flipped.
          {ir::StandardOperation(ir::GateType::X, {2},
                                 {ir::Control{0}, ir::Control{4}}),
           ir::StandardOperation(ir::GateType::X, {2},
                                 {ir::Control{0}, ir::Control{4, false}})},
          // Control and target swapped.
          {ir::StandardOperation(ir::GateType::X, {1}, {ir::Control{3}}),
           ir::StandardOperation(ir::GateType::X, {3}, {ir::Control{1}})},
          // Swap targets given in the other order (same unitary).
          {ir::StandardOperation(ir::GateType::Swap, {0, 3}),
           ir::StandardOperation(ir::GateType::Swap, {3, 0})},
          // p(theta) vs rz(theta): equal up to a global phase.
          {ir::StandardOperation(ir::GateType::Phase, {4}, {ir::Control{1}},
                                 {theta}),
           ir::StandardOperation(ir::GateType::RZ, {4}, {ir::Control{1}},
                                 {theta})},
          // theta vs theta plus one ulp.
          {ir::StandardOperation(ir::GateType::RY, {0}, {}, {theta}),
           ir::StandardOperation(ir::GateType::RY, {0}, {}, {nextTheta})},
      };

  dd::Package pkg(5);
  GateDDCache cache(pkg);
  for (const auto& [a, b] : twins) {
    const std::size_t before = cache.size();
    const dd::MEdge da = cache.get(a);
    const dd::MEdge db = cache.get(b);
    EXPECT_EQ(cache.size(), before + 2) << a.toString() << " / " << b.toString();
    // A freshly built equal gate is a hit on the first entry. The full-key
    // comparison is checked on its own: a hash match alone would not get
    // here for distinct gates unless their hashes collide.
    const ir::StandardOperation copyOfA = a;
    EXPECT_TRUE(ir::sameGate(a, copyOfA)) << a.toString();
    EXPECT_FALSE(ir::sameGate(a, b)) << a.toString() << " / " << b.toString();
    EXPECT_EQ(cache.get(copyOfA), da) << a.toString();
    EXPECT_EQ(cache.get(b), db) << b.toString();
    EXPECT_EQ(cache.size(), before + 2) << a.toString();
  }
  EXPECT_NE(cache.get(twins[0].first), cache.get(twins[0].second));
  EXPECT_NE(cache.get(twins[1].first), cache.get(twins[1].second));
  EXPECT_NE(cache.get(twins[3].first), cache.get(twins[3].second));

  // Oracles are keyed by identity: an equal oracle object is a new entry.
  const ir::OracleOperation inc("inc", 3,
                                [](std::uint64_t x) { return (x + 1) % 8; });
  const ir::OracleOperation sameInc = inc;
  const std::size_t before = cache.size();
  (void)cache.get(inc);
  (void)cache.get(inc);
  EXPECT_EQ(cache.size(), before + 1);
  (void)cache.get(sameInc);
  EXPECT_EQ(cache.size(), before + 2);

  // Within one circuit, with each twin built twice, every schedule still
  // matches the dense reference.
  ir::Circuit circuit(5);
  for (ir::Qubit q = 0; q < 5; ++q) {
    circuit.h(q);
  }
  circuit.t(2);
  for (int rep = 0; rep < 2; ++rep) {
    for (const auto& [a, b] : twins) {
      circuit.append(std::make_unique<ir::StandardOperation>(a));
      circuit.append(std::make_unique<ir::StandardOperation>(b));
    }
  }
  for (const StrategyConfig& config :
       {StrategyConfig::sequential(), StrategyConfig::kOperations(4),
        StrategyConfig::maxSizeStrategy(64)}) {
    expectMatchesDense(circuit, config);
  }
}

TEST(Simulator, RunTwiceThrows) {
  ir::Circuit circuit(1);
  circuit.h(0);
  CircuitSimulator sim(circuit);
  sim.run();
  EXPECT_THROW(sim.run(), std::logic_error);
}

TEST(Simulator, InvalidConfigsRejected) {
  ir::Circuit circuit(1);
  circuit.h(0);
  EXPECT_THROW(CircuitSimulator(circuit, StrategyConfig::kOperations(0)),
               std::invalid_argument);
  EXPECT_THROW(CircuitSimulator(circuit, StrategyConfig::maxSizeStrategy(0)),
               std::invalid_argument);
}

TEST(Simulator, StatsTrackPeakSizes) {
  const auto circuit = test::randomCircuit(6, 50, 10);
  const auto result = simulate(circuit, StrategyConfig::kOperations(4));
  EXPECT_GT(result.stats.peakStateNodes, 0U);
  EXPECT_GT(result.stats.peakMatrixNodes, 0U);
  EXPECT_GT(result.stats.wallSeconds, 0.0);
  EXPECT_GT(result.stats.finalStateNodes, 0U);
}

TEST(Simulator, AdaptiveCombinesOperations) {
  const auto circuit = test::randomCircuit(6, 80, 13);
  const auto result = simulate(circuit, StrategyConfig::adaptive(0.5));
  EXPECT_GT(result.stats.mxmCount, 0U);
  EXPECT_LT(result.stats.mxvCount, circuit.flatGateCount());
}

TEST(Simulator, AdaptiveRejectsNonPositiveRatio) {
  ir::Circuit circuit(1);
  circuit.h(0);
  EXPECT_THROW(CircuitSimulator(circuit, StrategyConfig::adaptive(0.0)),
               std::invalid_argument);
}

// Every malformed StrategyConfig field is rejected at simulator
// construction (StrategyConfig::validate), one rejection per field.
TEST(Simulator, ValidateRejectsEachMalformedField) {
  ir::Circuit circuit(1);
  circuit.h(0);
  const auto reject = [&](void (*tweak)(StrategyConfig&)) {
    StrategyConfig config;
    tweak(config);
    EXPECT_THROW(CircuitSimulator(circuit, config), std::invalid_argument);
  };
  reject([](StrategyConfig& c) { c.k = 0; });
  reject([](StrategyConfig& c) { c.maxSize = 0; });
  reject([](StrategyConfig& c) { c.adaptiveRatio = 0.0; });
  reject([](StrategyConfig& c) { c.adaptiveRatio = -1.0; });
  reject([](StrategyConfig& c) {
    c.adaptiveRatio = std::numeric_limits<double>::quiet_NaN();
  });
  reject([](StrategyConfig& c) { c.timeLimitSeconds = -1.0; });
  reject([](StrategyConfig& c) {
    c.timeLimitSeconds = std::numeric_limits<double>::infinity();
  });
  reject([](StrategyConfig& c) { c.approximateFidelity = 0.0; });
  reject([](StrategyConfig& c) { c.approximateFidelity = 1.5; });

  // The default config and sane edge values still pass.
  EXPECT_NO_THROW(StrategyConfig{}.validate());
  StrategyConfig edge;
  edge.approximateFidelity = 1.0;
  edge.timeLimitSeconds = 0.0;
  EXPECT_NO_THROW(edge.validate());
}

TEST(Simulator, TraceRecordsSteps) {
  ir::Circuit circuit(3, 1);
  circuit.h(0);
  circuit.cx(0, 1);
  circuit.cx(1, 2);
  circuit.measure(0, 0);

  StrategyConfig config = StrategyConfig::sequential();
  config.collectTrace = true;
  CircuitSimulator sim(circuit, config);
  const auto result = sim.run();
  ASSERT_EQ(result.trace.steps.size(), 4U);
  EXPECT_EQ(result.trace.steps[0].kind, StepKind::ApplyToState);
  EXPECT_EQ(result.trace.steps[3].kind, StepKind::Measure);
  // State sizes are recorded after each step and indices increase.
  for (std::size_t i = 0; i < result.trace.steps.size(); ++i) {
    EXPECT_EQ(result.trace.steps[i].index, i);
    EXPECT_GT(result.trace.steps[i].stateNodes, 0U);
  }
}

TEST(Simulator, TraceDistinguishesCombineFromApply) {
  const auto circuit = test::randomCircuit(4, 16, 14);
  StrategyConfig config = StrategyConfig::kOperations(4);
  config.collectTrace = true;
  CircuitSimulator sim(circuit, config);
  const auto result = sim.run();

  std::size_t combines = 0;
  std::size_t applies = 0;
  for (const auto& step : result.trace.steps) {
    combines += step.kind == StepKind::CombineMatrix ? 1U : 0U;
    applies += step.kind == StepKind::ApplyToState ? 1U : 0U;
  }
  EXPECT_EQ(combines, result.stats.mxvCount + result.stats.mxmCount);
  EXPECT_EQ(applies, result.stats.mxvCount);
}

TEST(Simulator, TraceCsvFormat) {
  ir::Circuit circuit(2);
  circuit.h(0);
  StrategyConfig config = StrategyConfig::sequential();
  config.collectTrace = true;
  CircuitSimulator sim(circuit, config);
  const auto result = sim.run();
  std::ostringstream ss;
  result.trace.writeCsv(ss);
  const std::string csv = ss.str();
  EXPECT_NE(csv.find("index,kind,state_nodes,matrix_nodes,seconds"),
            std::string::npos);
  EXPECT_NE(csv.find("apply"), std::string::npos);
}

TEST(Simulator, TraceDisabledByDefault) {
  ir::Circuit circuit(2);
  circuit.h(0);
  CircuitSimulator sim(circuit);
  EXPECT_TRUE(sim.run().trace.steps.empty());
}

TEST(Simulator, TimeLimitAborts) {
  // A circuit too large to finish instantly, with a microscopic budget.
  const auto circuit = test::randomCircuit(10, 2000, 15);
  StrategyConfig config = StrategyConfig::sequential();
  config.timeLimitSeconds = 1e-4;
  CircuitSimulator sim(circuit, config);
  EXPECT_THROW(sim.run(), SimulationTimeout);
}

TEST(Simulator, TimeLimitGenerousEnoughPasses) {
  const auto circuit = test::randomCircuit(4, 20, 16);
  StrategyConfig config = StrategyConfig::kOperations(4);
  config.timeLimitSeconds = 60.0;
  CircuitSimulator sim(circuit, config);
  EXPECT_NO_THROW(sim.run());
}

TEST(Simulator, ApproximateWhileSimulatingBoundsStateSize) {
  // A random circuit whose exact state DD grows well past the threshold.
  const auto circuit = test::randomCircuit(10, 300, 19);

  StrategyConfig exact = StrategyConfig::sequential();
  CircuitSimulator exactSim(circuit, exact);
  const auto exactRes = exactSim.run();

  StrategyConfig approx = StrategyConfig::sequential();
  approx.approximateFidelity = 0.995;
  CircuitSimulator approxSim(circuit, approx);
  const auto approxRes = approxSim.run();

  EXPECT_GT(approxRes.stats.approxRounds, 0U);
  EXPECT_LT(approxRes.stats.approxFidelity, 1.0);
  EXPECT_GT(approxRes.stats.approxFidelity, 0.0);
  EXPECT_LE(approxRes.stats.finalStateNodes, exactRes.stats.finalStateNodes);
  // The state stays normalized and the true fidelity respects the bound.
  EXPECT_NEAR(approxSim.package().norm2(approxRes.finalState), 1.0, 1e-7);
  const auto exactVec = exactSim.package().getVector(exactRes.finalState);
  const auto approxVec = approxSim.package().getVector(approxRes.finalState);
  std::complex<double> overlap{};
  for (std::size_t i = 0; i < exactVec.size(); ++i) {
    overlap += std::conj(exactVec[i].toStd()) * approxVec[i].toStd();
  }
  EXPECT_GE(std::norm(overlap), approxRes.stats.approxFidelity - 1e-6);
}

TEST(Simulator, ApproximationDisabledByDefault) {
  const auto circuit = test::randomCircuit(8, 100, 21);
  const auto result = simulate(circuit);
  EXPECT_EQ(result.stats.approxRounds, 0U);
  EXPECT_DOUBLE_EQ(result.stats.approxFidelity, 1.0);
}

TEST(Simulator, ApproximationConfigValidated) {
  ir::Circuit circuit(1);
  circuit.h(0);
  StrategyConfig bad = StrategyConfig::sequential();
  bad.approximateFidelity = 0.0;
  EXPECT_THROW(CircuitSimulator(circuit, bad), std::invalid_argument);
  bad.approximateFidelity = 1.5;
  EXPECT_THROW(CircuitSimulator(circuit, bad), std::invalid_argument);
}

TEST(Simulator, LongCircuitSurvivesGarbageCollection) {
  // Enough volume to trigger several GC cycles; correctness must hold.
  const auto circuit = test::randomCircuit(8, 600, 11);
  CircuitSimulator sim(circuit, StrategyConfig::kOperations(3));
  const auto result = sim.run();
  EXPECT_NEAR(sim.package().norm2(result.finalState), 1.0, 1e-7);
}

// ------------------------------------------------------ outcome determinism

struct Outcome {
  std::vector<bool> bits;
  std::size_t finalNodes = 0;
  std::uint64_t peakStateNodes = 0;
};

Outcome simulateKOperations(const ir::Circuit& circuit, std::uint64_t seed) {
  CircuitSimulator sim(circuit, StrategyConfig::kOperations(4), seed);
  const SimulationResult r = sim.run();
  return {r.classicalBits, sim.package().size(r.finalState),
          r.stats.peakStateNodes};
}

TEST(Determinism, OutcomeDependsOnlyOnCircuitStrategyAndSeed) {
  // The content-addressed result cache keys on (circuit, strategy, seed),
  // so an earlier job in the process (which changes when the
  // demand-sized tables grow) may not change a result.
  const ir::Circuit body = algo::makeSupremacyCircuit({3, 3, 8, 11});
  ir::Circuit job(body.numQubits(), 4);
  for (const auto& op : body.ops()) {
    job.append(op->clone());
  }
  for (ir::Qubit q = 0; q < 4; ++q) {
    job.measure(q, static_cast<std::size_t>(q));  // leave a non-trivial state
  }
  const Outcome fresh = simulateKOperations(job, 7);
  ASSERT_GT(fresh.finalNodes, job.numQubits() + 1);

  // An unrelated, larger job grows its package's tables far past theirs.
  algo::GroverOptions grover;
  grover.measure = true;
  (void)simulateKOperations(algo::makeGroverCircuit(12, 1234, grover), 3);

  const Outcome after = simulateKOperations(job, 7);
  EXPECT_EQ(after.bits, fresh.bits);
  EXPECT_EQ(after.finalNodes, fresh.finalNodes);
  EXPECT_EQ(after.peakStateNodes, fresh.peakStateNodes);
}

}  // namespace
}  // namespace ddsim::sim
