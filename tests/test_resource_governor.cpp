/// Tests for the resource governor, the deterministic fault injector and
/// the simulator's degradation ladder. Every failure mode covered here —
/// allocation failure, timeout mid-multiply, accumulator explosion — is
/// injected deterministically rather than provoked with a huge workload.

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "algo/grover.hpp"
#include "dd/fault_injection.hpp"
#include "dd/package.hpp"
#include "dd/resource_governor.hpp"
#include "ir/circuit.hpp"
#include "ir/gate.hpp"
#include "sim/simulator.hpp"

namespace ddsim {
namespace {

// ------------------------------------------------------- governor policy

TEST(ResourceGovernor, ClassifiesPressureRungs) {
  dd::ResourceGovernor gov;
  gov.setBudget({/*maxLiveNodes=*/1000, /*maxBytes=*/0});
  EXPECT_EQ(gov.classify(100, 0), dd::ResourcePressure::None);
  EXPECT_EQ(gov.classify(749, 0), dd::ResourcePressure::None);
  EXPECT_EQ(gov.classify(750, 0), dd::ResourcePressure::Soft);
  EXPECT_EQ(gov.classify(999, 0), dd::ResourcePressure::Soft);
  EXPECT_EQ(gov.classify(1000, 0), dd::ResourcePressure::Hard);
}

TEST(ResourceGovernor, ByteBudgetClassifiesIndependently) {
  dd::ResourceGovernor gov;
  gov.setBudget({0, /*maxBytes=*/1 << 20});
  EXPECT_EQ(gov.classify(1'000'000, 1), dd::ResourcePressure::None);
  EXPECT_EQ(gov.classify(0, (3 << 18) - 1), dd::ResourcePressure::None);
  EXPECT_EQ(gov.classify(0, 3 << 18), dd::ResourcePressure::Soft);
  EXPECT_EQ(gov.classify(0, 1 << 20), dd::ResourcePressure::Hard);
}

TEST(ResourceGovernor, CallbackFiresOncePerEpisode) {
  dd::ResourceGovernor gov;
  gov.setBudget({100, 0});
  int fired = 0;
  gov.setPressureCallback(
      [&fired](dd::ResourcePressure, std::size_t) { ++fired; });
  gov.observe(dd::ResourcePressure::Soft, 60);
  gov.observe(dd::ResourcePressure::Soft, 70);  // same episode: no re-fire
  EXPECT_EQ(fired, 1);
  gov.observe(dd::ResourcePressure::None, 10);  // pressure recedes: re-arm
  gov.observe(dd::ResourcePressure::Soft, 55);
  EXPECT_EQ(fired, 2);
}

TEST(ResourceExhaustedError, CarriesStructuredDiagnostics) {
  const dd::ResourceExhausted e("multiply(MxM)", 1234, 1000, 4096);
  EXPECT_EQ(e.operation(), "multiply(MxM)");
  EXPECT_EQ(e.liveNodes(), 1234U);
  EXPECT_EQ(e.nodeBudget(), 1000U);
  EXPECT_EQ(e.bytesAllocated(), 4096U);
  const std::string what = e.what();
  EXPECT_NE(what.find("multiply(MxM)"), std::string::npos);
  EXPECT_NE(what.find("1234"), std::string::npos);
  EXPECT_NE(what.find("1000"), std::string::npos);
}

// ------------------------------------------------------- fault injector

TEST(FaultInjector, AllocationFailureIsPersistent) {
  dd::FaultInjector inj({.failAllocationAfter = 3});
  EXPECT_FALSE(inj.onNodeRequest());
  EXPECT_FALSE(inj.onNodeRequest());
  EXPECT_FALSE(inj.onNodeRequest());
  // Past the threshold the failure repeats: a collect-and-retry caller must
  // keep failing until the injector is disarmed.
  EXPECT_TRUE(inj.onNodeRequest());
  EXPECT_TRUE(inj.onNodeRequest());
  EXPECT_EQ(inj.injectedAllocFailures(), 2U);
  inj.disarm();
  EXPECT_FALSE(inj.onNodeRequest());
}

TEST(FaultInjector, AbortFiresAtExactOperation) {
  dd::FaultInjector inj({.abortAtOperation = 2});
  EXPECT_FALSE(inj.onAbortPoll(1));
  EXPECT_TRUE(inj.onAbortPoll(2));
  EXPECT_FALSE(inj.onAbortPoll(3));
  EXPECT_EQ(inj.injectedAborts(), 1U);
}

TEST(FaultInjector, ForcedGcFiresAtExactPoll) {
  dd::FaultInjector inj({.forceGcAtPoll = 2});
  EXPECT_FALSE(inj.onGcPoll());
  EXPECT_TRUE(inj.onGcPoll());
  EXPECT_FALSE(inj.onGcPoll());
  EXPECT_EQ(inj.injectedGcs(), 1U);
}

TEST(FaultInjector, UnarmedInjectorIsInert) {
  dd::FaultInjector inj;
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(inj.onNodeRequest());
    EXPECT_FALSE(inj.onAbortPoll(static_cast<std::uint64_t>(i)));
    EXPECT_FALSE(inj.onGcPoll());
  }
  EXPECT_EQ(inj.injectedAllocFailures(), 0U);
}

// ------------------------------------------------- package-level behavior

TEST(PackageGovernor, InjectedAllocFailureNamesOperationInFlight) {
  dd::Package pkg(3);
  dd::FaultInjector inj({.failAllocationAfter = 1});
  pkg.setFaultInjector(&inj);
  try {
    // Gate construction allocates nodes, so it must trip the injector.
    (void)pkg.makeGateDD(ir::gateMatrix(ir::GateType::H), 0);
    FAIL() << "expected ResourceExhausted";
  } catch (const dd::ResourceExhausted& e) {
    EXPECT_EQ(e.operation(), "makeGateDD");
    EXPECT_NE(std::string(e.what()).find("fault injection"),
              std::string::npos);
  }
  pkg.setFaultInjector(nullptr);
}

TEST(PackageGovernor, HardBudgetThrowsDuringMultiply) {
  dd::Package pkg(8);
  // Leave generous room for setup, then clamp: the budget check happens at
  // node allocation, so the throw comes from inside an operation.
  dd::VEdge state = pkg.makeZeroState();
  pkg.incRef(state);
  const dd::MEdge h = pkg.makeGateDD(ir::gateMatrix(ir::GateType::H), 0);
  pkg.incRef(h);
  pkg.governor().setBudget({pkg.liveNodes() + 2, 0});
  try {
    dd::VEdge v = state;
    for (dd::Qubit q = 0; q < 8; ++q) {
      const dd::MEdge g =
          pkg.makeGateDD(ir::gateMatrix(ir::GateType::H), q);
      v = pkg.multiply(g, v);
    }
    FAIL() << "expected ResourceExhausted";
  } catch (const dd::ResourceExhausted& e) {
    EXPECT_GE(e.liveNodes(), pkg.governor().budget().maxLiveNodes);
    EXPECT_EQ(e.nodeBudget(), pkg.governor().budget().maxLiveNodes);
  }
  // The package stays consistent: after lifting the budget and collecting,
  // normal operation resumes.
  pkg.governor().setBudget({0, 0});
  pkg.garbageCollect();
  dd::VEdge v = pkg.multiply(h, state);
  EXPECT_NE(v.p, nullptr);
}

TEST(PackageGovernor, EmergencyCollectReclaimsAndCountsBytes) {
  dd::Package pkg(10);
  // Build a pile of unrooted intermediates, then collect.
  dd::VEdge state = pkg.makeZeroState();
  pkg.incRef(state);
  for (dd::Qubit q = 0; q < 10; ++q) {
    const double theta = 0.1 * q;
    const dd::MEdge g =
        pkg.makeGateDD(ir::gateMatrix(ir::GateType::RY, &theta), q);
    state = pkg.multiply(g, state);  // old states left unrooted
  }
  const std::size_t liveBefore = pkg.liveNodes();
  pkg.incRef(state);
  const std::size_t released = pkg.emergencyCollect();
  EXPECT_EQ(pkg.stats().emergencyCollections, 1U);
  EXPECT_EQ(pkg.stats().bytesReleased, released);
  EXPECT_LT(pkg.liveNodes(), liveBefore);
  // The rooted state survived.
  EXPECT_GT(pkg.getAmplitude(state, 0).mag2(), 0.0);
}

TEST(PackageGovernor, TimeoutInterruptsGiantPermutationBuild) {
  // Regression for timeout granularity: a single long-running entry point
  // (makePermutationDD over 2^14 entries) must notice the abort check
  // mid-construction instead of only between operations.
  dd::Package pkg(14);
  pkg.setAbortCheck([] { return true; });
  std::vector<std::uint64_t> perm(1ULL << 14);
  for (std::size_t i = 0; i < perm.size(); ++i) {
    perm[i] = (i + 1) % perm.size();
  }
  EXPECT_THROW((void)pkg.makePermutationDD(perm), dd::ComputationAborted);
}

TEST(PackageGovernor, InjectedAbortFiresInsideChosenOperation) {
  dd::Package pkg(6);
  dd::FaultInjector inj;
  pkg.setFaultInjector(&inj);
  dd::VEdge state = pkg.makeZeroState();
  pkg.incRef(state);
  const dd::MEdge h = pkg.makeGateDD(ir::gateMatrix(ir::GateType::H), 0);
  // makeGateDD above was operation #1; arm the abort for the next one.
  inj.configure({.abortAtOperation = inj.injectedAborts() + 2});
  EXPECT_THROW((void)pkg.multiply(h, state), dd::ComputationAborted);
  pkg.setFaultInjector(nullptr);
  // Still usable afterwards.
  dd::VEdge v = pkg.multiply(h, state);
  EXPECT_NE(v.p, nullptr);
}

TEST(PackageGovernor, PermutationBijectionRejectedInRelease) {
  dd::Package pkg(2);
  // Promoted from assert: must throw in every build type.
  EXPECT_THROW((void)pkg.makePermutationDD({0, 0, 1, 2}),
               std::invalid_argument);
  EXPECT_THROW((void)pkg.makePermutationDD({0, 1, 2, 7}),
               std::invalid_argument);
}

TEST(PackageGovernor, MeasurementValidatesQubitRange) {
  dd::Package pkg(2);
  dd::VEdge state = pkg.makeZeroState();
  pkg.incRef(state);
  std::mt19937_64 rng(42);
  EXPECT_THROW((void)pkg.probabilityOfOne(state, 5), std::invalid_argument);
  EXPECT_THROW((void)pkg.measureOneCollapsing(state, -1, rng),
               std::invalid_argument);
  EXPECT_THROW((void)pkg.makeGateDD(ir::gateMatrix(ir::GateType::X), 9),
               std::invalid_argument);
}

// ----------------------------------------------- simulator degradation

TEST(SimulatorDegradation, InjectedAllocFailureSurfacesPartialResult) {
  const auto circuit = algo::makeGroverCircuit(6, 11);
  sim::StrategyConfig config = sim::StrategyConfig::maxSizeStrategy(1U << 20);
  sim::CircuitSimulator simulator(circuit, config);
  dd::FaultInjector inj;
  simulator.package().setFaultInjector(&inj);
  // Let the run make progress first, then fail every further allocation:
  // the ladder collects and retries, keeps failing, and must surface the
  // partial result instead of crashing.
  inj.configure({.failAllocationAfter = 2000});
  try {
    (void)simulator.run();
    FAIL() << "expected sim::ResourceExhausted";
  } catch (const sim::ResourceExhausted& e) {
    EXPECT_GT(inj.injectedAllocFailures(), 0U);
    const sim::PartialResult& partial = e.partial();
    EXPECT_GT(partial.stats.appliedGates, 0U);
    EXPECT_GT(partial.peakLiveNodes, 0U);
    EXPECT_GE(partial.elapsedSeconds, 0.0);
    EXPECT_GE(partial.stats.appliedGates, partial.opsCompleted);
  }
}

TEST(SimulatorDegradation, AccumulatorExplosionSurfacesPartialResult) {
  // Deterministic accumulator explosion: MaxSize with an absurd s_max keeps
  // combining into one matrix DD; the injector fails every allocation past
  // the threshold, which first bites mid-MxM. The ladder collects and
  // retries, keeps failing, and the run must end with the partial snapshot
  // naming the multiplication that could not complete.
  const auto circuit = algo::makeGroverCircuit(6, 11);
  sim::StrategyConfig config = sim::StrategyConfig::maxSizeStrategy(1U << 20);
  sim::CircuitSimulator simulator(circuit, config);
  dd::FaultInjector inj({.failAllocationAfter = 3000});
  simulator.package().setFaultInjector(&inj);
  try {
    (void)simulator.run();
    FAIL() << "expected sim::ResourceExhausted";
  } catch (const sim::ResourceExhausted& e) {
    EXPECT_NE(e.operation().find("multiply"), std::string::npos)
        << "failed during: " << e.operation();
    EXPECT_GT(e.partial().stats.degradationEvents, 0U);
    EXPECT_GT(e.partial().stats.appliedGates, 0U);
  }
}

TEST(SimulatorDegradation, InjectedTimeoutMidMultiplyCarriesPartial) {
  const auto circuit = algo::makeGroverCircuit(6, 11);
  sim::StrategyConfig config;
  config.timeLimitSeconds = 3600.0;  // enables the abort plumbing
  sim::CircuitSimulator simulator(circuit, config);
  dd::FaultInjector inj({.abortAtOperation = 40});
  simulator.package().setFaultInjector(&inj);
  try {
    (void)simulator.run();
    FAIL() << "expected SimulationTimeout";
  } catch (const sim::SimulationTimeout& e) {
    EXPECT_EQ(inj.injectedAborts(), 1U);
    EXPECT_GT(e.partial().stats.appliedGates, 0U);
    EXPECT_GT(e.partial().peakLiveNodes, 0U);
  }
}

TEST(SimulatorDegradation, ForcedGcTriggersCollection) {
  const auto circuit = algo::makeGroverCircuit(5, 7);
  sim::CircuitSimulator simulator(circuit);
  dd::FaultInjector inj({.forceGcAtPoll = 3});
  simulator.package().setFaultInjector(&inj);
  const auto result = simulator.run();
  EXPECT_EQ(inj.injectedGcs(), 1U);
  EXPECT_GE(result.stats.dd.garbageCollections, 1U);
  // Correctness is unaffected by the extra collection.
  const double p =
      simulator.package().getAmplitude(result.finalState, 7).mag2();
  EXPECT_GT(p, 0.8);
}

TEST(SimulatorDegradation, GroverCompletesUnderTightBudgetViaLadder) {
  // Acceptance: with a node budget small enough that unconstrained MaxSize
  // accumulation would exceed it, Grover still completes — the governor's
  // soft rung flushes the accumulator and falls back to sequential MxV for
  // a cooldown window, visibly recorded in the stats.
  const std::uint64_t marked = 11;
  const auto circuit = algo::makeGroverCircuit(7, marked);

  // Reference: unconstrained max-size with an absurd s_max grows a big
  // accumulator.
  sim::StrategyConfig unbounded = sim::StrategyConfig::maxSizeStrategy(1U << 20);
  sim::CircuitSimulator reference(circuit, unbounded);
  const auto refResult = reference.run();
  ASSERT_EQ(refResult.stats.degradationEvents, 0U);

  sim::StrategyConfig budgeted = unbounded;
  // Comfortably above the sequential working set, well below the
  // unconstrained peak (live nodes include unique-table residents).
  budgeted.nodeBudget = 700;
  sim::CircuitSimulator simulator(circuit, budgeted);
  const auto result = simulator.run();

  EXPECT_GT(result.stats.degradationEvents, 0U);
  EXPECT_GT(result.stats.pressureFlushes, 0U);
  EXPECT_GT(result.stats.sequentialFallbackOps, 0U);
  EXPECT_GT(result.stats.dd.emergencyCollections, 0U);

  const double p =
      simulator.package().getAmplitude(result.finalState, marked).mag2();
  EXPECT_GT(p, 0.8) << "degraded run must still amplify the marked state";
}

TEST(SimulatorDegradation, EnvVarSuppliesDefaultBudget) {
  ASSERT_EQ(setenv("DDSIM_NODE_BUDGET", "700", 1), 0);
  const auto circuit = algo::makeGroverCircuit(7, 11);
  sim::StrategyConfig config = sim::StrategyConfig::maxSizeStrategy(1U << 20);
  sim::CircuitSimulator simulator(circuit, config);
  const auto result = simulator.run();
  ASSERT_EQ(unsetenv("DDSIM_NODE_BUDGET"), 0);
  EXPECT_GT(result.stats.degradationEvents, 0U);
  const double p =
      simulator.package().getAmplitude(result.finalState, 11).mag2();
  EXPECT_GT(p, 0.8);
}

TEST(SimulatorDegradation, ExplicitConfigBeatsEnvVar) {
  ASSERT_EQ(setenv("DDSIM_NODE_BUDGET", "1", 1), 0);  // absurdly small
  const auto circuit = algo::makeGroverCircuit(4, 3);
  sim::StrategyConfig config;
  config.nodeBudget = 1U << 20;  // explicit value wins over the env var
  sim::CircuitSimulator simulator(circuit, config);
  const auto result = simulator.run();
  ASSERT_EQ(unsetenv("DDSIM_NODE_BUDGET"), 0);
  EXPECT_EQ(result.stats.degradationEvents, 0U);
}

TEST(SimulatorDegradation, HardExhaustionWithoutLadderRoomSurfacesError) {
  // A budget below even the sequential working set: the ladder cannot save
  // the run, so it must end in sim::ResourceExhausted with a partial
  // snapshot, never a crash.
  const auto circuit = algo::makeGroverCircuit(7, 11);
  sim::StrategyConfig config;
  config.nodeBudget = 40;
  sim::CircuitSimulator simulator(circuit, config);
  try {
    (void)simulator.run();
    FAIL() << "expected sim::ResourceExhausted";
  } catch (const sim::ResourceExhausted& e) {
    EXPECT_EQ(e.nodeBudget(), 40U);
    EXPECT_GE(e.liveNodes(), 40U);
    EXPECT_GE(e.partial().stats.degradationEvents, 0U);
  }
}

}  // namespace
}  // namespace ddsim
