#include <gtest/gtest.h>

#include "algo/grover.hpp"
#include "ir/qasm.hpp"
#include "ir/transforms.hpp"
#include "sim/equivalence.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace ddsim::ir {
namespace {

TEST(DetectRepetitions, FoldsSimpleLoop) {
  Circuit circuit(2);
  for (int i = 0; i < 5; ++i) {
    circuit.h(0);
    circuit.cx(0, 1);
  }
  const Circuit folded = detectRepetitions(circuit);
  ASSERT_EQ(folded.numOps(), 1U);
  const auto& comp = static_cast<const CompoundOperation&>(*folded.ops()[0]);
  EXPECT_EQ(comp.repetitions(), 5U);
  EXPECT_EQ(comp.body().size(), 2U);
  EXPECT_EQ(folded.flatGateCount(), circuit.flatGateCount());
}

TEST(DetectRepetitions, PreservesSemantics) {
  Circuit circuit(3);
  circuit.x(2);
  for (int i = 0; i < 4; ++i) {
    circuit.h(0);
    circuit.cx(0, 1);
    circuit.t(1);
  }
  circuit.h(2);
  const Circuit folded = detectRepetitions(circuit);
  EXPECT_LT(folded.numOps(), circuit.numOps());
  EXPECT_TRUE(sim::areEquivalent(circuit, folded));
}

TEST(DetectRepetitions, FlattenedGroverRecoversIterations) {
  // Flatten the Grover circuit (losing the annotation), re-detect, and
  // check DD-repeating works on the recovered structure.
  const auto annotated = algo::makeGroverCircuit(8, 99);
  const Circuit flat = annotated.flattened();
  const Circuit recovered = detectRepetitions(flat);

  // Far fewer top-level ops than the flat version, and one compound with
  // the right body size appears.
  EXPECT_LT(recovered.numOps(), flat.numOps() / 4);
  bool hasCompound = false;
  for (const auto& op : recovered.ops()) {
    hasCompound |= op->kind() == OpKind::Compound;
  }
  EXPECT_TRUE(hasCompound);

  sim::StrategyConfig repeating = sim::StrategyConfig::sequential();
  repeating.reuseRepeatedBlocks = true;
  sim::CircuitSimulator a(annotated, sim::StrategyConfig::sequential());
  sim::CircuitSimulator b(recovered, repeating);
  const auto ra = a.run();
  const auto rb = b.run();
  const auto va = a.package().getVector(ra.finalState);
  const auto vb = b.package().getVector(rb.finalState);
  for (std::size_t i = 0; i < va.size(); ++i) {
    EXPECT_NEAR(va[i].r, vb[i].r, 1e-7);
    EXPECT_NEAR(va[i].i, vb[i].i, 1e-7);
  }
}

TEST(DetectRepetitions, MeasurementIsABoundary) {
  Circuit circuit(1, 1);
  for (int i = 0; i < 3; ++i) {
    circuit.h(0);
    circuit.t(0);
  }
  circuit.measure(0, 0);
  for (int i = 0; i < 3; ++i) {
    circuit.h(0);
    circuit.t(0);
  }
  const Circuit folded = detectRepetitions(circuit);
  // Two folded loops with the measurement between them.
  ASSERT_EQ(folded.numOps(), 3U);
  EXPECT_EQ(folded.ops()[1]->kind(), OpKind::Measure);
}

TEST(DetectRepetitions, RespectsMinimumThresholds) {
  Circuit circuit(1);
  circuit.x(0);
  circuit.x(0);  // an X-X pair is below minTotalOps=4
  const Circuit folded = detectRepetitions(circuit);
  EXPECT_EQ(folded.numOps(), 2U);

  RepetitionOptions loose;
  loose.minTotalOps = 2;
  const Circuit foldedLoose = detectRepetitions(circuit, loose);
  EXPECT_EQ(foldedLoose.numOps(), 1U);
}

TEST(DetectRepetitions, NoFalsePositives) {
  const auto circuit = test::randomCircuit(4, 40, 87);
  const Circuit folded = detectRepetitions(circuit);
  EXPECT_TRUE(sim::areEquivalent(circuit, folded));
}

TEST(DetectRepetitions, DistinguishesParameters) {
  Circuit circuit(1);
  circuit.rz(0.5, 0);
  circuit.rz(0.5, 0);
  circuit.rz(0.6, 0);  // different angle must not fold into the run
  circuit.rz(0.5, 0);
  const Circuit folded = detectRepetitions(circuit, {.minRepetitions = 2,
                                                     .maxPeriod = 4,
                                                     .minTotalOps = 2});
  EXPECT_TRUE(sim::areEquivalent(circuit, folded));
}

}  // namespace
}  // namespace ddsim::ir
