#include <gtest/gtest.h>

#include "baseline/statevector.hpp"
#include "ir/circuit.hpp"
#include "test_util.hpp"

namespace ddsim::ir {
namespace {

TEST(Circuit, MovingAppendMatchesCopyingAppend) {
  Circuit block(3, 0, "block");
  block.h(0);
  block.cx(0, 2);
  block.appendRepeated(Circuit(3), 2, "empty");
  block.t(1);
  Circuit copied(3);
  copied.appendCircuit(block);
  Circuit moved(3);
  moved.appendCircuit(block.clone());
  ASSERT_EQ(moved.numOps(), copied.numOps());
  for (std::size_t i = 0; i < copied.numOps(); ++i) {
    EXPECT_EQ(moved.ops()[i]->toString(), copied.ops()[i]->toString());
  }
  Circuit source = block.inverted();
  moved.appendCircuit(std::move(source));
  EXPECT_EQ(moved.numOps(), 2 * copied.numOps());
  EXPECT_THROW(Circuit(2).appendCircuit(block.clone()), std::invalid_argument);
}

TEST(Circuit, BasicConstruction) {
  Circuit c(3, 2, "demo");
  EXPECT_EQ(c.numQubits(), 3U);
  EXPECT_EQ(c.numClbits(), 2U);
  EXPECT_EQ(c.name(), "demo");
  EXPECT_TRUE(c.empty());
  c.h(0);
  c.cx(0, 1);
  EXPECT_EQ(c.numOps(), 2U);
  EXPECT_EQ(c.flatGateCount(), 2U);
}

TEST(Circuit, RejectsZeroQubits) {
  EXPECT_THROW(Circuit(0), std::invalid_argument);
}

TEST(Circuit, ValidatesQubitRange) {
  Circuit c(2);
  EXPECT_THROW(c.h(2), std::invalid_argument);
  EXPECT_THROW(c.cx(0, 5), std::invalid_argument);
}

TEST(Circuit, ValidatesClassicalRange) {
  Circuit c(2, 1);
  EXPECT_NO_THROW(c.measure(0, 0));
  EXPECT_THROW(c.measure(0, 1), std::invalid_argument);
  EXPECT_THROW(c.classicControlled(GateType::X, 0, {}, {}, 3),
               std::invalid_argument);
}

TEST(StandardOperationTest, RejectsControlOnTarget) {
  EXPECT_THROW(StandardOperation(GateType::X, {1}, {Control{1}}),
               std::invalid_argument);
}

TEST(StandardOperationTest, RejectsWrongParamCount) {
  EXPECT_THROW(StandardOperation(GateType::RX, {0}), std::invalid_argument);
  EXPECT_THROW(StandardOperation(GateType::X, {0}, {}, {0.5}),
               std::invalid_argument);
}

TEST(StandardOperationTest, SwapNeedsTwoTargets) {
  EXPECT_THROW(StandardOperation(GateType::Swap, {0}), std::invalid_argument);
  EXPECT_NO_THROW(StandardOperation(GateType::Swap, {0, 1}));
}

TEST(StandardOperationTest, InverseRoundTrip) {
  const StandardOperation rx(GateType::RX, {0}, {}, {0.7});
  const StandardOperation inv = rx.inverse();
  EXPECT_EQ(inv.type(), GateType::RX);
  EXPECT_DOUBLE_EQ(inv.params()[0], -0.7);
  const StandardOperation s(GateType::S, {1});
  EXPECT_EQ(s.inverse().type(), GateType::Sdg);
  const StandardOperation u(GateType::U, {0}, {}, {0.5, 1.0, -0.25});
  const StandardOperation uInv = u.inverse();
  EXPECT_DOUBLE_EQ(uInv.params()[0], -0.5);
  EXPECT_DOUBLE_EQ(uInv.params()[1], 0.25);
  EXPECT_DOUBLE_EQ(uInv.params()[2], -1.0);
}

TEST(Circuit, CloneIsDeep) {
  Circuit c(2);
  c.h(0);
  c.appendRepeated(
      [] {
        Circuit block(2);
        block.cx(0, 1);
        return block;
      }(),
      3, "loop");
  Circuit copy = c.clone();
  EXPECT_EQ(copy.numOps(), c.numOps());
  EXPECT_EQ(copy.flatGateCount(), c.flatGateCount());
  c.h(1);
  EXPECT_NE(copy.numOps(), c.numOps());
}

TEST(Circuit, CompoundFlattening) {
  Circuit c(2);
  c.h(0);
  Circuit block(2);
  block.x(0);
  block.cx(0, 1);
  c.appendRepeated(std::move(block), 4, "iter");
  EXPECT_EQ(c.numOps(), 2U);
  EXPECT_EQ(c.flatGateCount(), 1U + 4U * 2U);
  const Circuit flat = c.flattened();
  EXPECT_EQ(flat.numOps(), 9U);
  EXPECT_EQ(flat.flatGateCount(), 9U);
}

TEST(Circuit, NestedCompoundFlatten) {
  Circuit inner(1);
  inner.x(0);
  Circuit outer(1);
  outer.appendRepeated(std::move(inner), 2, "inner");
  Circuit c(1);
  Circuit mid(1);
  mid.appendCircuit(outer);
  c.appendRepeated(std::move(mid), 3, "outer");
  EXPECT_EQ(c.flatGateCount(), 6U);
  EXPECT_EQ(c.flattened().numOps(), 6U);
}

TEST(Circuit, InvertedUndoesUnitaryCircuit) {
  const auto circuit = test::randomCircuit(4, 30, 9001);
  Circuit both(4);
  both.appendCircuit(circuit);
  both.appendCircuit(circuit.inverted());
  const auto result = baseline::runOnStateVector(both);
  EXPECT_NEAR(std::norm(result.state.amplitude(0)), 1.0, 1e-9);
}

TEST(Circuit, InvertedRejectsMeasurement) {
  Circuit c(1, 1);
  c.measure(0, 0);
  EXPECT_THROW(c.inverted(), std::invalid_argument);
}

TEST(Circuit, AppendRepeatedValidation) {
  Circuit c(2);
  Circuit wide(3);
  wide.h(2);
  EXPECT_THROW(c.appendRepeated(std::move(wide), 2), std::invalid_argument);
  Circuit ok(2);
  ok.h(0);
  EXPECT_THROW(c.appendRepeated(ok.clone(), 0), std::invalid_argument);
}

TEST(Circuit, MeasureAllNeedsClbits) {
  Circuit c(3, 1);
  EXPECT_THROW(c.measureAll(), std::logic_error);
  Circuit ok(3, 3);
  EXPECT_NO_THROW(ok.measureAll());
  EXPECT_EQ(ok.numOps(), 3U);
}

TEST(Circuit, ToStringListsOperations) {
  Circuit c(2, 1, "listing");
  c.h(0);
  c.cx(0, 1);
  c.measure(1, 0);
  const std::string s = c.toString();
  EXPECT_NE(s.find("listing"), std::string::npos);
  EXPECT_NE(s.find("h q0"), std::string::npos);
  EXPECT_NE(s.find("measure q1 -> c0"), std::string::npos);
}

TEST(OracleOperationTest, ValidatesControlPlacement) {
  EXPECT_THROW(OracleOperation("bad", 3, [](std::uint64_t x) { return x; },
                               {Control{1}}),
               std::invalid_argument);
  EXPECT_NO_THROW(OracleOperation("ok", 3, [](std::uint64_t x) { return x; },
                                  {Control{4}}));
}

TEST(OracleOperationTest, PermutationTable) {
  const OracleOperation op("xor1", 2,
                           [](std::uint64_t x) { return x ^ 1U; });
  const auto table = op.permutationTable();
  EXPECT_EQ(table, (std::vector<std::uint64_t>{1, 0, 3, 2}));
  EXPECT_EQ(op.flatGateCount(), 1U);
}

TEST(CompoundOperationTest, CopyIsDeep) {
  std::vector<std::unique_ptr<Operation>> body;
  body.push_back(std::make_unique<StandardOperation>(GateType::H,
                                                     std::vector<Qubit>{0}));
  const CompoundOperation comp(std::move(body), 5, "block");
  const CompoundOperation copy(comp);
  EXPECT_EQ(copy.repetitions(), 5U);
  EXPECT_EQ(copy.body().size(), 1U);
  EXPECT_NE(copy.body()[0].get(), comp.body()[0].get());
}

}  // namespace
}  // namespace ddsim::ir
