#include <gtest/gtest.h>

#include "algo/grover.hpp"
#include "algo/qft.hpp"
#include "ir/qasm.hpp"
#include "sim/equivalence.hpp"
#include "test_util.hpp"

namespace ddsim::sim {
namespace {

TEST(Equivalence, IdenticalCircuits) {
  const auto a = test::randomCircuit(4, 30, 17);
  EXPECT_EQ(checkEquivalence(a, a.clone()), Equivalence::Equivalent);
}

TEST(Equivalence, DifferentWidthsNeverEquivalent) {
  ir::Circuit a(2);
  a.h(0);
  ir::Circuit b(3);
  b.h(0);
  EXPECT_EQ(checkEquivalence(a, b), Equivalence::NotEquivalent);
}

TEST(Equivalence, CircuitTimesInverseIsIdentity) {
  const auto base = test::randomCircuit(4, 40, 23);
  ir::Circuit composed(4);
  composed.appendCircuit(base);
  composed.appendCircuit(base.inverted());
  ir::Circuit identity(4);  // empty circuit = identity
  EXPECT_EQ(checkEquivalence(composed, identity), Equivalence::Equivalent);
}

TEST(Equivalence, HXHEqualsZ) {
  ir::Circuit hxh(1);
  hxh.h(0);
  hxh.x(0);
  hxh.h(0);
  ir::Circuit z(1);
  z.z(0);
  EXPECT_EQ(checkEquivalence(hxh, z), Equivalence::Equivalent);
}

TEST(Equivalence, CZSymmetricUnderConjugation) {
  // CX(0->1) == H(1) CZ(0,1) H(1)
  ir::Circuit cx(2);
  cx.cx(0, 1);
  ir::Circuit conj(2);
  conj.h(1);
  conj.cz(0, 1);
  conj.h(1);
  EXPECT_EQ(checkEquivalence(cx, conj), Equivalence::Equivalent);
}

TEST(Equivalence, GlobalPhaseDetected) {
  // X = e^{i pi/2} Rx(pi): equivalent only up to global phase.
  ir::Circuit x(1);
  x.x(0);
  ir::Circuit rx(1);
  rx.rx(std::numbers::pi, 0);
  EXPECT_EQ(checkEquivalence(x, rx), Equivalence::EquivalentUpToPhase);
  EXPECT_TRUE(areEquivalent(x, rx));
}

TEST(Equivalence, DistinguishesNearbyAngles) {
  ir::Circuit a(2);
  a.cphase(0.5, 0, 1);
  ir::Circuit b(2);
  b.cphase(0.51, 0, 1);
  EXPECT_EQ(checkEquivalence(a, b), Equivalence::NotEquivalent);
}

TEST(Equivalence, SwapDecomposition) {
  ir::Circuit swapGate(2);
  swapGate.swap(0, 1);
  ir::Circuit threeCx(2);
  threeCx.cx(0, 1);
  threeCx.cx(1, 0);
  threeCx.cx(0, 1);
  EXPECT_EQ(checkEquivalence(swapGate, threeCx), Equivalence::Equivalent);
}

TEST(Equivalence, QasmRoundTripPreservesSemantics) {
  const auto circuit = test::randomCircuit(4, 25, 29);
  const auto reparsed = ir::parseQasm(ir::toQasm(circuit));
  EXPECT_TRUE(areEquivalent(circuit, reparsed));
}

TEST(Equivalence, OracleAgainstGateRealization) {
  ir::Circuit withOracle(2);
  withOracle.oracle("inc", 2, [](std::uint64_t x) { return (x + 1) % 4; });
  ir::Circuit withGates(2);
  withGates.cx(0, 1);
  withGates.x(0);
  EXPECT_EQ(checkEquivalence(withOracle, withGates), Equivalence::Equivalent);
}

TEST(Equivalence, CompoundBlocksExpandCorrectly) {
  ir::Circuit repeated(2);
  ir::Circuit block(2);
  block.t(0);
  block.cx(0, 1);
  repeated.appendRepeated(std::move(block), 3, "b");

  ir::Circuit unrolled(2);
  for (int i = 0; i < 3; ++i) {
    unrolled.t(0);
    unrolled.cx(0, 1);
  }
  EXPECT_EQ(checkEquivalence(repeated, unrolled), Equivalence::Equivalent);
}

TEST(Equivalence, GroverIterationNotIdentity) {
  const auto iteration = algo::makeGroverIteration(4, 11);
  ir::Circuit identity(4);
  EXPECT_EQ(checkEquivalence(iteration, identity), Equivalence::NotEquivalent);
}

TEST(Equivalence, QFTTimesInverseQFT) {
  ir::Circuit both(5);
  std::vector<ir::Qubit> qs{0, 1, 2, 3, 4};
  algo::appendQFT(both, qs);
  algo::appendInverseQFT(both, qs);
  ir::Circuit identity(5);
  EXPECT_EQ(checkEquivalence(both, identity), Equivalence::Equivalent);
}

TEST(Equivalence, RejectsMeasurement) {
  ir::Circuit a(1, 1);
  a.measure(0, 0);
  ir::Circuit b(1, 1);
  EXPECT_THROW(checkEquivalence(a, b), std::invalid_argument);
}

TEST(BuildCircuitMatrix, MatchesDenseProduct) {
  const auto circuit = test::randomCircuit(3, 15, 31);
  dd::Package pkg(3);
  const dd::MEdge u = buildCircuitMatrix(pkg, circuit);
  const auto got = pkg.getMatrix(u);

  baseline::DenseMatrix expected = baseline::DenseMatrix::identity(8);
  for (const auto& op : circuit.ops()) {
    const auto& s = static_cast<const ir::StandardOperation&>(*op);
    if (s.type() == ir::GateType::Swap) {
      const auto x = ir::gateMatrix(ir::GateType::X);
      dd::Controls ca = s.controls();
      ca.push_back(dd::Control{s.targets()[0]});
      dd::Controls cb = s.controls();
      cb.push_back(dd::Control{s.targets()[1]});
      expected = baseline::expandGate(x, 3, s.targets()[1], ca) *
                 (baseline::expandGate(x, 3, s.targets()[0], cb) *
                  (baseline::expandGate(x, 3, s.targets()[1], ca) * expected));
    } else {
      expected =
          baseline::expandGate(s.matrix(), 3, s.targets()[0], s.controls()) *
          expected;
    }
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].r, expected.at(i / 8, i % 8).real(), 1e-8);
    EXPECT_NEAR(got[i].i, expected.at(i / 8, i % 8).imag(), 1e-8);
  }
}

TEST(BuildCircuitMatrix, RepeatedBlocksKeepThePackageReferences) {
  // Two repeated-block circuits built in one package: each block build must
  // leave the package's pinned identity as it found it and release every
  // node it rooted itself.
  const auto withBlock = [](double angle) {
    ir::Circuit block(2);
    block.rz(angle, 0);
    block.cx(0, 1);
    ir::Circuit circuit(2);
    circuit.h(1);
    circuit.appendRepeated(std::move(block), 3, "b");
    return circuit;
  };
  dd::Package pkg(2);
  const std::uint32_t pinned = pkg.makeIdent().p->ref;
  pkg.garbageCollect();
  const std::size_t live = pkg.liveNodes();
  for (const double angle : {0.3, 1.1}) {
    (void)buildCircuitMatrix(pkg, withBlock(angle));
    EXPECT_EQ(pkg.makeIdent().p->ref, pinned);
  }
  pkg.garbageCollect();
  EXPECT_EQ(pkg.liveNodes(), live);
}

}  // namespace
}  // namespace ddsim::sim
