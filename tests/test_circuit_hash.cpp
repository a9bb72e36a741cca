/// Tests for the structural content hash that keys the serve-layer result
/// cache: stability across re-parsed identical QASM, sensitivity to every
/// outcome-relevant attribute, and canonicalization invariants (compound
/// folding, control ordering, name independence).

#include <gtest/gtest.h>

#include <cmath>

#include "algo/benchmarks.hpp"
#include "algo/grover.hpp"
#include "ir/circuit.hpp"
#include "ir/hash.hpp"
#include "ir/qasm.hpp"
#include "ir/transforms.hpp"
#include "sim/stats.hpp"

namespace ddsim {
namespace {

TEST(CircuitHash, DeterministicAcrossRebuilds) {
  const auto make = [] {
    ir::Circuit c(3, 3);
    c.h(0);
    c.cx(0, 1);
    c.cphase(0.25, 1, 2);
    c.measureAll();
    return c;
  };
  EXPECT_EQ(ir::contentHash(make()), ir::contentHash(make()));
}

TEST(CircuitHash, StableAcrossReparsedIdenticalQasm) {
  ir::Circuit c(4, 4);
  c.h(0);
  c.cx(0, 1);
  c.ccx(0, 1, 2);
  c.rz(std::acos(-1.0) / 3.0, 3);
  c.measureAll();
  const std::string qasm = ir::toQasm(c);
  const ir::Circuit once = ir::parseQasm(qasm);
  const ir::Circuit twice = ir::parseQasm(qasm);
  EXPECT_EQ(ir::contentHash(once), ir::contentHash(twice));
}

TEST(CircuitHash, IgnoresCircuitName) {
  ir::Circuit a(2);
  a.h(0);
  ir::Circuit b(2);
  b.h(0);
  b.setName("something else entirely");
  EXPECT_EQ(ir::contentHash(a), ir::contentHash(b));
}

TEST(CircuitHash, SensitiveToGateParameterChange) {
  ir::Circuit a(1);
  a.rx(0.5, 0);
  ir::Circuit b(1);
  b.rx(0.5000001, 0);
  EXPECT_NE(ir::contentHash(a), ir::contentHash(b));
}

TEST(CircuitHash, SensitiveToTargetAndControl) {
  ir::Circuit a(3);
  a.cx(0, 1);
  ir::Circuit b(3);
  b.cx(0, 2);
  ir::Circuit c(3);
  c.cx(1, 0);
  EXPECT_NE(ir::contentHash(a), ir::contentHash(b));
  EXPECT_NE(ir::contentHash(a), ir::contentHash(c));
}

TEST(CircuitHash, SensitiveToControlPolarity) {
  ir::Circuit pos(2);
  pos.gate(ir::GateType::X, 1, {ir::Control{0, true}});
  ir::Circuit neg(2);
  neg.gate(ir::GateType::X, 1, {ir::Control{0, false}});
  EXPECT_NE(ir::contentHash(pos), ir::contentHash(neg));
}

TEST(CircuitHash, ControlOrderIsCanonicalized) {
  ir::Circuit a(3);
  a.gate(ir::GateType::X, 2, {ir::Control{0}, ir::Control{1}});
  ir::Circuit b(3);
  b.gate(ir::GateType::X, 2, {ir::Control{1}, ir::Control{0}});
  EXPECT_EQ(ir::contentHash(a), ir::contentHash(b));
}

TEST(CircuitHash, SensitiveToWidthAndClbitWiring) {
  ir::Circuit a(2, 2);
  a.h(0);
  a.measure(0, 0);
  ir::Circuit wider(3, 2);
  wider.h(0);
  wider.measure(0, 0);
  ir::Circuit otherBit(2, 2);
  otherBit.h(0);
  otherBit.measure(0, 1);
  EXPECT_NE(ir::contentHash(a), ir::contentHash(wider));
  EXPECT_NE(ir::contentHash(a), ir::contentHash(otherBit));
}

TEST(CircuitHash, CompoundFoldingIsCanonicalized) {
  // A folded repetition hashes like its flattened expansion — the fold
  // changes scheduling opportunities, not the computation.
  const ir::Circuit grover = algo::makeGroverCircuit(6, 11);
  const ir::Circuit flat = grover.flattened();
  EXPECT_EQ(ir::contentHash(grover), ir::contentHash(flat));

  const ir::Circuit refolded = ir::detectRepetitions(flat);
  EXPECT_EQ(ir::contentHash(grover), ir::contentHash(refolded));
}

TEST(CircuitHash, BarriersAreSchedulingRelevant) {
  ir::Circuit a(2);
  a.h(0);
  a.h(1);
  ir::Circuit b(2);
  b.h(0);
  b.barrier();
  b.h(1);
  EXPECT_NE(ir::contentHash(a), ir::contentHash(b));
}

TEST(CircuitHash, OracleFunctionalityIsKeyed) {
  ir::Circuit a(3);
  a.oracle("f", 3, [](std::uint64_t x) { return x ^ 1U; });
  ir::Circuit b(3);
  b.oracle("f", 3, [](std::uint64_t x) { return x ^ 2U; });
  ir::Circuit c(3);
  c.oracle("f", 3, [](std::uint64_t x) { return x ^ 1U; });
  EXPECT_NE(ir::contentHash(a), ir::contentHash(b));
  EXPECT_EQ(ir::contentHash(a), ir::contentHash(c));
}

// The hash keys the on-disk result cache, so its values must not drift: a
// change here silently orphans every cached result. Negative controls,
// controls given out of order, a classically controlled gate and an oracle
// cover the paths the Shor pins below do not.
TEST(CircuitHash, GoldenValuesArePinned) {
  ir::Circuit negative(4, 1);
  negative.h(3);
  negative.gate(ir::GateType::X, 0, {ir::Control{3, false}, ir::Control{1}});
  negative.gate(ir::GateType::Phase, 2,
                {ir::Control{1, false}, ir::Control{0, false}}, {0.375});
  negative.measure(3, 0);
  negative.classicControlled(ir::GateType::RZ, 1, {ir::Control{2, false}},
                             {-0.0}, 0, false);

  ir::Circuit oracle(5);
  oracle.h(0);
  oracle.oracle("mul3mod7", 3,
                [](std::uint64_t x) { return x < 7 ? (3 * x) % 7 : x; },
                {ir::Control{4}, ir::Control{3, false}});

  const auto grover = algo::makeBenchmark("grover_5");
  const auto shor = algo::makeBenchmark("shor_15_7");
  ASSERT_TRUE(grover.has_value());
  ASSERT_TRUE(shor.has_value());
  EXPECT_EQ(ir::contentHash(*grover), 0xa27145d0e6818366ULL);
  EXPECT_EQ(ir::contentHash(*shor), 0x4c9b62956b1d14f1ULL);
  EXPECT_EQ(ir::contentHash(negative), 0x8e8b470f36a5918bULL);
  EXPECT_EQ(ir::contentHash(oracle), 0x84eaafee596497e0ULL);
}

// ------------------------------------------------- strategy-config hashing

// The Shor builders move their arithmetic blocks into the circuit instead
// of cloning them; the pinned values were captured with the cloning ones.
TEST(CircuitHash, ShorBuildersProduceThePinnedCircuits) {
  struct Pinned {
    const char* name;
    std::uint64_t hash;
    std::size_t ops;
    std::size_t flatGates;
  };
  for (const Pinned& pin : {Pinned{"shor_33_5", 0x8ff9ce970e8109deULL, 22732, 22720},
                            Pinned{"shor_119_15", 0xe8c868cd2d736872ULL, 37553, 37539}}) {
    const auto circuit = algo::makeBenchmark(pin.name);
    ASSERT_TRUE(circuit.has_value()) << pin.name;
    EXPECT_EQ(contentHash(*circuit), pin.hash) << pin.name;
    EXPECT_EQ(contentHash(circuit->flattened()), pin.hash) << pin.name;
    EXPECT_EQ(circuit->numOps(), pin.ops) << pin.name;
    EXPECT_EQ(circuit->flatGateCount(), pin.flatGates) << pin.name;
  }
}

TEST(StrategyConfigHash, DistinguishesSchedulesAndParameters) {
  using sim::StrategyConfig;
  const auto seq = StrategyConfig::sequential().contentHash();
  const auto k4 = StrategyConfig::kOperations(4).contentHash();
  const auto k8 = StrategyConfig::kOperations(8).contentHash();
  const auto ms = StrategyConfig::maxSizeStrategy(4096).contentHash();
  EXPECT_NE(seq, k4);
  EXPECT_NE(k4, k8);
  EXPECT_NE(k4, ms);

  StrategyConfig budget = StrategyConfig::kOperations(4);
  budget.nodeBudget = 100000;
  EXPECT_NE(k4, budget.contentHash());

  StrategyConfig approx = StrategyConfig::kOperations(4);
  approx.approximateFidelity = 0.99;
  EXPECT_NE(k4, approx.contentHash());
}

TEST(StrategyConfigHash, StableAcrossCopies) {
  sim::StrategyConfig a = sim::StrategyConfig::adaptive(0.3);
  a.reuseRepeatedBlocks = true;
  const sim::StrategyConfig b = a;
  EXPECT_EQ(a.contentHash(), b.contentHash());
}

}  // namespace
}  // namespace ddsim
