#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "algo/grover.hpp"
#include "algo/qft.hpp"
#include "dd/migration.hpp"
#include "dd/package.hpp"
#include "sim/equivalence.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace ddsim::dd {
namespace {

/// Final state of \p circuit simulated in a fresh simulator (the simulator
/// and its package are returned so the edge stays rooted).
struct SimulatedState {
  explicit SimulatedState(const ir::Circuit& circuit)
      : sim(circuit) {
    state = sim.run().finalState;
  }
  sim::CircuitSimulator sim;
  VEdge state{};
};

TEST(DDMigration, VectorRoundTripRandomCircuits) {
  for (const std::uint64_t seed : {7ULL, 21ULL, 99ULL}) {
    const auto circuit = test::randomCircuit(5, 60, seed);
    SimulatedState src(circuit);
    Package& a = src.sim.package();
    const FlatVectorDD flat = exportDD(a, src.state);
    EXPECT_EQ(flat.numQubits, 5U);
    EXPECT_EQ(flat.nodeCount(), a.size(src.state));

    Package b(5);
    const VEdge imported = importDD(b, flat);
    b.incRef(imported);
    // Same node count: the import reproduces the canonical shape.
    EXPECT_EQ(b.size(imported), a.size(src.state));
    // Same amplitudes (weights go through the destination's tolerance
    // snapping, so near-exact rather than bitwise).
    test::expectAmplitudesNear(b.getVector(imported), a.getVector(src.state),
                               1e-12);
    // Canonicity: re-exporting the imported DD reproduces the flat form —
    // node order, levels and normalized edge weights all round-trip.
    EXPECT_EQ(exportDD(b, imported), flat);
  }
}

TEST(DDMigration, VectorRoundTripFidelityViaReimport) {
  const auto circuit = test::randomCircuit(6, 80, 3);
  SimulatedState src(circuit);
  Package& a = src.sim.package();
  Package b(6);
  const VEdge viaB = importDD(b, exportDD(a, src.state));
  b.incRef(viaB);
  // Bounce the state back into the source package and compare there —
  // fidelity is only defined within one package.
  const VEdge back = importDD(a, exportDD(b, viaB));
  a.incRef(back);
  EXPECT_NEAR(a.fidelity(src.state, back), 1.0, 1e-12);
}

TEST(DDMigration, MatrixRoundTripGroverAndQFT) {
  const auto grover = algo::makeGroverIteration(5, 19);
  const auto qft = algo::makeQFTCircuit(5);
  for (const ir::Circuit* circuit : {&grover, &qft}) {
    Package a(5);
    const MEdge m = sim::buildCircuitMatrix(a, *circuit);
    a.incRef(m);
    const FlatMatrixDD flat = exportDD(a, m);
    EXPECT_EQ(flat.nodeCount(), a.size(m));

    Package b(5);
    const MEdge imported = importDD(b, flat);
    b.incRef(imported);
    EXPECT_EQ(b.size(imported), a.size(m));
    test::expectAmplitudesNear(b.getMatrix(imported), a.getMatrix(m), 1e-12);
    EXPECT_EQ(exportDD(b, imported), flat);
  }
}

TEST(DDMigration, SnappedZeroEdgeExportsAsCanonicalZero) {
  // makeMNode normalizes child weights by dividing through the maximum-
  // magnitude child and re-looking the quotient up in the complex table.
  // A quotient below the canonicalization tolerance snaps to the exact
  // zero pointer; the edge must then become the canonical zero stub
  // (terminal child), and export and import must keep it that way.
  Package a(2);
  const MEdge ident0 = a.makeIdent(0);  // internal level-0 node
  const MEdge big = {ident0.p, a.clookup({1e14, 0.0})};
  const MEdge tiny = {ident0.p, a.clookup({1.0, 0.0})};
  // Normalization divides by 1e14: child 1's weight becomes 1e-14, below
  // kTolerance, and snaps to the canonical zero stub.
  const MEdge m = a.makeMNode(1, {big, tiny, a.mZero(), a.mZero()});
  ASSERT_TRUE(m.p->e[1].p->isTerminal());
  ASSERT_TRUE(m.p->e[1].w->exactlyZero());
  a.incRef(m);

  const FlatMatrixDD flat = exportDD(a, m);
  for (const FlatNode<4>& n : flat.nodes) {
    for (const FlatEdge& e : n.children) {
      if (e.w.exactlyZero()) {
        EXPECT_EQ(e.node, kFlatTerminal);
      }
    }
  }

  Package b(2);
  const MEdge imported = importDD(b, flat);
  b.incRef(imported);
  test::expectAmplitudesNear(b.getMatrix(imported), a.getMatrix(m), 1e-3);
  EXPECT_EQ(exportDD(b, imported), flat);
}

TEST(DDMigration, ZeroVectorAndScalarRoots) {
  Package a(3);
  const FlatVectorDD flat = exportDD(a, a.vZero());
  EXPECT_EQ(flat.root.node, kFlatTerminal);
  EXPECT_TRUE(flat.root.w.exactlyZero());
  EXPECT_TRUE(flat.nodes.empty());

  Package b(3);
  const VEdge imported = importDD(b, flat);
  EXPECT_TRUE(imported.isZeroTerminal());
}

TEST(DDMigration, ImportDeduplicatesIntoUniqueTable) {
  const auto circuit = test::randomCircuit(4, 40, 11);
  SimulatedState src(circuit);
  const FlatVectorDD flat = exportDD(src.sim.package(), src.state);

  Package b(4);
  const VEdge first = importDD(b, flat);
  b.incRef(first);
  const VEdge second = importDD(b, flat);
  // The second import resolves every node through the unique table: same
  // canonical node, same canonical weight pointer.
  EXPECT_EQ(first.p, second.p);
  EXPECT_EQ(first.w, second.w);
}

TEST(DDMigration, ImportSurvivesEmergencyCollect) {
  const auto circuit = test::randomCircuit(5, 60, 5);
  SimulatedState src(circuit);
  Package& a = src.sim.package();
  const FlatVectorDD flat = exportDD(a, src.state);

  // Import into a package whose allocator already went through an
  // emergency collection (released chunks, stale compute-table entries
  // that point into them).
  Package b(5);
  const VEdge warmup = importDD(b, flat);
  b.incRef(warmup);
  b.emergencyCollect();
  const VEdge imported = importDD(b, flat);
  b.incRef(imported);
  test::expectAmplitudesNear(b.getVector(imported), a.getVector(src.state),
                             1e-12);

  // And the imported DD itself survives a later emergency collection (it
  // is rooted like any other edge).
  b.emergencyCollect();
  test::expectAmplitudesNear(b.getVector(imported), a.getVector(src.state),
                             1e-12);
}

TEST(DDMigration, ValidationRejectsMalformedInput) {
  Package dst(3);

  FlatVectorDD tooWide;
  tooWide.numQubits = 4;
  EXPECT_THROW((void)importDD(dst, tooWide), std::invalid_argument);

  // Child index at/after the parent (children must precede parents).
  FlatVectorDD forwardRef;
  forwardRef.numQubits = 2;
  forwardRef.nodes.push_back({0, {FlatEdge{kFlatTerminal, {1.0, 0.0}},
                                  FlatEdge{kFlatTerminal, {0.0, 0.0}}}});
  forwardRef.nodes.push_back({1, {FlatEdge{1, {1.0, 0.0}},
                                  FlatEdge{kFlatTerminal, {0.0, 0.0}}}});
  forwardRef.root = {1, {1.0, 0.0}};
  EXPECT_THROW((void)importDD(dst, forwardRef), std::invalid_argument);

  // Level gap: a level-2 node pointing at a level-0 child.
  FlatVectorDD levelGap;
  levelGap.numQubits = 3;
  levelGap.nodes.push_back({0, {FlatEdge{kFlatTerminal, {1.0, 0.0}},
                                FlatEdge{kFlatTerminal, {0.0, 0.0}}}});
  levelGap.nodes.push_back({2, {FlatEdge{0, {1.0, 0.0}},
                                FlatEdge{kFlatTerminal, {0.0, 0.0}}}});
  levelGap.root = {1, {1.0, 0.0}};
  EXPECT_THROW((void)importDD(dst, levelGap), std::invalid_argument);

  // Exactly-zero weight on an internal edge (zero edges must point at the
  // terminal).
  FlatVectorDD zeroEdge;
  zeroEdge.numQubits = 2;
  zeroEdge.nodes.push_back({0, {FlatEdge{kFlatTerminal, {1.0, 0.0}},
                                FlatEdge{kFlatTerminal, {0.0, 0.0}}}});
  zeroEdge.nodes.push_back({1, {FlatEdge{0, {0.0, 0.0}},
                                FlatEdge{0, {1.0, 0.0}}}});
  zeroEdge.root = {1, {1.0, 0.0}};
  EXPECT_THROW((void)importDD(dst, zeroEdge), std::invalid_argument);

  // Node index out of range.
  FlatVectorDD badRef;
  badRef.numQubits = 1;
  badRef.root = {3, {1.0, 0.0}};
  EXPECT_THROW((void)importDD(dst, badRef), std::invalid_argument);

  // Weighted terminal child above level 0.
  FlatVectorDD fatTerminal;
  fatTerminal.numQubits = 2;
  fatTerminal.nodes.push_back({1, {FlatEdge{kFlatTerminal, {1.0, 0.0}},
                                   FlatEdge{kFlatTerminal, {0.0, 0.0}}}});
  fatTerminal.root = {0, {1.0, 0.0}};
  EXPECT_THROW((void)importDD(dst, fatTerminal), std::invalid_argument);
}

TEST(DDMigration, SourcePackageUntouchedByExport) {
  const auto circuit = test::randomCircuit(5, 50, 17);
  SimulatedState src(circuit);
  Package& a = src.sim.package();
  const std::size_t liveBefore = a.liveNodes();
  const auto statsBefore = a.stats();
  const FlatVectorDD flat = exportDD(a, src.state);
  (void)flat;
  EXPECT_EQ(a.liveNodes(), liveBefore);
  EXPECT_EQ(a.stats().garbageCollections, statsBefore.garbageCollections);
}

}  // namespace
}  // namespace ddsim::dd
