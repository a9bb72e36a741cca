#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "algo/grover.hpp"
#include "algo/qft.hpp"
#include "dd/migration.hpp"
#include "dd/package.hpp"
#include "sim/build_dd.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"
#include "wire/wire.hpp"

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

/// Combined matrix DD of a purely unitary circuit, built in \p pkg.
MEdge buildCircuitMatrix(Package& pkg, const ir::Circuit& circuit) {
  const ir::Circuit flat = circuit.flattened();
  MEdge acc = pkg.makeIdent();
  pkg.incRef(acc);
  for (const auto& op : flat.ops()) {
    const MEdge g = sim::buildOperationDD(pkg, *op);
    const MEdge combined = pkg.multiply(g, acc);
    pkg.incRef(combined);
    pkg.decRef(acc);
    acc = combined;
  }
  pkg.decRef(acc);
  return acc;
}

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
    const MEdge m = buildCircuitMatrix(a, *circuit);
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
  // emergency collection (released chunks, bumped incarnation stamps).
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

TEST(DDMigration, SerializedBytesRoundTrip) {
  const auto circuit = test::randomCircuit(5, 60, 13);
  SimulatedState src(circuit);
  const FlatVectorDD flat = exportDD(src.sim.package(), src.state);

  const std::vector<std::uint8_t> bytes = serializeDD(flat);
  EXPECT_EQ(deserializeVectorDD(bytes), flat);

  // Matrix arity through the same wire format.
  Package a(4);
  const MEdge m = buildCircuitMatrix(a, algo::makeQFTCircuit(4));
  a.incRef(m);
  const FlatMatrixDD mflat = exportDD(a, m);
  EXPECT_EQ(deserializeMatrixDD(serializeDD(mflat)), mflat);

  // Arity confusion is rejected: a vector blob is not a matrix blob.
  EXPECT_THROW((void)deserializeMatrixDD(bytes), MigrationError);
}

TEST(DDMigration, GoldenBlobPinsTheWireFormat) {
  // Byte-level golden blob: the serialized form of a small hand-built DD,
  // hardcoded so ANY change to the on-disk layout — field order, widths,
  // endianness, checksum chaining — fails this test instead of silently
  // breaking persisted spill files and cross-process migration. The format
  // is explicit little-endian; these bytes must decode identically on
  // every platform.
  //
  // Layout (offsets in bytes):
  //    0  u32  magic "MDdD" (0x4464444D)
  //    4  u16  version (2)
  //    6  u8   kind = arity (2 = vector)
  //    7  u8   reserved (0)
  //    8  u64  payload length (80: numQubits, node count, one 20-byte root
  //            edge and one 44-byte node)
  //   16  u64  FNV-1a over bytes 0..15, then the payload
  //   24  u64  numQubits (1)
  //   32  u64  node count (1, excluding the terminal)
  //   40  ...  root edge (i32 node index, f64 re, f64 im), then nodes
  //        (i32 level, then `arity` edges), children-before-parents.
  FlatVectorDD flat;
  flat.numQubits = 1;
  FlatNode<2> node;
  node.v = 0;
  node.children[0] = FlatEdge{kFlatTerminal, ComplexValue{1.0, 0.0}};
  node.children[1] = FlatEdge{kFlatTerminal, ComplexValue{0.5, -0.25}};
  flat.nodes.push_back(node);
  flat.root = FlatEdge{0, ComplexValue{0.75, 0.0}};

  const std::vector<std::uint8_t> kGoldenBlob = {
      0x4D, 0x44, 0x64, 0x44, 0x02, 0x00, 0x02, 0x00, 0x50, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x14, 0xC7, 0xA3, 0x4C, 0x67, 0xA3, 0x35, 0x80,
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0xE8, 0x3F, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0xF0, 0x3F, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xD0, 0xBF,
  };
  // Encode: byte-for-byte identical to the pinned blob.
  EXPECT_EQ(serializeDD(flat), kGoldenBlob);
  // Decode: the pinned bytes reproduce the DD exactly.
  EXPECT_EQ(deserializeVectorDD(kGoldenBlob), flat);
  // And the blob is semantically live, not just parseable: it imports into
  // a real package.
  Package pkg(1);
  const VEdge imported = importDD(pkg, deserializeVectorDD(kGoldenBlob));
  pkg.incRef(imported);
  EXPECT_EQ(pkg.size(imported), flat.nodeCount());
}

TEST(DDMigration, DeserializeRejectsBadMagicAndVersion) {
  const auto circuit = test::randomCircuit(3, 20, 37);
  SimulatedState src(circuit);
  const std::vector<std::uint8_t> bytes =
      serializeDD(exportDD(src.sim.package(), src.state));

  std::vector<std::uint8_t> badMagic = bytes;
  badMagic[0] ^= 0xFFU;
  EXPECT_THROW((void)deserializeVectorDD(badMagic), MigrationError);

  // Version field sits right after the 4-byte magic; a future version must
  // be rejected up front rather than misparsed.
  std::vector<std::uint8_t> badVersion = bytes;
  badVersion[4] += 1;
  EXPECT_THROW((void)deserializeVectorDD(badVersion), MigrationError);

  // A checksum-valid blob claiming the version-1 layout (44-byte header)
  // is refused, not decoded with shifted fields.
  const std::uint32_t magic = wire::peekU32(bytes.data());
  ASSERT_EQ(wire::peekU16(bytes.data() + 4), 2U);
  const wire::Opened opened = wire::open(bytes, magic, 2);
  const std::vector<std::uint8_t> v1 =
      wire::seal(magic, 1, opened.kind, opened.payload);
  try {
    (void)deserializeVectorDD(v1);
    FAIL() << "version-1 migration blob was accepted";
  } catch (const MigrationError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version 1"),
              std::string::npos)
        << e.what();
  }

  EXPECT_THROW((void)deserializeVectorDD(nullptr, 0), MigrationError);
}

TEST(DDMigration, SerializedBlobSurvivesReimportAcrossPackages) {
  // End-to-end: bytes produced from one package rebuild an amplitude-
  // identical state in a fresh package — the property checkpoint/resume
  // and the cache spill rely on.
  const auto circuit = test::randomCircuit(5, 60, 41);
  SimulatedState src(circuit);
  Package& a = src.sim.package();
  const std::vector<std::uint8_t> bytes = serializeDD(exportDD(a, src.state));

  Package b(5);
  const VEdge imported = importDD(b, deserializeVectorDD(bytes));
  b.incRef(imported);
  test::expectAmplitudesNear(b.getVector(imported), a.getVector(src.state),
                             1e-12);
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
