#include <gtest/gtest.h>

#include <numbers>
#include <random>

#include "algo/grover.hpp"
#include "algo/qft.hpp"
#include "algo/supremacy.hpp"
#include "baseline/dense_matrix.hpp"
#include "baseline/statevector.hpp"
#include "dd/migration.hpp"
#include "dd/package.hpp"
#include "ir/gate.hpp"
#include "sim/simulator.hpp"
#include "wire/wire.hpp"
#include "test_util.hpp"

namespace ddsim::dd {
namespace {

TEST(Package, RejectsBadQubitCounts) {
  EXPECT_THROW(Package(0), std::invalid_argument);
  EXPECT_THROW(Package(63), std::invalid_argument);
  EXPECT_NO_THROW(Package(1));
}

TEST(Package, ZeroStateStructure) {
  Package p(3);
  const VEdge zero = p.makeZeroState();
  // |000>: one node per qubit plus the terminal.
  EXPECT_EQ(p.size(zero), 4U);
  EXPECT_TRUE(zero.w->exactlyOne());
  auto vec = p.getVector(zero);
  EXPECT_NEAR(vec[0].r, 1.0, 1e-12);
  for (std::size_t i = 1; i < vec.size(); ++i) {
    EXPECT_NEAR(vec[i].mag2(), 0.0, 1e-12);
  }
}

TEST(Package, BasisStates) {
  Package p(4);
  for (std::uint64_t bits = 0; bits < 16; ++bits) {
    const VEdge v = p.makeBasisState(bits);
    const auto amp = p.getAmplitude(v, bits);
    EXPECT_NEAR(amp.r, 1.0, 1e-12);
    EXPECT_NEAR(p.norm2(v), 1.0, 1e-12);
    // All other amplitudes vanish.
    for (std::uint64_t other = 0; other < 16; ++other) {
      if (other != bits) {
        EXPECT_NEAR(p.getAmplitude(v, other).mag2(), 0.0, 1e-12);
      }
    }
  }
  EXPECT_THROW(p.makeBasisState(16), std::invalid_argument);
}

TEST(Package, CanonicityIdenticalStatesShareNodes) {
  Package p(5);
  std::mt19937_64 rng(7);
  const auto amps = test::randomAmplitudes(5, rng);
  const VEdge a = p.makeStateFromVector(amps);
  const VEdge b = p.makeStateFromVector(amps);
  EXPECT_EQ(a.p, b.p);
  EXPECT_EQ(a.w, b.w);
}

TEST(Package, StateFromVectorRoundTrip) {
  Package p(6);
  std::mt19937_64 rng(3);
  const auto amps = test::randomAmplitudes(6, rng);
  const VEdge v = p.makeStateFromVector(amps);
  test::expectAmplitudesNear(p.getVector(v), amps);
  EXPECT_NEAR(p.norm2(v), 1.0, 1e-9);
}

TEST(Package, RedundantStateCompresses) {
  // Uniform superposition: every level has identical sub-vectors, so the DD
  // collapses to one node per qubit (the compactness argument of Fig. 2).
  Package p(8);
  std::vector<ComplexValue> amps(1ULL << 8, ComplexValue{1.0 / 16.0, 0.0});
  const VEdge v = p.makeStateFromVector(amps);
  EXPECT_EQ(p.size(v), 9U);
}

TEST(Package, NormalizationMaxMagnitudeIsOne) {
  Package p(4);
  std::mt19937_64 rng(11);
  const VEdge v = p.makeStateFromVector(test::randomAmplitudes(4, rng));
  // Walk all reachable nodes and check the normalization invariant.
  std::vector<const VNode*> stack{v.p};
  while (!stack.empty()) {
    const VNode* n = stack.back();
    stack.pop_back();
    if (n->isTerminal()) {
      continue;
    }
    double maxMag = 0;
    for (const auto& e : n->e) {
      maxMag = std::max(maxMag, e.w->mag2());
      stack.push_back(e.p);
    }
    EXPECT_NEAR(maxMag, 1.0, 1e-9);
  }
}

TEST(Package, IdentityIsLinearSize) {
  Package p(10);
  const MEdge id = p.makeIdent();
  EXPECT_EQ(p.size(id), 11U);  // one node per qubit + terminal
  EXPECT_TRUE(id.w->exactlyOne());
}

TEST(Package, IdentityActsTrivially) {
  Package p(5);
  std::mt19937_64 rng(19);
  const VEdge v = p.makeStateFromVector(test::randomAmplitudes(5, rng));
  const VEdge w = p.multiply(p.makeIdent(), v);
  EXPECT_EQ(w.p, v.p);
  EXPECT_NEAR(p.fidelity(v, w), 1.0, 1e-10);
}

TEST(Package, GateDDIsLinearForSingleQubitGate) {
  // The motivating observation of Section III: elementary-operation DDs are
  // linear in the number of qubits.
  Package p(16);
  const GateMatrix h = ir::gateMatrix(ir::GateType::H);
  const MEdge gate = p.makeGateDD(h, 7);
  EXPECT_EQ(p.size(gate), 17U);
}

TEST(Package, GateDDControlValidation) {
  Package p(3);
  const GateMatrix x = ir::gateMatrix(ir::GateType::X);
  EXPECT_THROW(p.makeGateDD(x, 1, {Control{1}}), std::invalid_argument);
  EXPECT_THROW(p.makeGateDD(x, 1, {Control{5}}), std::invalid_argument);
}

TEST(Package, RefCountingKeepsRootsAliveThroughGC) {
  Package p(4);
  std::mt19937_64 rng(23);
  const auto amps = test::randomAmplitudes(4, rng);
  VEdge v = p.makeStateFromVector(amps);
  p.incRef(v);

  // Generate garbage.
  for (int i = 0; i < 50; ++i) {
    p.makeStateFromVector(test::randomAmplitudes(4, rng));
  }
  const std::size_t before = p.vNodeCount();
  const std::size_t collected = p.garbageCollect();
  EXPECT_GT(collected, 0U);
  EXPECT_LT(p.vNodeCount(), before);

  // The rooted state is intact.
  test::expectAmplitudesNear(p.getVector(v), amps);
  p.decRef(v);
}

TEST(Package, GarbageCollectReclaimsUnreferencedNodes) {
  Package p(6);
  std::mt19937_64 rng(29);
  for (int i = 0; i < 10; ++i) {
    p.makeStateFromVector(test::randomAmplitudes(6, rng));
  }
  EXPECT_GT(p.vNodeCount(), 0U);
  p.garbageCollect();
  EXPECT_EQ(p.vNodeCount(), 0U);
  // Identity DDs are pinned and survive.
  const MEdge id = p.makeIdent();
  p.garbageCollect();
  EXPECT_EQ(p.size(id), 7U);
}

TEST(Package, GarbageCollectSweepsComplexTable) {
  Package p(6);
  std::mt19937_64 rng(41);
  const auto amps = test::randomAmplitudes(6, rng);
  VEdge keep = p.makeStateFromVector(amps);
  p.incRef(keep);
  for (int i = 0; i < 20; ++i) {
    p.makeStateFromVector(test::randomAmplitudes(6, rng));
  }
  const std::size_t before = p.complexTable().size();
  p.garbageCollect();
  EXPECT_LT(p.complexTable().size(), before);
  // The rooted state (including its canonical weights) is intact.
  test::expectAmplitudesNear(p.getVector(keep), amps);
  EXPECT_NEAR(p.norm2(keep), 1.0, 1e-9);
  p.decRef(keep);
}

TEST(Package, BytesAllocatedCountsComplexTableMemory) {
  Package p(2);
  const std::size_t before = p.bytesAllocated();
  const std::size_t tableBefore = p.complexTable().bytes();
  for (int k = 0; k < 5000; ++k) {
    p.complexTable().lookup(0.3 + k * 1e-4, -0.2);
  }
  const std::size_t grown = p.bytesAllocated();
  // Every interned weight costs at least its value and a chain link.
  EXPECT_GE(grown - before, 5000 * (sizeof(ComplexValue) + sizeof(void*)));
  EXPECT_EQ(grown - before, p.complexTable().bytes() - tableBefore);
  // Known weights cost nothing.
  for (int k = 0; k < 5000; ++k) {
    p.complexTable().lookup(0.3 + k * 1e-4, -0.2);
  }
  EXPECT_EQ(p.bytesAllocated(), grown);
}

TEST(Package, ComplexTableStaysBoundedOverManyGenerations) {
  Package p(5);
  std::mt19937_64 rng(43);
  std::size_t peak = 0;
  for (int gen = 0; gen < 30; ++gen) {
    p.makeStateFromVector(test::randomAmplitudes(5, rng));
    p.garbageCollect();
    peak = std::max(peak, p.complexTable().size());
  }
  // Without weight GC this would be ~30 generations x 32 fresh weights; with
  // it, at most one generation's weights are alive after each sweep.
  EXPECT_LT(peak, 200U);
}

TEST(Package, SizeCountsSharedNodesOnce) {
  Package p(2);
  // |00> + |11> (Bell pair, unnormalized weights handled by the package).
  std::vector<ComplexValue> amps = {
      {std::numbers::sqrt2 / 2, 0}, {0, 0}, {0, 0}, {std::numbers::sqrt2 / 2, 0}};
  const VEdge bell = p.makeStateFromVector(amps);
  // Root, two distinct level-0 nodes, terminal.
  EXPECT_EQ(p.size(bell), 4U);
  EXPECT_NEAR(p.norm2(bell), 1.0, 1e-12);
}

TEST(Package, CacheStatsReflectMemoization) {
  Package p(6);
  std::mt19937_64 rng(47);
  const VEdge v = p.makeStateFromVector(test::randomAmplitudes(6, rng));
  const MEdge h = p.makeGateDD(ir::gateMatrix(ir::GateType::H), 2);
  // First application populates the caches, second hits them.
  (void)p.multiply(h, v);
  const CacheStats before = p.cacheStats();
  (void)p.multiply(h, v);
  const CacheStats after = p.cacheStats();
  EXPECT_GT(after.mulMVHits, before.mulMVHits);
  EXPECT_EQ(after.mulMVMisses, before.mulMVMisses);
  // Constructing the same state twice is pure unique-table hits.
  EXPECT_GT(after.uniqueTableHits + after.uniqueTableMisses, 0U);
  EXPECT_GT(after.complexTableHits, 0U);
  EXPECT_GT(CacheStats::rate(after.mulMVHits, after.mulMVMisses), 0.0);
  EXPECT_EQ(CacheStats::rate(0, 0), 0.0);
}

TEST(Package, StatsTrackPeakNodes) {
  Package p(6);
  std::mt19937_64 rng(31);
  p.makeStateFromVector(test::randomAmplitudes(6, rng));
  EXPECT_GT(p.stats().peakLiveNodes, 0U);
}

TEST(Package, MakeMatrixFromDenseRoundTrip) {
  Package p(3);
  std::mt19937_64 rng(37);
  std::normal_distribution<double> dist;
  std::vector<ComplexValue> m(64);
  for (auto& e : m) {
    e = {dist(rng), dist(rng)};
  }
  const MEdge dd = p.makeMatrixFromDense(m);
  const auto back = p.getMatrix(dd);
  test::expectAmplitudesNear(back, m);
}

TEST(Package, PermutationDDMatchesTable) {
  Package p(3);
  const std::vector<std::uint64_t> perm = {3, 1, 0, 2, 7, 6, 5, 4};
  const MEdge dd = p.makePermutationDD(perm);
  const auto mat = p.getMatrix(dd);
  const std::size_t dim = 8;
  for (std::size_t col = 0; col < dim; ++col) {
    for (std::size_t row = 0; row < dim; ++row) {
      const double expected = perm[col] == row ? 1.0 : 0.0;
      EXPECT_NEAR(mat[row * dim + col].r, expected, 1e-12)
          << "row " << row << " col " << col;
      EXPECT_NEAR(mat[row * dim + col].i, 0.0, 1e-12);
    }
  }
}

TEST(Package, PermutationDDIdentityIsCompact) {
  Package p(8);
  std::vector<std::uint64_t> identity(256);
  for (std::uint64_t i = 0; i < identity.size(); ++i) {
    identity[i] = i;
  }
  const MEdge dd = p.makePermutationDD(identity);
  EXPECT_EQ(p.size(dd), 9U);
  EXPECT_EQ(dd.p, p.makeIdent().p);
}

TEST(Package, PermutationDDRejectsNonBijections) {
  Package p(2);
  EXPECT_THROW(p.makePermutationDD({0, 1, 2}), std::invalid_argument);
}

TEST(Package, ControlledPermutationDD) {
  Package p(3);
  // X on the low 2 qubits' value (x -> x ^ 3), controlled on qubit 2.
  const std::vector<std::uint64_t> perm = {3, 2, 1, 0};
  const MEdge dd = p.makePermutationDD(perm, {Control{2}});
  const auto mat = p.getMatrix(dd);
  const std::size_t dim = 8;
  for (std::size_t col = 0; col < dim; ++col) {
    const std::size_t expectRow =
        (col & 4U) != 0 ? (4U | perm[col & 3U]) : col;
    for (std::size_t row = 0; row < dim; ++row) {
      EXPECT_NEAR(mat[row * dim + col].r, row == expectRow ? 1.0 : 0.0, 1e-12);
    }
  }
}


// ------------------------------------------------- demand-sized tables

/// Synthetic compute-table keys: distinct nodes, one weight. Set indices
/// hash node ids, so each node gets its own, as MemoryManager::get() would.
class TableKeys {
 public:
  explicit TableKeys(std::size_t n) : nodes_(n) {
    for (std::size_t i = 0; i < n; ++i) {
      nodes_[i].id = i + 1;
    }
  }
  [[nodiscard]] VEdge key(std::size_t i) { return {&nodes_[i], &w_}; }

 private:
  std::vector<VNode> nodes_;
  ComplexValue w_{0.5, 0.0};
};

using SyntheticTable = ComputeTable<VEdge, VEdge, std::uint64_t>;

TEST(TableGrowth, ComputeTableKeepsHittingAcrossAResize) {
  SyntheticTable table;
  const std::size_t initial = table.capacity();
  ASSERT_EQ(initial, SyntheticTable::kInitialEntries);
  TableKeys keys(initial);
  const auto never = [](const auto&) noexcept { return false; };

  // One insert short of the trigger: the table still has its first size.
  for (std::size_t i = 0; i + 1 < initial; ++i) {
    table.insert(keys.key(i), keys.key(i), i, 0);
  }
  ASSERT_EQ(table.capacity(), initial);
  std::vector<std::size_t> present;
  for (std::size_t i = 0; i + 1 < initial; ++i) {
    std::uint64_t out = 0;
    if (table.lookup(keys.key(i), keys.key(i), out, never)) {
      ASSERT_EQ(out, i);
      present.push_back(i);
    }
  }
  ASSERT_GT(present.size(), initial / 2);

  // The trigger refreshes a present key, so it evicts nothing itself.
  const std::size_t again = present.front();
  table.insert(keys.key(again), keys.key(again), again, 0);
  EXPECT_EQ(table.capacity(), initial * SyntheticTable::kGrowthFactor);
  // Every entry that was live before the resize still hits, with its value;
  // the new set count only spreads the old sets, it never evicts.
  for (const std::size_t i : present) {
    std::uint64_t out = 0;
    ASSERT_TRUE(table.lookup(keys.key(i), keys.key(i), out, never)) << i;
    EXPECT_EQ(out, i);
  }
}

TEST(TableGrowth, StaleEntriesRevalidateOrDropAfterAResize) {
  SyntheticTable table;
  const std::size_t initial = table.capacity();
  TableKeys keys(initial);
  for (std::size_t i = 0; i + 1 < initial; ++i) {
    table.insert(keys.key(i), keys.key(i), i, /*stamp=*/i);
  }
  // A collection makes every entry stale, then the resize happens while
  // they are stale: it must carry their generation and stamp over.
  table.newGeneration();
  table.insert(keys.key(initial - 1), keys.key(initial - 1), initial - 1, 0);
  ASSERT_EQ(table.capacity(), initial * SyntheticTable::kGrowthFactor);

  std::size_t revalidated = 0;
  std::size_t checked = 0;
  for (std::size_t i = 0; i + 1 < initial; ++i) {
    bool asked = false;
    // "Operands survived" for even keys only; the stamp is carried over.
    const auto survivesIfEven = [&asked, i](const auto& e) noexcept {
      asked = true;
      EXPECT_EQ(e.stamp, i);
      return i % 2 == 0;
    };
    std::uint64_t out = 0;
    const bool hit =
        table.lookup(keys.key(i), keys.key(i), out, survivesIfEven);
    if (!asked) {
      EXPECT_FALSE(hit) << "a stale entry must never hit unrevalidated";
      continue;  // evicted before the collection, or by the trigger insert
    }
    ++checked;
    EXPECT_EQ(hit, i % 2 == 0) << i;
    if (hit) {
      EXPECT_EQ(out, i);
      ++revalidated;
      // Re-tagged: the next lookup is a plain hit, no revalidation.
      bool askedAgain = false;
      const auto track = [&askedAgain](const auto&) noexcept {
        askedAgain = true;
        return false;
      };
      EXPECT_TRUE(table.lookup(keys.key(i), keys.key(i), out, track));
      EXPECT_FALSE(askedAgain);
    } else {
      // Dropped: gone for good even if it would now revalidate.
      const auto always = [](const auto&) noexcept { return true; };
      EXPECT_FALSE(table.lookup(keys.key(i), keys.key(i), out, always));
    }
  }
  ASSERT_GT(checked, initial / 2);
  const ComputeTableCounters c = table.counters();
  EXPECT_EQ(c.retained, revalidated);
  EXPECT_EQ(c.staleDropped, checked - revalidated);
}

TEST(TableGrowth, UniqueTableRehashKeepsNodesCanonical) {
  MemoryManager<VNode> mm;
  UniqueTable<VNode> table(mm);
  table.resize(2);
  VNode terminal;
  terminal.v = kTerminalVar;
  const std::size_t initial = UniqueTable<VNode>::kInitialBucketsPerVar;
  // One node past an average chain length of kMaxAverageChain.
  const std::size_t fill =
      UniqueTable<VNode>::kMaxAverageChain * initial + 1;
  // Distinct weight pointers make distinct nodes.
  const std::vector<ComplexValue> weights(fill, ComplexValue{0.5, 0.0});
  const auto candidate = [&](Qubit var, std::size_t i) {
    VNode* c = mm.get();
    c->v = var;
    c->e = {VEdge{&terminal, &weights[0]}, VEdge{&terminal, &weights[i]}};
    return c;
  };

  ASSERT_EQ(table.bucketCount(0), initial);
  ASSERT_EQ(table.bucketBytes(), 2 * initial * sizeof(VNode*));
  VNode* first = table.lookup(candidate(0, 0));
  std::vector<VNode*> nodes{first};
  for (std::size_t i = 1; i < fill; ++i) {
    nodes.push_back(table.lookup(candidate(0, i)));
  }
  const std::size_t grown = initial * UniqueTable<VNode>::kGrowthFactor;
  EXPECT_EQ(table.bucketCount(0), grown);
  EXPECT_EQ(table.bucketCount(1), initial);  // rehash is per variable
  EXPECT_EQ(table.bucketBytes(), (grown + initial) * sizeof(VNode*));

  // Identical candidates resolve to the very same nodes after the rehash.
  const std::size_t hitsBefore = table.hits();
  EXPECT_EQ(table.lookup(candidate(0, 0)), first);
  EXPECT_EQ(table.lookup(candidate(0, fill - 1)), nodes.back());
  EXPECT_EQ(table.hits(), hitsBefore + 2);  // both candidates recycled

  for (std::size_t i = 0; i < 3; ++i) {
    table.lookup(candidate(1, i))->ref = 1;
  }
  EXPECT_EQ(table.liveCount(0), fill);
  EXPECT_EQ(table.liveCount(1), 3U);
  EXPECT_EQ(table.liveCount(), fill + 3);

  // Keep every tenth variable-0 node; GC updates both counts.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < nodes.size(); i += 10) {
    nodes[i]->ref = 1;
    ++kept;
  }
  EXPECT_EQ(table.garbageCollect(), fill - kept);
  EXPECT_EQ(table.liveCount(0), kept);
  EXPECT_EQ(table.liveCount(1), 3U);
  EXPECT_EQ(table.liveCount(), kept + 3);
  std::size_t visited = 0;
  table.forEach([&visited](const VNode*) { ++visited; });
  EXPECT_EQ(visited, kept + 3);
  EXPECT_EQ(table.lookup(candidate(0, 0)), first);  // survivor still found
}

TEST(TableGrowth, FreshPackageStartsSmall) {
  const Package p(20);
  // Only the initial unique-table buckets exist before the first gate.
  EXPECT_LT(p.bytesAllocated(), std::size_t{1} << 20);
}

// ------------------------------------------------------- kernel canonicity

std::vector<ComplexValue> toValues(const std::vector<std::complex<double>>& v) {
  std::vector<ComplexValue> out;
  out.reserve(v.size());
  for (const auto& z : v) {
    out.push_back(ComplexValue::fromStd(z));
  }
  return out;
}

std::vector<std::complex<double>> toStd(const std::vector<ComplexValue>& v) {
  std::vector<std::complex<double>> out;
  out.reserve(v.size());
  for (const auto& z : v) {
    out.push_back(z.toStd());
  }
  return out;
}

/// Dense 2^n x 2^n matrix with independent standard-normal entries.
baseline::DenseMatrix randomDense(std::size_t n, std::mt19937_64& rng) {
  std::normal_distribution<double> dist;
  baseline::DenseMatrix m(std::size_t{1} << n);
  for (std::size_t r = 0; r < m.dim(); ++r) {
    for (std::size_t c = 0; c < m.dim(); ++c) {
      m.at(r, c) = {dist(rng), dist(rng)};
    }
  }
  return m;
}

/// A controlled random 2x2 gate on \p n qubits, as a DD and as a dense matrix.
std::pair<MEdge, baseline::DenseMatrix> randomGate(Package& p, std::size_t n,
                                                   std::mt19937_64& rng) {
  std::normal_distribution<double> dist;
  GateMatrix g;
  for (auto& e : g) {
    e = {dist(rng), dist(rng)};
  }
  const auto target = static_cast<Qubit>(rng() % n);
  Controls controls;
  if (n > 1) {
    const auto control = static_cast<Qubit>((target + 1 + rng() % (n - 1)) % n);
    controls.push_back({control, rng() % 2 == 0});
  }
  return {p.makeGateDD(g, target, controls),
          baseline::expandGate(g, n, target, controls)};
}

template <std::size_t Arity>
void expectSameEdge(const Edge<Arity>& kernel, const Edge<Arity>& direct) {
  EXPECT_EQ(kernel.p, direct.p);
  EXPECT_TRUE(kernel.w->approximatelyEquals(*direct.w, 1e-12))
      << kernel.w->toString(17) << " vs " << direct.w->toString(17);
}

// The kernels carry weights as values and canonicalize only what a node or
// a returned root stores, so their results must land on exactly the nodes
// that building the dense result directly produces.
TEST(KernelCanonicity, AddMatchesTheDirectlyBuiltSum) {
  for (const std::size_t n : {1U, 3U, 6U, 8U}) {
    Package p(n);
    std::mt19937_64 rng(100 + n);
    const auto a = test::randomAmplitudes(n, rng);
    const auto b = test::randomAmplitudes(n, rng);
    std::vector<ComplexValue> sum(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      sum[i] = a[i] + b[i];
    }
    const VEdge viaAdd = p.add(p.makeStateFromVector(a), p.makeStateFromVector(b));
    expectSameEdge(viaAdd, p.makeStateFromVector(sum));

    const MEdge ma = p.makeMatrixFromDense(randomDense(n, rng).toComplexValues());
    const MEdge mb = p.makeMatrixFromDense(randomDense(n, rng).toComplexValues());
    const auto da = p.getMatrix(ma);
    const auto db = p.getMatrix(mb);
    std::vector<ComplexValue> msum(da.size());
    for (std::size_t i = 0; i < da.size(); ++i) {
      msum[i] = da[i] + db[i];
    }
    expectSameEdge(p.add(ma, mb), p.makeMatrixFromDense(msum));
  }
}

TEST(KernelCanonicity, MultiplyMatchesTheDirectlyBuiltProduct) {
  for (const std::size_t n : {1U, 3U, 6U, 8U}) {
    Package p(n);
    std::mt19937_64 rng(200 + n);
    const auto amps = test::randomAmplitudes(n, rng);
    const VEdge v = p.makeStateFromVector(amps);
    const auto [gate, denseGate] = randomGate(p, n, rng);
    const baseline::DenseMatrix denseA = randomDense(n, rng);
    const baseline::DenseMatrix denseB = randomDense(n, rng);
    const MEdge a = p.makeMatrixFromDense(denseA.toComplexValues());
    const MEdge b = p.makeMatrixFromDense(denseB.toComplexValues());

    // MxV with a gate DD and with a dense matrix.
    expectSameEdge(p.multiply(gate, v),
                   p.makeStateFromVector(toValues(denseGate * toStd(amps))));
    expectSameEdge(p.multiply(a, v),
                   p.makeStateFromVector(toValues(denseA * toStd(amps))));
    // MxM: gate·dense, dense·gate and (below 8 qubits, where it is cheap)
    // dense·dense.
    expectSameEdge(p.multiply(gate, a),
                   p.makeMatrixFromDense((denseGate * denseA).toComplexValues()));
    expectSameEdge(p.multiply(b, gate),
                   p.makeMatrixFromDense((denseB * denseGate).toComplexValues()));
    if (n < 8) {
      expectSameEdge(p.multiply(a, b),
                     p.makeMatrixFromDense((denseA * denseB).toComplexValues()));
    }
  }
}

TEST(KernelCanonicity, CancellationYieldsCanonicalZeros) {
  Package p(4);
  std::mt19937_64 rng(300);
  const auto amps = test::randomAmplitudes(4, rng);
  const VEdge v = p.makeStateFromVector(amps);
  std::vector<ComplexValue> negated;
  for (const auto& a : amps) {
    negated.push_back(a * -1.0);
  }
  EXPECT_EQ(p.add(v, p.makeStateFromVector(negated)), p.vZero());
  const MEdge m = p.makeMatrixFromDense(randomDense(4, rng).toComplexValues());
  EXPECT_EQ(p.add(m, MEdge{m.p, p.clookup(*m.w * -1.0)}), p.mZero());

  // Root weights 0.1 + 0.2 and -0.3 are distinct table entries whose sum,
  // ~5.6e-17, is no amplitude.
  const VEdge third{v.p, p.clookup({0.1 + 0.2, 0.0})};
  const VEdge minusThird{v.p, p.clookup({-0.3, 0.0})};
  ASSERT_NE(third.w, minusThird.w);
  EXPECT_EQ(p.add(third, minusThird), p.vZero());

  // The same cancellation one level down: amplitude 0 of the sum is ~1e-16
  // and must become a zero stub, not a tiny node weight.
  Package q(1);
  const VEdge a = q.makeStateFromVector(std::vector<ComplexValue>{{0.1 + 0.2, 0.0}, {0.6, 0.0}});
  const VEdge b = q.makeStateFromVector(std::vector<ComplexValue>{{-0.3, 0.0}, {0.8, 0.0}});
  const VEdge sum = q.add(a, b);
  EXPECT_EQ(sum.p->e[0], q.vZero());
  expectSameEdge(sum, q.makeStateFromVector(std::vector<ComplexValue>{{0.0, 0.0}, {1.4, 0.0}}));
}

TEST(KernelCanonicity, TinyOnlyChildBecomesTheTop) {
  // |w|^2 = 1e-14 is below the near-tie tolerance on squared magnitudes,
  // but the weight itself is no zero: it must become the normalizing top.
  Package p(1);
  const VEdge v =
      p.makeStateFromVector(std::vector<ComplexValue>{{0.0, 0.0}, {1e-7, 0.0}});
  EXPECT_EQ(v.p->e[0], p.vZero());
  EXPECT_EQ(v.p->e[1].w, p.cone());
  EXPECT_NEAR(p.getAmplitude(v, 1).r, 1e-7, 1e-20);
}

// Lookup budget: a recursive add snaps one weight, a multiply recursion
// none, a vector node its one stored ratio and the root its top weight.
// Snapping intermediate products or pushed weights again would break it.
TEST(KernelCanonicity, LookupsStayWithinOnePerCallAndNode) {
  Package p(10);
  std::mt19937_64 rng(400);
  const VEdge a = p.makeStateFromVector(test::randomAmplitudes(10, rng));
  const VEdge b = p.makeStateFromVector(test::randomAmplitudes(10, rng));
  std::vector<ComplexValue> dense4 = randomDense(4, rng).toComplexValues();
  const MEdge m = p.makeMatrixFromDense(dense4, {{9, true}, {6, false}});
  const auto [gate, denseGate] = randomGate(p, 10, rng);
  const auto measure = [&p](const char* what, const auto& op) {
    const CacheStats c0 = p.cacheStats();
    const PackageStats s0 = p.stats();
    op();
    const CacheStats c1 = p.cacheStats();
    const PackageStats s1 = p.stats();
    const std::uint64_t lookups = (c1.complexTableHits + c1.complexTableMisses) -
                                  (c0.complexTableHits + c0.complexTableMisses);
    const std::uint64_t calls =
        (s1.recursiveAddCalls + s1.recursiveMulVCalls + s1.recursiveMulMCalls) -
        (s0.recursiveAddCalls + s0.recursiveMulVCalls + s0.recursiveMulMCalls);
    const std::uint64_t nodes = (c1.uniqueTableHits + c1.uniqueTableMisses) -
                                (c0.uniqueTableHits + c0.uniqueTableMisses);
    EXPECT_GT(calls, 100U) << what;
    EXPECT_LE(lookups, calls + nodes + 1) << what << ": " << lookups
                                          << " lookups, " << calls << " calls, "
                                          << nodes << " nodes";
  };
  measure("add", [&] { (void)p.add(a, b); });
  measure("MxV", [&] { (void)p.multiply(m, a); });
  measure("gate MxV", [&] { (void)p.multiply(gate, b); });
}

// ------------------------------------------------------------ bit identity

/// wire::fnv1a of the flat final state of one simulation, written here
/// rather than by any envelope: the root edge, then each node's level and
/// its edges, an edge being its child index and the two weight components.
std::uint64_t finalStateDigest(const ir::Circuit& circuit,
                               const sim::StrategyConfig& config) {
  sim::CircuitSimulator simulator(circuit, config, /*seed=*/7);
  const sim::SimulationResult result = simulator.run();
  const FlatVectorDD flat = exportDD(simulator.package(), result.finalState);
  wire::WireWriter w;
  const auto edge = [&w](const FlatEdge& e) {
    w.i32(e.node);
    w.f64(e.w.r);
    w.f64(e.w.i);
  };
  edge(flat.root);
  for (const FlatNode<2>& n : flat.nodes) {
    w.i32(n.v);
    for (const FlatEdge& e : n.children) {
      edge(e);
    }
  }
  return wire::fnv1a(w.out.data(), w.out.size());
}

struct GoldenRun {
  ir::Circuit circuit;
  sim::StrategyConfig config;
};

/// Rotation-heavy runs: supremacy 4x4_8_1 seq, qft_10 k=4 on |1011001101>,
/// grover_10 seq.
std::vector<GoldenRun> goldenRuns() {
  ir::Circuit qft(10);
  for (ir::Qubit q : {0, 2, 3, 6, 7, 9}) {  // basis state |1011001101>
    qft.x(q);
  }
  qft.appendCircuit(algo::makeQFTCircuit(10));
  std::vector<GoldenRun> runs;
  runs.push_back({algo::makeSupremacyCircuit({4, 4, 8, 1}),
                  sim::StrategyConfig::sequential()});
  runs.push_back({std::move(qft), sim::StrategyConfig::kOperations(4)});
  runs.push_back({algo::makeGroverCircuit(10, 0x2b5),
                  sim::StrategyConfig::sequential()});
  return runs;
}

// Every edge weight of these rotation-heavy runs passes through the complex
// table, so a change in which entry represents a value (probe order, the
// oldest-first rule within a cell) or in where the kernels canonicalize
// changes the digest. A re-pin comes with the fidelity of the new states
// against the old ones, recorded in CHANGES.md.
TEST(DDGolden, RotationHeavyFinalStatesAreBitStable) {
  const std::vector<GoldenRun> runs = goldenRuns();
  EXPECT_EQ(finalStateDigest(runs[0].circuit, runs[0].config),
            0xb8826147681cb104ULL);
  EXPECT_EQ(finalStateDigest(runs[1].circuit, runs[1].config),
            0x30c6aed724c35448ULL);
  EXPECT_EQ(finalStateDigest(runs[2].circuit, runs[2].config),
            0x2b982943cd2e2e34ULL);
}

// The digests pin the representation; this pins the accuracy of the same
// final states against the dense state-vector simulation.
TEST(DDGolden, RotationHeavyFinalStatesMatchTheDenseBaseline) {
  for (const GoldenRun& run : goldenRuns()) {
    sim::CircuitSimulator simulator(run.circuit, run.config, /*seed=*/7);
    const sim::SimulationResult result = simulator.run();
    const auto dd = simulator.package().getVector(result.finalState);
    const auto dense = baseline::runOnStateVector(run.circuit, 7).state.amplitudes();
    ASSERT_EQ(dd.size(), dense.size());
    std::complex<double> overlap{};
    double normDd = 0.0;
    double normDense = 0.0;
    for (std::size_t i = 0; i < dd.size(); ++i) {
      overlap += std::conj(dense[i]) * dd[i].toStd();
      normDd += dd[i].mag2();
      normDense += std::norm(dense[i]);
    }
    EXPECT_GE(std::norm(overlap) / (normDd * normDense), 1.0 - 1e-12)
        << run.circuit.name();
  }
}

}  // namespace
}  // namespace ddsim::dd
