/// Tests for the multi-core DD engine: concurrent canonicalization tables,
/// quadrant-parallel kernels, and their interaction with garbage collection.
///
/// The determinism contract under test: a parallel run performs the same
/// arithmetic in the same operand order as the serial recursion, so results
/// are bit-identical (not merely within tolerance) — every EXPECT below that
/// compares amplitudes uses exact double equality on purpose.

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "algo/grover.hpp"
#include "algo/supremacy.hpp"
#include "dd/complex_table.hpp"
#include "dd/memory_manager.hpp"
#include "dd/package.hpp"
#include "dd/unique_table.hpp"
#include "ir/gate.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace ddsim::dd {
namespace {

// ------------------------------------------------------- table-level races

TEST(ParallelTables, ComplexTableConcurrentLookupIsCanonical) {
  ComplexTable tab;
  tab.setConcurrent(true);

  // A fixed set of values, several of which collide within tolerance, so
  // racing threads are forced through overlapping shard lock sets.
  constexpr std::size_t kValues = 64;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 4000;
  std::vector<ComplexValue> values;
  values.reserve(kValues);
  std::mt19937_64 rng(4242);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (std::size_t i = 0; i < kValues / 2; ++i) {
    const ComplexValue v{dist(rng), dist(rng)};
    values.push_back(v);
    // A near-duplicate inside tolerance: must canonicalize to the same entry.
    values.push_back(ComplexValue{v.r + kTolerance / 4, v.i - kTolerance / 4});
  }

  std::vector<std::vector<CWeight>> seen(kThreads,
                                         std::vector<CWeight>(kValues));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t r = 0; r < kRounds; ++r) {
        const std::size_t i = (r + t * 17) % kValues;
        CWeight w = tab.lookup(values[i]);
        ASSERT_NE(w, nullptr);
        if (seen[t][i] == nullptr) {
          seen[t][i] = w;
        } else {
          // The canonical pointer for a value never changes mid-run.
          ASSERT_EQ(seen[t][i], w);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }

  // All threads agree on one canonical representative per value, and the
  // near-duplicates collapsed onto their base value's entry.
  for (std::size_t i = 0; i < kValues; ++i) {
    for (std::size_t t = 1; t < kThreads; ++t) {
      EXPECT_EQ(seen[0][i], seen[t][i]) << "value " << i;
    }
  }
  for (std::size_t i = 0; i < kValues; i += 2) {
    EXPECT_EQ(seen[0][i], seen[0][i + 1]) << "near-duplicate pair " << i;
  }

  // Quiescent point: GC drops everything unreferenced and the table shrinks
  // back to the two constants.
  tab.setConcurrent(false);
  EXPECT_GT(tab.garbageCollect({}), 0U);
  EXPECT_EQ(tab.size(), 2U);
}

TEST(ParallelTables, ComplexTableGrowsUnderConcurrentLookups) {
  // Enough distinct weights that the bucket array grows at least twice
  // (under every stripe) while other threads keep probing and inserting.
  ComplexTable tab;
  tab.setConcurrent(true);
  constexpr std::size_t kBase = 12000;
  constexpr std::size_t kThreads = 4;
  static_assert(kBase > ComplexTable::kMaxAverageChain *
                            ComplexTable::kInitialBuckets *
                            ComplexTable::kGrowthFactor,
                "two growths");
  // Value 2k is a base weight, value 2k+1 a near-duplicate within
  // tolerance of it: both must end up on one pointer.
  const auto value = [](std::size_t i) {
    const double x = 0.001 + static_cast<double>(i / 2) * 1e-4;
    const double d = i % 2 == 0 ? 0.0 : kTolerance / 3;
    return ComplexValue{x + d, -0.5 * x - d};
  };
  std::vector<std::vector<CWeight>> seen(
      kThreads, std::vector<CWeight>(2 * kBase, nullptr));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts at its own offset, so every weight is raced by
      // all threads at different sizes of the table.
      for (std::size_t r = 0; r < 2 * kBase; ++r) {
        const std::size_t i = (r + t * (2 * kBase / kThreads)) % (2 * kBase);
        seen[t][i] = tab.lookup(value(i));
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  tab.setConcurrent(false);

  EXPECT_GE(tab.bucketCount(), ComplexTable::kInitialBuckets *
                                   ComplexTable::kGrowthFactor *
                                   ComplexTable::kGrowthFactor);
  EXPECT_EQ(tab.size(), kBase + 2);
  for (std::size_t i = 0; i < 2 * kBase; ++i) {
    for (std::size_t t = 0; t < kThreads; ++t) {
      ASSERT_EQ(seen[t][i], seen[0][i & ~std::size_t{1}])
          << "value " << i << " thread " << t;
    }
    ASSERT_EQ(tab.lookup(value(i)), seen[0][i & ~std::size_t{1}]);
  }
}

TEST(ParallelTables, UniqueTableConcurrentInsertIsCanonical) {
  ComplexTable ctab;
  MemoryManager<VNode> mm;
  UniqueTable<VNode> ut(mm);
  ut.resize(1);
  mm.setConcurrent(true);
  ut.setConcurrent(true);

  VNode terminal;
  terminal.v = kTerminalVar;

  // A pool of weight pairs; every (wa, wb) pair describes one logical node
  // that all threads race to insert.
  constexpr std::size_t kKeys = 32;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 3000;
  std::vector<CWeight> wa(kKeys);
  std::vector<CWeight> wb(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) {
    wa[i] = ctab.lookup(0.25 + static_cast<double>(i), 0.0);
    wb[i] = ctab.lookup(0.0, -0.5 - static_cast<double>(i));
  }

  std::vector<std::vector<VNode*>> seen(kThreads,
                                        std::vector<VNode*>(kKeys, nullptr));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t r = 0; r < kRounds; ++r) {
        const std::size_t i = (r + t * 7) % kKeys;
        VNode* cand = mm.get();
        cand->v = 0;
        cand->next = nullptr;
        cand->ref = 0;
        cand->flags = 0;
        cand->e[0] = VEdge{&terminal, wa[i]};
        cand->e[1] = VEdge{&terminal, wb[i]};
        VNode* n = ut.lookup(cand);
        ASSERT_NE(n, nullptr);
        if (seen[t][i] == nullptr) {
          seen[t][i] = n;
        } else {
          ASSERT_EQ(seen[t][i], n);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }

  for (std::size_t i = 0; i < kKeys; ++i) {
    for (std::size_t t = 1; t < kThreads; ++t) {
      EXPECT_EQ(seen[0][i], seen[t][i]) << "key " << i;
    }
  }
  // Exactly one node per key survived the race.
  EXPECT_EQ(ut.liveCount(), kKeys);

  // Quiescent sweep recycles everything (ref == 0 throughout).
  ut.setConcurrent(false);
  mm.setConcurrent(false);
  EXPECT_EQ(ut.garbageCollect(), kKeys);
  EXPECT_EQ(ut.liveCount(), 0U);
}

TEST(ParallelTables, UniqueTableRehashesUnderConcurrentInserts) {
  // Enough distinct nodes on one variable that the bucket array is rehashed
  // (with every stripe held) while other threads keep inserting.
  ComplexTable ctab;
  MemoryManager<VNode> mm;
  UniqueTable<VNode> ut(mm);
  ut.resize(1);
  mm.setConcurrent(true);
  ut.setConcurrent(true);
  VNode terminal;
  terminal.v = kTerminalVar;

  constexpr std::size_t kKeys = 4000;
  constexpr std::size_t kThreads = 4;
  std::vector<CWeight> w(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) {
    w[i] = ctab.lookup(1.0 + static_cast<double>(i), 0.0);
  }
  std::vector<std::vector<VNode*>> seen(kThreads,
                                        std::vector<VNode*>(kKeys, nullptr));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the keys from its own offset, so every key is
      // raced by all threads at different moments of the table's growth.
      for (std::size_t r = 0; r < kKeys; ++r) {
        const std::size_t i = (r + t * (kKeys / kThreads)) % kKeys;
        VNode* cand = mm.get();
        cand->v = 0;
        cand->e = {VEdge{&terminal, w[i]}, VEdge{&terminal, w[i]}};
        seen[t][i] = ut.lookup(cand);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  ut.setConcurrent(false);
  mm.setConcurrent(false);

  EXPECT_GT(ut.bucketCount(0), UniqueTable<VNode>::kInitialBucketsPerVar);
  EXPECT_EQ(ut.liveCount(), kKeys);
  EXPECT_EQ(ut.liveCount(0), kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) {
    for (std::size_t t = 1; t < kThreads; ++t) {
      ASSERT_EQ(seen[0][i], seen[t][i]) << "key " << i;
    }
  }
}

TEST(ParallelTables, ComputeTableGrowsUnderConcurrentInserts) {
  // Racing inserters push the table through several resizes; a lookup may
  // miss (eviction) but a hit must always return its own key's value.
  ComputeTable<VEdge, VEdge, std::uint64_t> table;
  table.setConcurrent(true);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 20000;
  std::vector<VNode> nodes(kThreads * kPerThread);
  const ComplexValue weight{0.5, 0.0};
  const auto key = [&](std::size_t i) { return VEdge{&nodes[i], &weight}; };
  const auto never = [](const auto&) noexcept { return false; };

  std::atomic<std::size_t> wrong{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t r = 0; r < kPerThread; ++r) {
        const std::size_t i = t * kPerThread + r;
        table.insert(key(i), key(i), i, 0);
        // Probe an earlier key of this thread while others keep inserting.
        const std::size_t j = t * kPerThread + r / 2;
        std::uint64_t out = 0;
        if (table.lookup(key(j), key(j), out, never) && out != j) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  table.setConcurrent(false);
  EXPECT_EQ(wrong.load(), 0U);
  EXPECT_GT(table.capacity(), decltype(table)::kInitialEntries);
}

// --------------------------------------------------- kernel-level identity

/// Apply a deterministic pseudo-random gate sequence via top-level MxV
/// multiplications and return the final amplitude vector. With
/// \p rotations false the sequence is Clifford+T only: every weight the
/// recursion ever computes then has a single association order, so parallel
/// runs are *bit-identical* to serial ones. Random RZ angles additionally
/// exercise the ulp-level canonicalization caveat (see Package::setWorkers).
std::vector<ComplexValue> runMxV(Package& p, std::size_t numQubits,
                                 std::size_t numGates, bool rotations) {
  std::mt19937_64 rng(77);
  std::uniform_int_distribution<Qubit> qubit(
      0, static_cast<Qubit>(numQubits - 1));
  std::uniform_real_distribution<double> angle(0.0, 6.28);
  VEdge state = p.makeBasisState(0);
  p.incRef(state);
  for (std::size_t g = 0; g < numGates; ++g) {
    const Qubit target = qubit(rng);
    MEdge gate;
    switch (g % 4) {
      case 0:
        gate = p.makeGateDD(ir::gateMatrix(ir::GateType::H), target);
        break;
      case 1: {
        Qubit control = qubit(rng);
        if (control == target) {
          control = static_cast<Qubit>((target + 1) % numQubits);
        }
        gate = p.makeGateDD(ir::gateMatrix(ir::GateType::X), target,
                            Controls{Control{control, true}});
        break;
      }
      case 2: {
        if (rotations) {
          const double theta = angle(rng);
          gate = p.makeGateDD(ir::gateMatrix(ir::GateType::RZ, &theta), target);
        } else {
          angle(rng);  // keep the gate schedule identical either way
          gate = p.makeGateDD(ir::gateMatrix(ir::GateType::S), target);
        }
        break;
      }
      default:
        gate = p.makeGateDD(ir::gateMatrix(ir::GateType::T), target);
        break;
    }
    const VEdge next = p.multiply(gate, state);
    p.incRef(next);
    p.decRef(state);
    state = next;
  }
  auto amps = p.getVector(state);
  p.decRef(state);
  return amps;
}

TEST(ParallelKernels, MultiplyMxVBitIdenticalToSerial) {
  constexpr std::size_t kQubits = 9;
  constexpr std::size_t kGates = 60;
  Package serial(kQubits);
  Package parallel(kQubits);
  parallel.setWorkers(4);
  EXPECT_EQ(parallel.workers(), 4U);

  const auto expected = runMxV(serial, kQubits, kGates, /*rotations=*/false);
  const auto got = runMxV(parallel, kQubits, kGates, /*rotations=*/false);
  ASSERT_EQ(expected.size(), got.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].r, got[i].r) << "amplitude " << i;
    EXPECT_EQ(expected[i].i, got[i].i) << "amplitude " << i;
  }
}

TEST(ParallelKernels, MultiplyMxVWithRotationsMatchesSerialToUlp) {
  // With random RZ angles, algebraically equal weights reached through
  // different association orders differ in the last ulp; which one becomes
  // the tolerance class's canonical representative is insertion-order
  // dependent, so serial and parallel runs may disagree *below* the
  // canonicalization tolerance (1e-13) while the DD structure is identical.
  constexpr std::size_t kQubits = 9;
  constexpr std::size_t kGates = 60;
  Package serial(kQubits);
  Package parallel(kQubits);
  parallel.setWorkers(4);

  const auto expected = runMxV(serial, kQubits, kGates, /*rotations=*/true);
  const auto got = runMxV(parallel, kQubits, kGates, /*rotations=*/true);
  ASSERT_EQ(expected.size(), got.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(expected[i].r, got[i].r, 1e-12) << "amplitude " << i;
    EXPECT_NEAR(expected[i].i, got[i].i, 1e-12) << "amplitude " << i;
  }
}

/// Accumulate a block of gates with MxM products, then apply the block to a
/// basis state; returns the resulting amplitudes.
std::vector<ComplexValue> runMxM(Package& p, std::size_t numQubits,
                                 std::size_t numGates) {
  std::mt19937_64 rng(91);
  std::uniform_int_distribution<Qubit> qubit(
      0, static_cast<Qubit>(numQubits - 1));
  MEdge acc = p.makeIdent();
  p.incRef(acc);
  for (std::size_t g = 0; g < numGates; ++g) {
    const Qubit target = qubit(rng);
    MEdge gate;
    if (g % 3 == 0) {
      gate = p.makeGateDD(ir::gateMatrix(ir::GateType::H), target);
    } else if (g % 3 == 1) {
      Qubit control = qubit(rng);
      if (control == target) {
        control = static_cast<Qubit>((target + 1) % numQubits);
      }
      gate = p.makeGateDD(ir::gateMatrix(ir::GateType::X), target,
                          Controls{Control{control, true}});
    } else {
      gate = p.makeGateDD(ir::gateMatrix(ir::GateType::S), target);
    }
    const MEdge next = p.multiply(gate, acc);
    p.incRef(next);
    p.decRef(acc);
    acc = next;
  }
  const VEdge out = p.multiply(acc, p.makeBasisState(0));
  p.incRef(out);
  p.decRef(acc);
  auto amps = p.getVector(out);
  p.decRef(out);
  return amps;
}

TEST(ParallelKernels, MultiplyMxMBitIdenticalToSerial) {
  constexpr std::size_t kQubits = 8;
  constexpr std::size_t kGates = 40;
  Package serial(kQubits);
  Package parallel(kQubits);
  parallel.setWorkers(4);

  const auto expected = runMxM(serial, kQubits, kGates);
  const auto got = runMxM(parallel, kQubits, kGates);
  ASSERT_EQ(expected.size(), got.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].r, got[i].r) << "amplitude " << i;
    EXPECT_EQ(expected[i].i, got[i].i) << "amplitude " << i;
  }
}

TEST(ParallelKernels, AddBitIdenticalToSerial) {
  constexpr std::size_t kQubits = 9;
  Package serial(kQubits);
  Package parallel(kQubits);
  parallel.setWorkers(3);

  const auto run = [&](Package& p) {
    std::mt19937_64 rng(33);
    const VEdge a = p.makeStateFromVector(test::randomAmplitudes(kQubits, rng));
    const VEdge b = p.makeStateFromVector(test::randomAmplitudes(kQubits, rng));
    return p.getVector(p.add(a, b));
  };
  const auto expected = run(serial);
  const auto got = run(parallel);
  ASSERT_EQ(expected.size(), got.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].r, got[i].r);
    EXPECT_EQ(expected[i].i, got[i].i);
  }
}

TEST(ParallelKernels, SurvivesCollectionsBetweenParallelOps) {
  constexpr std::size_t kQubits = 9;
  Package serial(kQubits);
  Package parallel(kQubits);
  parallel.setWorkers(4);

  const auto run = [&](Package& p) {
    std::vector<ComplexValue> out;
    // Three rounds of work with full collections in between: collections are
    // quiescent-point operations and must leave the concurrent tables in a
    // consistent state for the next parallel round.
    for (int round = 0; round < 3; ++round) {
      auto amps = runMxV(p, kQubits, 25, /*rotations=*/false);
      out.insert(out.end(), amps.begin(), amps.end());
      p.garbageCollect();
      p.emergencyCollect();
    }
    return out;
  };
  const auto expected = run(serial);
  const auto got = run(parallel);
  ASSERT_EQ(expected.size(), got.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].r, got[i].r) << "amplitude " << i;
    EXPECT_EQ(expected[i].i, got[i].i) << "amplitude " << i;
  }
  // Contention counters are exposed through CacheStats (may be zero on a
  // lightly loaded run, but must be readable and finite).
  const CacheStats cs = parallel.cacheStats();
  EXPECT_GE(cs.uniqueTableLockWaits, 0U);
  EXPECT_GE(cs.complexTableLockWaits, 0U);
  EXPECT_GE(cs.computeTableLockWaits, 0U);
}

TEST(ParallelKernels, SetWorkersRoundTripRestoresSerialEngine) {
  constexpr std::size_t kQubits = 8;
  Package p(kQubits);
  EXPECT_EQ(p.workers(), 1U);
  const auto before = runMxV(p, kQubits, 20, /*rotations=*/false);
  p.setWorkers(4);
  const auto during = runMxV(p, kQubits, 20, /*rotations=*/false);
  p.setWorkers(1);
  EXPECT_EQ(p.workers(), 1U);
  const auto after = runMxV(p, kQubits, 20, /*rotations=*/false);
  ASSERT_EQ(before.size(), during.size());
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].r, during[i].r);
    EXPECT_EQ(before[i].i, during[i].i);
    EXPECT_EQ(before[i].r, after[i].r);
    EXPECT_EQ(before[i].i, after[i].i);
  }
}

TEST(ParallelKernels, ResourceExhaustionPropagatesFromWorkers) {
  constexpr std::size_t kQubits = 10;
  Package p(kQubits);
  p.setWorkers(4);
  ResourceBudget budget;
  budget.maxLiveNodes = 64;  // far too small for a dense 10-qubit state
  p.governor().setBudget(budget);
  EXPECT_THROW(runMxV(p, kQubits, 40, /*rotations=*/true), ResourceExhausted);
  // The package stays usable after the failed operation: lift the budget,
  // collect, and run to completion.
  p.governor().setBudget(ResourceBudget{});
  p.garbageCollect();
  EXPECT_NO_THROW(runMxV(p, kQubits, 10, /*rotations=*/true));
}

}  // namespace
}  // namespace ddsim::dd

// -------------------------------------------------- simulator threads knob

namespace ddsim::sim {
namespace {

/// A measured circuit that exercises long unitary runs, mid-circuit
/// measurement, and classically controlled gates.
ir::Circuit measuredCircuit(std::uint64_t seed) {
  ir::Circuit circuit = test::randomCircuit(5, 60, seed);
  ir::Circuit full(5, 5, "measured_" + std::to_string(seed));
  full.appendCircuit(circuit);
  full.measure(0, 0);
  full.classicControlled(ir::GateType::X, 2, {}, {}, 0, true);
  full.appendCircuit(test::randomCircuit(5, 40, seed + 1));
  full.measureAll();
  return full;
}

std::vector<StrategyConfig> combiningSchedules() {
  return {StrategyConfig::kOperations(4), StrategyConfig::kOperations(16),
          StrategyConfig::maxSizeStrategy(64),
          StrategyConfig::maxSizeStrategy(1024),
          StrategyConfig::adaptive(0.25), StrategyConfig::adaptive(1.0)};
}

TEST(ParallelKernels, ThreadedKernelsMatchSerialOutcomesAcrossSchedules) {
  // Kernel parallelism in the package (threads knob): measurement outcomes
  // stay identical to the serial engine for the same seed.
  const auto circuit = measuredCircuit(5);
  for (const StrategyConfig& serial : combiningSchedules()) {
    const auto serialResult = sim::simulate(circuit, serial, 29);
    StrategyConfig threaded = serial;
    threaded.threads = 3;
    const auto kernels = sim::simulate(circuit, threaded, 29);
    EXPECT_EQ(kernels.classicalBits, serialResult.classicalBits)
        << serial.toString();
  }
}

TEST(ParallelKernels, ThreadsKnobValidatesAndStaysOutOfContentHash) {
  StrategyConfig config = StrategyConfig::kOperations(4);
  config.threads = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.threads = 257;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.threads = 4;
  EXPECT_NO_THROW(config.validate());
  EXPECT_NE(config.toString().find("+threads(4)"), std::string::npos);
  // Kernel parallelism never changes outcomes, so threaded and serial
  // submissions must share a serve-layer cache entry.
  EXPECT_EQ(config.contentHash(), StrategyConfig::kOperations(4).contentHash());
}

// ------------------------------------------------------ outcome determinism

struct Outcome {
  std::vector<bool> bits;
  std::size_t finalNodes = 0;
  std::uint64_t peakStateNodes = 0;
};

Outcome simulate(const ir::Circuit& circuit, std::size_t threads,
                 std::uint64_t seed) {
  StrategyConfig config;
  config.schedule = Schedule::KOperations;
  config.k = 4;
  config.threads = threads;
  CircuitSimulator sim(circuit, config, seed);
  const SimulationResult r = sim.run();
  return {r.classicalBits, sim.package().size(r.finalState),
          r.stats.peakStateNodes};
}

TEST(Determinism, OutcomeDependsOnlyOnCircuitStrategyAndSeed) {
  // The content-addressed result cache keys on (circuit, strategy, seed),
  // so neither an earlier job in the process nor the kernel thread count
  // (which changes when the demand-sized tables grow) may change a result.
  const ir::Circuit body = algo::makeSupremacyCircuit({3, 3, 8, 11});
  ir::Circuit job(body.numQubits(), 4);
  for (const auto& op : body.ops()) {
    job.append(op->clone());
  }
  for (ir::Qubit q = 0; q < 4; ++q) {
    job.measure(q, static_cast<std::size_t>(q));  // leave a non-trivial state
  }
  const Outcome fresh = simulate(job, 1, 7);
  ASSERT_GT(fresh.finalNodes, job.numQubits() + 1);

  // An unrelated, larger job grows its package's tables far past theirs.
  algo::GroverOptions grover;
  grover.measure = true;
  (void)simulate(algo::makeGroverCircuit(12, 1234, grover), 1, 3);

  const Outcome after = simulate(job, 1, 7);
  const Outcome parallel = simulate(job, 2, 7);
  for (const Outcome* o : {&after, &parallel}) {
    EXPECT_EQ(o->bits, fresh.bits);
    EXPECT_EQ(o->finalNodes, fresh.finalNodes);
    EXPECT_EQ(o->peakStateNodes, fresh.peakStateNodes);
  }
}

}  // namespace
}  // namespace ddsim::sim
