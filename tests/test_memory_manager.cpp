#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_set>
#include <vector>

#include "dd/memory_manager.hpp"
#include "dd/node.hpp"
#include "dd/unique_table.hpp"

namespace ddsim::dd {
namespace {

TEST(MemoryManager, HandsOutDistinctNodes) {
  MemoryManager<VNode> mm;
  std::unordered_set<VNode*> seen;
  for (int i = 0; i < 1000; ++i) {
    VNode* n = mm.get();
    ASSERT_NE(n, nullptr);
    EXPECT_TRUE(seen.insert(n).second) << "duplicate node handed out";
  }
  EXPECT_EQ(mm.allocated(), 1000U);
  EXPECT_EQ(mm.inUse(), 1000U);
  EXPECT_EQ(mm.freeListSize(), 0U);
}

TEST(MemoryManager, RecyclesFreedNodes) {
  MemoryManager<VNode> mm;
  VNode* a = mm.get();
  a->v = 7;
  a->ref = 3;
  mm.free(a);
  EXPECT_EQ(mm.freeListSize(), 1U);
  VNode* b = mm.get();
  EXPECT_EQ(a, b);  // LIFO reuse
  // Recycled nodes come back default-initialized.
  EXPECT_EQ(b->v, kTerminalVar);
  EXPECT_EQ(b->ref, 0U);
  EXPECT_EQ(mm.freeListSize(), 0U);
}

TEST(MemoryManager, SurvivesChunkBoundaries) {
  // Chunk size 4: force many chunk allocations and interleaved frees.
  MemoryManager<MNode> mm(4);
  std::vector<MNode*> nodes;
  for (int i = 0; i < 64; ++i) {
    nodes.push_back(mm.get());
  }
  // Free every other node, then reallocate.
  std::size_t freed = 0;
  for (std::size_t i = 0; i < nodes.size(); i += 2) {
    mm.free(nodes[i]);
    ++freed;
  }
  EXPECT_EQ(mm.freeListSize(), freed);
  for (std::size_t i = 0; i < freed; ++i) {
    ASSERT_NE(mm.get(), nullptr);
  }
  EXPECT_EQ(mm.freeListSize(), 0U);
  // Reused allocations must not have bumped the total.
  EXPECT_EQ(mm.allocated(), 64U);
}

TEST(MemoryManager, InUseAccounting) {
  MemoryManager<VNode> mm;
  VNode* a = mm.get();
  VNode* b = mm.get();
  EXPECT_EQ(mm.inUse(), 2U);
  mm.free(a);
  EXPECT_EQ(mm.inUse(), 1U);
  mm.free(b);
  EXPECT_EQ(mm.inUse(), 0U);
}

TEST(MemoryManager, ReleaseFreeChunksReturnsFullyFreeChunks) {
  MemoryManager<MNode> mm(4);
  std::vector<MNode*> nodes;
  for (int i = 0; i < 64; ++i) {
    nodes.push_back(mm.get());
  }
  const std::size_t bytesBefore = mm.bytesAllocated();
  EXPECT_EQ(bytesBefore, 16U * 4 * sizeof(MNode));

  // Free chunks 0..7 entirely (nodes 0..31), keep the rest in use.
  for (std::size_t i = 0; i < 32; ++i) {
    mm.free(nodes[i]);
  }
  const std::size_t released = mm.releaseFreeChunks();
  EXPECT_EQ(released, 8U * 4 * sizeof(MNode));
  EXPECT_EQ(mm.bytesAllocated(), bytesBefore - released);
  EXPECT_EQ(mm.allocated(), 32U);
  EXPECT_EQ(mm.inUse(), 32U);
  EXPECT_EQ(mm.freeListSize(), 0U);

  // The surviving nodes keep working and further allocation is intact.
  for (int i = 0; i < 8; ++i) {
    ASSERT_NE(mm.get(), nullptr);
  }
  EXPECT_EQ(mm.inUse(), 40U);
}

TEST(MemoryManager, ReleaseFreeChunksKeepsPartiallyUsedChunks) {
  MemoryManager<MNode> mm(4);
  std::vector<MNode*> nodes;
  for (int i = 0; i < 16; ++i) {
    nodes.push_back(mm.get());
  }
  // Free every other node: no chunk becomes fully free.
  for (std::size_t i = 0; i < nodes.size(); i += 2) {
    mm.free(nodes[i]);
  }
  EXPECT_EQ(mm.releaseFreeChunks(), 0U);
  EXPECT_EQ(mm.allocated(), 16U);
  EXPECT_EQ(mm.freeListSize(), 8U);
}

TEST(MemoryManager, ReleaseFreeChunksHandlesCarveChunk) {
  MemoryManager<MNode> mm(4);
  // Only partially carve the first (and only) chunk, then free everything.
  MNode* a = mm.get();
  MNode* b = mm.get();
  mm.free(a);
  mm.free(b);
  EXPECT_EQ(mm.releaseFreeChunks(), 4U * sizeof(MNode));
  EXPECT_EQ(mm.bytesAllocated(), 0U);
  EXPECT_EQ(mm.allocated(), 0U);
  // Allocation restarts cleanly on a fresh chunk.
  EXPECT_NE(mm.get(), nullptr);
  EXPECT_EQ(mm.inUse(), 1U);
}

TEST(MemoryManager, IdsAreSerialsThatAreNeverReused) {
  // Every get() hands out an id above all earlier ones, whether the node
  // comes from a fresh carve, off the free list or from a chunk carved after
  // a release; free() clears it. So no id ever names two nodes, and hashes
  // over ids do not follow the allocator's addresses.
  MemoryManager<VNode> mm(4);
  std::uint64_t last = 0;
  const auto take = [&mm, &last] {
    VNode* n = mm.get();
    EXPECT_GT(n->id, last);
    last = n->id;
    return n;
  };
  std::vector<VNode*> nodes;
  for (int i = 0; i < 4; ++i) {
    nodes.push_back(take());
  }
  VNode* const recycled = nodes[1];
  mm.free(recycled);
  EXPECT_EQ(recycled->id, 0U);
  nodes[1] = take();
  ASSERT_EQ(nodes[1], recycled);  // same address, new id

  for (VNode* n : nodes) {
    mm.free(n);
    EXPECT_EQ(n->id, 0U);
  }
  ASSERT_GT(mm.releaseFreeChunks(), 0U);
  take();  // a fresh carve, possibly at a released address
}

TEST(MemoryManager, ChunkGrowthBadAllocBecomesResourceExhausted) {
  // A chunk above MemoryManager::kMaxChunkBytes fails as std::bad_alloc,
  // and the manager must convert it into the structured taxonomy instead
  // of crashing with an unhandled bad_alloc.
  MemoryManager<VNode> mm(std::numeric_limits<std::size_t>::max() /
                          sizeof(VNode) / 2);
  EXPECT_THROW(mm.get(), ResourceExhausted);
  try {
    mm.get();
  } catch (const ResourceExhausted& e) {
    EXPECT_STREQ(e.operation().c_str(), "chunk allocation");
    EXPECT_NE(std::string(e.what()).find("bad_alloc"), std::string::npos);
  }
}

TEST(UniqueTableDirect, DeduplicatesStructurallyEqualNodes) {
  MemoryManager<VNode> mm;
  UniqueTable<VNode> table(mm);
  table.resize(2);

  // Two structurally identical candidates must resolve to one node.
  const ComplexValue half{0.5, 0.0};
  VNode terminal;
  terminal.v = kTerminalVar;

  VNode* c1 = mm.get();
  c1->v = 0;
  c1->e = {VEdge{&terminal, &half}, VEdge{&terminal, &half}};
  VNode* r1 = table.lookup(c1);

  VNode* c2 = mm.get();
  c2->v = 0;
  c2->e = {VEdge{&terminal, &half}, VEdge{&terminal, &half}};
  VNode* r2 = table.lookup(c2);

  EXPECT_EQ(r1, r2);
  EXPECT_EQ(table.liveCount(), 1U);
  EXPECT_EQ(table.hits(), 1U);
  EXPECT_EQ(table.misses(), 1U);
  // The duplicate candidate was recycled.
  EXPECT_EQ(mm.freeListSize(), 1U);
}

TEST(UniqueTableDirect, DistinguishesDifferentWeightPointers) {
  MemoryManager<VNode> mm;
  UniqueTable<VNode> table(mm);
  table.resize(1);

  const ComplexValue w1{0.5, 0.0};
  const ComplexValue w2{0.25, 0.0};
  VNode terminal;
  terminal.v = kTerminalVar;

  VNode* c1 = mm.get();
  c1->v = 0;
  c1->e = {VEdge{&terminal, &w1}, VEdge{&terminal, &w2}};
  VNode* r1 = table.lookup(c1);

  VNode* c2 = mm.get();
  c2->v = 0;
  c2->e = {VEdge{&terminal, &w2}, VEdge{&terminal, &w1}};
  VNode* r2 = table.lookup(c2);

  EXPECT_NE(r1, r2);
  EXPECT_EQ(table.liveCount(), 2U);
}

TEST(UniqueTableDirect, GarbageCollectRemovesUnreferenced) {
  MemoryManager<VNode> mm;
  UniqueTable<VNode> table(mm);
  table.resize(1);
  const ComplexValue w{0.5, 0.0};
  std::array<ComplexValue, 10> distinct{};
  VNode terminal;
  terminal.v = kTerminalVar;

  std::vector<VNode*> nodes;
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    VNode* c = mm.get();
    c->v = 0;
    // Distinct weight pointers make distinct nodes.
    distinct[i] = {0.1 * static_cast<double>(i), 0.0};
    c->e = {VEdge{&terminal, &w}, VEdge{&terminal, &distinct[i]}};
    nodes.push_back(table.lookup(c));
  }
  nodes[0]->ref = 1;
  nodes[5]->ref = 2;
  const std::size_t collected = table.garbageCollect();
  EXPECT_EQ(collected, 8U);
  EXPECT_EQ(table.liveCount(), 2U);
  // Referenced nodes still found via forEach.
  std::size_t count = 0;
  table.forEach([&count](const VNode*) { ++count; });
  EXPECT_EQ(count, 2U);
}

}  // namespace
}  // namespace ddsim::dd
