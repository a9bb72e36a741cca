/// \file unique_table.hpp
/// \brief Per-variable hash tables enforcing DD canonicity.
///
/// Shared nodes are what give decision diagrams their compactness (paper
/// Section II-B): before a new node becomes part of a DD it is looked up
/// here; if a structurally identical node already exists, the existing node
/// is reused and the candidate is recycled.
///
/// Demand sizing: each variable starts with kInitialBucketsPerVar (2^8)
/// buckets and keeps its own live-node count. When a variable's average
/// chain length exceeds kMaxAverageChain (2), its buckets are rehashed x4,
/// up to kMaxBucketsPerVar (2^15). Rehashing relinks the existing nodes, so
/// node pointers never change. As with the compute tables, serial growth
/// runs inline in lookup(), and a std::bad_alloc keeps the smaller table.
///
/// Concurrency: in concurrent mode (Package::setWorkers > 1) lookups are
/// serialized per *stripe* — a fixed pool of mutexes indexed by a hash of
/// (variable, node hash) — so threads canonicalizing unrelated nodes almost
/// never contend, while two threads racing to insert the *same* node are
/// forced through the same stripe and the loser finds the winner's node on
/// its re-walk under the lock. The lock covers the walk *and* the insert,
/// which is what preserves canonicity. A rehash holds every stripe. Garbage
/// collection and forEach stay unlocked: the package only runs them at
/// quiescent points (no parallel operation in flight). Serial mode takes no
/// locks at all.

#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <utility>
#include <vector>

#include "dd/memory_manager.hpp"
#include "dd/node.hpp"
#include "dd/stripe_locks.hpp"

namespace ddsim::dd {

template <typename NodeT>
class UniqueTable {
 public:
  static constexpr std::size_t kInitialBucketsPerVar = 1U << 8;
  static constexpr std::size_t kMaxBucketsPerVar = 1U << 15;
  static constexpr std::size_t kGrowthFactor = 4;
  static constexpr std::size_t kMaxAverageChain = 2;
  static constexpr std::size_t kStripes = 64;
  // A bucket is hash & (size - 1) and its stripe mixes in the low bits of
  // hash & (kStripes - 1): one bucket maps to one stripe only while every
  // variable has >= kStripes buckets.
  static_assert(kInitialBucketsPerVar >= kStripes,
                "every bucket array must have at least one bucket per stripe");

  explicit UniqueTable(MemoryManager<NodeT>& mm) : mm_(&mm) {}

  UniqueTable(const UniqueTable&) = delete;
  UniqueTable& operator=(const UniqueTable&) = delete;

  /// Toggle striped locking. Only flip at quiescent points.
  void setConcurrent(bool on) noexcept { concurrent_ = on; }

  /// Make room for variables 0..n-1. Quiescent points only.
  void resize(std::size_t numVars) {
    if (numVars <= vars_.size()) {
      return;
    }
    const std::size_t added = numVars - vars_.size();
    vars_.resize(numVars);
    for (auto& t : vars_) {
      if (t.buckets.empty()) {
        t.buckets.resize(kInitialBucketsPerVar, nullptr);
      }
    }
    bucketCount_.fetch_add(added * kInitialBucketsPerVar,
                           std::memory_order_relaxed);
  }

  /// Canonicalize: return the unique node equal to *candidate. On a hit the
  /// candidate is recycled into the memory manager; on a miss it is inserted.
  NodeT* lookup(NodeT* candidate) {
    assert(candidate->v >= 0 &&
           static_cast<std::size_t>(candidate->v) < vars_.size());
    const auto var = static_cast<std::size_t>(candidate->v);
    Variable& t = vars_[var];
    const std::size_t h = hashNode(*candidate);
    if (!concurrent_) {
      NodeT* n = lookupIn(t, h, candidate);
      if (n == candidate && wantsRehash(t)) {
        rehash(t);
      }
      return n;
    }
    NodeT* n = nullptr;
    bool grow = false;
    {
      std::mutex& m = stripes_.acquire(stripeOf(var, h), lockWaits_);
      const std::lock_guard<std::mutex> lock(m, std::adopt_lock);
      // Lock order: stripe, then (inside MemoryManager::free on a hit or via
      // the caller's MemoryManager::get before entry) the allocator mutex.
      n = lookupIn(t, h, candidate);
      grow = n == candidate && wantsRehash(t);
    }
    if (grow) {
      stripes_.exclusive([this, &t]() noexcept {
        if (wantsRehash(t)) {  // another inserter may have rehashed first
          rehash(t);
        }
      });
    }
    return n;
  }

  /// Sweep: remove and recycle every node with a zero reference count.
  /// Returns the number of collected nodes. The caller must ensure that
  /// nothing outside ref-counted roots points at unreferenced nodes (i.e.
  /// compute tables are flushed right after) and that no concurrent lookups
  /// are in flight (quiescent point).
  std::size_t garbageCollect() {
    std::size_t collected = 0;
    for (auto& t : vars_) {
      std::size_t collectedHere = 0;
      for (auto& head : t.buckets) {
        NodeT** link = &head;
        while (*link != nullptr) {
          NodeT* n = *link;
          if (n->ref == 0) {
            *link = n->next;
            mm_->free(n);
            ++collectedHere;
          } else {
            link = &n->next;
          }
        }
      }
      t.live.fetch_sub(collectedHere, std::memory_order_relaxed);
      collected += collectedHere;
    }
    liveCount_.fetch_sub(collected, std::memory_order_relaxed);
    return collected;
  }

  /// Nodes currently stored across all variables.
  [[nodiscard]] std::size_t liveCount() const noexcept {
    return liveCount_.load(std::memory_order_relaxed);
  }
  /// Nodes currently stored for variable \p var.
  [[nodiscard]] std::size_t liveCount(std::size_t var) const noexcept {
    return vars_[var].live.load(std::memory_order_relaxed);
  }
  /// Buckets variable \p var currently hashes into. Quiescent points only.
  [[nodiscard]] std::size_t bucketCount(std::size_t var) const noexcept {
    return vars_[var].buckets.size();
  }
  [[nodiscard]] std::size_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }
  /// Times a concurrent lookup found its stripe already held (contention
  /// signal surfaced through CacheStats).
  [[nodiscard]] std::size_t lockWaits() const noexcept {
    return lockWaits_.load(std::memory_order_relaxed);
  }
  /// Bytes held by the bucket arrays of every variable at their current
  /// size (counted against a byte budget alongside the node chunks).
  [[nodiscard]] std::size_t bucketBytes() const noexcept {
    return bucketCount_.load(std::memory_order_relaxed) * sizeof(NodeT*);
  }

  /// Visit every stored node (used by tests and diagnostics). Quiescent
  /// points only.
  template <typename F>
  void forEach(F&& f) const {
    for (const auto& t : vars_) {
      for (NodeT* head : t.buckets) {
        for (NodeT* n = head; n != nullptr; n = n->next) {
          f(n);
        }
      }
    }
  }

 private:
  struct Variable {
    std::vector<NodeT*> buckets;
    /// Nodes stored for this variable (the rehash trigger).
    std::atomic<std::size_t> live{0};

    Variable() = default;
    // std::vector growth in resize() needs a move; only at quiescent points.
    Variable(Variable&& o) noexcept
        : buckets(std::move(o.buckets)),
          live(o.live.load(std::memory_order_relaxed)) {}
  };

  static std::size_t stripeOf(std::size_t var, std::size_t hash) noexcept {
    // Spread adjacent hashes of the same variable over distinct stripes and
    // decorrelate variables from each other.
    return (hash ^ (var * 0x9E3779B9U)) & (kStripes - 1);
  }

  /// Reads the bucket array size: serial mode, or any stripe held (a
  /// rehash holds them all).
  [[nodiscard]] static bool wantsRehash(const Variable& t) noexcept {
    return t.buckets.size() < kMaxBucketsPerVar &&
           t.live.load(std::memory_order_relaxed) >
               kMaxAverageChain * t.buckets.size();
  }

  /// Relink every node of \p t into kGrowthFactor times more buckets.
  /// Serial mode or every stripe held.
  void rehash(Variable& t) noexcept {
    std::vector<NodeT*> bigger;
    try {
      bigger.resize(std::min(t.buckets.size() * kGrowthFactor,
                             kMaxBucketsPerVar),
                    nullptr);
    } catch (const std::bad_alloc&) {
      return;  // keep the shorter bucket array; chains just grow longer
    }
    const std::size_t mask = bigger.size() - 1;
    for (NodeT* n : t.buckets) {
      while (n != nullptr) {
        NodeT* next = n->next;
        NodeT*& head = bigger[hashNode(*n) & mask];
        n->next = head;
        head = n;
        n = next;
      }
    }
    bucketCount_.fetch_add(bigger.size() - t.buckets.size(),
                           std::memory_order_relaxed);
    t.buckets.swap(bigger);
  }

  NodeT* lookupIn(Variable& t, std::size_t hash, NodeT* candidate) {
    NodeT*& head = t.buckets[hash & (t.buckets.size() - 1)];
    for (NodeT* n = head; n != nullptr; n = n->next) {
      if (sameChildren(*n, *candidate)) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        mm_->free(candidate);
        return n;
      }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    candidate->next = head;
    head = candidate;
    t.live.fetch_add(1, std::memory_order_relaxed);
    liveCount_.fetch_add(1, std::memory_order_relaxed);
    return candidate;
  }

  MemoryManager<NodeT>* mm_;
  std::vector<Variable> vars_;
  detail::StripeLocks<kStripes> stripes_;
  bool concurrent_ = false;
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
  std::atomic<std::size_t> liveCount_{0};
  std::atomic<std::size_t> bucketCount_{0};
  std::atomic<std::uint64_t> lockWaits_{0};
};

}  // namespace ddsim::dd
