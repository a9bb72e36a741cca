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
/// node pointers never change. As with the compute tables, growth runs
/// inline in lookup(), and a std::bad_alloc keeps the smaller table.

#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <new>
#include <vector>

#include "dd/memory_manager.hpp"
#include "dd/node.hpp"

namespace ddsim::dd {

template <typename NodeT>
class UniqueTable {
 public:
  static constexpr std::size_t kInitialBucketsPerVar = 1U << 8;
  static constexpr std::size_t kMaxBucketsPerVar = 1U << 15;
  static constexpr std::size_t kGrowthFactor = 4;
  static constexpr std::size_t kMaxAverageChain = 2;

  explicit UniqueTable(MemoryManager<NodeT>& mm) : mm_(&mm) {}

  UniqueTable(const UniqueTable&) = delete;
  UniqueTable& operator=(const UniqueTable&) = delete;

  /// Make room for variables 0..n-1.
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
    bucketCount_ += added * kInitialBucketsPerVar;
  }

  /// Canonicalize: return the unique node equal to *candidate. On a hit the
  /// candidate is recycled into the memory manager; on a miss it is inserted.
  NodeT* lookup(NodeT* candidate) {
    assert(candidate->v >= 0 &&
           static_cast<std::size_t>(candidate->v) < vars_.size());
    Variable& t = vars_[static_cast<std::size_t>(candidate->v)];
    NodeT* n = lookupIn(t, hashNode(*candidate), candidate);
    if (n == candidate && wantsRehash(t)) {
      rehash(t);
    }
    return n;
  }

  /// Sweep: remove and recycle every node with a zero reference count.
  /// Returns the number of collected nodes. The caller must ensure that
  /// nothing outside ref-counted roots points at unreferenced nodes (i.e.
  /// compute tables are flushed right after).
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
      t.live -= collectedHere;
      collected += collectedHere;
    }
    liveCount_ -= collected;
    return collected;
  }

  /// Nodes currently stored across all variables.
  [[nodiscard]] std::size_t liveCount() const noexcept { return liveCount_; }
  /// Nodes currently stored for variable \p var.
  [[nodiscard]] std::size_t liveCount(std::size_t var) const noexcept {
    return vars_[var].live;
  }
  /// Buckets variable \p var currently hashes into.
  [[nodiscard]] std::size_t bucketCount(std::size_t var) const noexcept {
    return vars_[var].buckets.size();
  }
  [[nodiscard]] std::size_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::size_t misses() const noexcept { return misses_; }
  /// Bytes held by the bucket arrays of every variable at their current
  /// size (counted against a byte budget alongside the node chunks).
  [[nodiscard]] std::size_t bucketBytes() const noexcept {
    return bucketCount_ * sizeof(NodeT*);
  }

  /// Visit every stored node (used by tests and diagnostics).
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
    std::size_t live = 0;
  };

  [[nodiscard]] static bool wantsRehash(const Variable& t) noexcept {
    return t.buckets.size() < kMaxBucketsPerVar &&
           t.live > kMaxAverageChain * t.buckets.size();
  }

  /// Relink every node of \p t into kGrowthFactor times more buckets.
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
    bucketCount_ += bigger.size() - t.buckets.size();
    t.buckets.swap(bigger);
  }

  NodeT* lookupIn(Variable& t, std::size_t hash, NodeT* candidate) {
    NodeT*& head = t.buckets[hash & (t.buckets.size() - 1)];
    for (NodeT* n = head; n != nullptr; n = n->next) {
      if (sameChildren(*n, *candidate)) {
        ++hits_;
        mm_->free(candidate);
        return n;
      }
    }
    ++misses_;
    candidate->next = head;
    head = candidate;
    ++t.live;
    ++liveCount_;
    return candidate;
  }

  MemoryManager<NodeT>* mm_;
  std::vector<Variable> vars_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t liveCount_ = 0;
  std::size_t bucketCount_ = 0;
};

}  // namespace ddsim::dd
