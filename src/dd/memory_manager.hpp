/// \file memory_manager.hpp
/// \brief Chunked node allocator with an intrusive free list.
///
/// DD simulation allocates and discards nodes at a very high rate; going
/// through the general-purpose heap for every node dominates runtime. This
/// manager hands out nodes from large chunks and recycles garbage-collected
/// nodes through a free list threaded over Node::next.
///
/// Two resource-governance duties live here as well: a std::bad_alloc from
/// chunk growth is converted into the structured ResourceExhausted taxonomy
/// (with allocated/in-use diagnostics) instead of crashing the caller, and
/// releaseFreeChunks() returns fully-reclaimed chunks to the OS so a
/// governor-triggered garbage collection actually frees memory.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "dd/resource_governor.hpp"

namespace ddsim::dd {

template <typename NodeT>
class MemoryManager {
 public:
  /// Largest chunk ever requested from the heap. A chunk size beyond it
  /// fails as std::bad_alloc without reaching the allocator, the same on
  /// every build: AddressSanitizer's allocator aborts on such a request
  /// instead of throwing.
  static constexpr std::size_t kMaxChunkBytes = std::size_t{1} << 40;

  explicit MemoryManager(std::size_t chunkSize = 1U << 14)
      : chunkSize_(chunkSize) {}

  MemoryManager(const MemoryManager&) = delete;
  MemoryManager& operator=(const MemoryManager&) = delete;

  /// Obtain a fresh (default-initialized) node carrying the next serial
  /// NodeT::id. Serials are never reused, whether the node comes off the
  /// free list, from a fresh carve or from a chunk at a released address, so
  /// an id names one node for the package's lifetime, and hashes built on
  /// it do not depend on where the allocator puts nodes.
  /// Throws ResourceExhausted when chunk growth hits std::bad_alloc.
  NodeT* get() {
    if (free_ != nullptr) {
      NodeT* n = free_;
      free_ = n->next;
      --freeCount_;
      *n = NodeT{};
      n->id = ++lastId_;
      return n;
    }
    if (used_ == chunkCapacity_) {
      try {
        if (chunkSize_ > kMaxChunkBytes / sizeof(NodeT)) {
          throw std::bad_alloc();
        }
        chunks_.push_back(std::make_unique<NodeT[]>(chunkSize_));
      } catch (const std::bad_alloc&) {
        throw ResourceExhausted(
            "chunk allocation", inUse(), /*nodeBudget=*/0, bytesAllocated(),
            "std::bad_alloc growing a " + std::to_string(chunkSize_) +
                "-node chunk; " + std::to_string(allocated()) +
                " nodes carved, " + std::to_string(freeListSize()) + " free");
      }
      chunkBytes_ += chunkSize_ * sizeof(NodeT);
      chunkCapacity_ = chunkSize_;
      used_ = 0;
    }
    ++allocated_;
    NodeT* n = &chunks_.back()[used_++];
    n->id = ++lastId_;
    return n;
  }

  /// Return a node to the free list. The caller must guarantee that no live
  /// DD references it anymore. The id is cleared to 0, the mark of a
  /// free-listed node: a garbage collection drops the compute-table entries
  /// that name such a node before anything recycles it.
  void free(NodeT* n) noexcept {
    n->id = 0;
    n->next = free_;
    free_ = n;
    ++freeCount_;
  }

  /// Return chunks whose nodes are all on the free list to the OS. No raw
  /// pointer into a freed node may be read afterwards; the compute tables
  /// keep such pointers only in stale entries, which they never read
  /// through. Returns the number of bytes released.
  std::size_t releaseFreeChunks() {
    if (chunks_.empty() || freeCount_ == 0) {
      return 0;
    }
    // Count free-listed nodes per chunk. Chunks are equally sized and only
    // the last one can be partially carved.
    struct Range {
      const NodeT* lo;
      std::size_t chunkIdx;
    };
    std::vector<Range> ranges;
    ranges.reserve(chunks_.size());
    for (std::size_t i = 0; i < chunks_.size(); ++i) {
      ranges.push_back({chunks_[i].get(), i});
    }
    std::sort(ranges.begin(), ranges.end(),
              [](const Range& a, const Range& b) { return a.lo < b.lo; });
    const auto chunkOf = [&](const NodeT* n) -> std::size_t {
      auto it = std::upper_bound(
          ranges.begin(), ranges.end(), n,
          [](const NodeT* x, const Range& r) { return x < r.lo; });
      return std::prev(it)->chunkIdx;
    };
    std::vector<std::size_t> freeIn(chunks_.size(), 0);
    for (const NodeT* n = free_; n != nullptr; n = n->next) {
      ++freeIn[chunkOf(n)];
    }

    std::vector<bool> release(chunks_.size());
    for (std::size_t i = 0; i < chunks_.size(); ++i) {
      const std::size_t carved = i + 1 == chunks_.size() ? used_ : chunkSize_;
      release[i] = carved != 0 && freeIn[i] == carved;
    }
    if (std::find(release.begin(), release.end(), true) == release.end()) {
      return 0;
    }

    // Rebuild the free list without nodes from released chunks.
    NodeT* newFree = nullptr;
    std::size_t newFreeCount = 0;
    for (NodeT* n = free_; n != nullptr;) {
      NodeT* next = n->next;
      if (!release[chunkOf(n)]) {
        n->next = newFree;
        newFree = n;
        ++newFreeCount;
      }
      n = next;
    }
    free_ = newFree;
    freeCount_ = newFreeCount;

    std::size_t releasedChunks = 0;
    const bool lastReleased = release.back();
    std::vector<std::unique_ptr<NodeT[]>> kept;
    kept.reserve(chunks_.size());
    for (std::size_t i = 0; i < chunks_.size(); ++i) {
      if (release[i]) {
        allocated_ -= i + 1 == chunks_.size() ? used_ : chunkSize_;
        ++releasedChunks;
      } else {
        kept.push_back(std::move(chunks_[i]));
      }
    }
    chunks_ = std::move(kept);
    if (lastReleased) {
      // The carve chunk is gone; the next get() starts a fresh one.
      chunkCapacity_ = 0;
      used_ = 0;
    }
    const std::size_t releasedBytes = releasedChunks * chunkSize_ *
                                      sizeof(NodeT);
    chunkBytes_ -= releasedBytes;
    return releasedBytes;
  }

  /// Nodes carved out of current chunks minus released ones.
  [[nodiscard]] std::size_t allocated() const noexcept { return allocated_; }
  /// Nodes currently sitting on the free list.
  [[nodiscard]] std::size_t freeListSize() const noexcept { return freeCount_; }
  /// Nodes currently in use (allocated minus free-listed).
  [[nodiscard]] std::size_t inUse() const noexcept {
    return allocated() - freeListSize();
  }
  /// Bytes currently held in chunks (what a byte budget governs).
  [[nodiscard]] std::size_t bytesAllocated() const noexcept {
    return chunkBytes_;
  }

 private:
  std::size_t chunkSize_;
  std::vector<std::unique_ptr<NodeT[]>> chunks_;
  std::size_t chunkCapacity_ = 0;
  std::size_t used_ = 0;
  NodeT* free_ = nullptr;
  std::size_t allocated_ = 0;
  std::size_t freeCount_ = 0;
  std::size_t chunkBytes_ = 0;
  /// Last serial handed out by get(). Serials start at 1, so id 0 marks a
  /// free-listed node.
  std::uint64_t lastId_ = 0;
};

}  // namespace ddsim::dd
