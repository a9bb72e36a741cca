/// \file complex_table.hpp
/// \brief Canonicalization table for complex edge weights.
///
/// Every edge weight used by the DD package is a pointer to an entry owned
/// by this table. lookup() maps a plain ComplexValue to its canonical entry:
/// values that agree within tolerance share a single pointer. This turns
/// node equality/hashing into exact pointer comparison, which is what makes
/// the unique tables and compute tables of the package sound in the presence
/// of floating-point rounding (machine-accuracy handling per [21]).
///
/// Layout: entries sit on a grid of cells of size 2*tolerance, and a value
/// within tolerance of v lies in v's home cell or one of up to eight
/// neighbours. The representative rule: the home cell is probed first, then
/// the neighbours; within a cell the oldest entry wins. One power-of-two
/// bucket array holds intrusive chains (Entry::next); an entry stores its
/// cell key, its bucket is key & mask, and a walk matches only entries of
/// the probed cell. Inserts append at the chain tail, so a cell stays in age
/// order. The array starts at kInitialBuckets and grows x4 once the average
/// chain exceeds kMaxAverageChain. Growth and GC relink without reordering
/// a cell and entries never move, so CWeights and incarnations stay valid.
/// GC runs with the node tables: entries referenced by a live node,
/// root-pinned (incRef/decRef) or constant survive; the rest are recycled.
///
/// Concurrency: a cell's stripe (dd/stripe_locks.hpp) is the low bits of
/// its key, so a bucket never spans two stripes. A lookup probes each
/// candidate cell under its own stripe; on a miss it takes every involved
/// stripe in ascending order and re-probes before inserting, so of two
/// threads racing on values within tolerance of each other (they share a
/// cell, hence a stripe) one finds the other's entry. The allocator mutex
/// nests inside the stripes; growth runs under exclusive() once the
/// inserter released its stripes. Serial mode takes no locks.
/// incRef/decRef/garbageCollect are quiescent-point-only operations.

#pragma once

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "dd/complex_value.hpp"
#include "dd/stripe_locks.hpp"

namespace ddsim::dd {

/// Canonical complex weight: an immutable pointer into a ComplexTable.
using CWeight = const ComplexValue*;

class ComplexTable {
 public:
  static constexpr std::size_t kInitialBuckets = 1U << 10;
  static constexpr std::size_t kGrowthFactor = 4;
  static constexpr std::size_t kMaxAverageChain = 2;
  static constexpr std::size_t kStripes = 64;
  // A cell's bucket is key & mask and its stripe key & (kStripes - 1): one
  // bucket maps to one stripe only while there are >= kStripes buckets.
  static_assert(kInitialBuckets >= kStripes,
                "the bucket array must have at least one bucket per stripe");

  explicit ComplexTable(double tolerance = kTolerance)
      : tol_(tolerance), cell_(2.0 * tolerance) {}

  /// Toggle stripe locking. Only flip at quiescent points.
  void setConcurrent(bool on) noexcept { concurrent_ = on; }

  /// Canonical pointer for the given value. Returns the shared zero/one
  /// entries for values within tolerance of 0 and 1 respectively.
  CWeight lookup(ComplexValue v);
  CWeight lookup(double r, double i) { return lookup(ComplexValue{r, i}); }

  /// Shared canonical constants.
  [[nodiscard]] CWeight zero() const noexcept { return &zero_; }
  [[nodiscard]] CWeight one() const noexcept { return &one_; }

  /// Pin/unpin a weight as the top weight of a rooted edge. The constants
  /// are permanently pinned; calls on them are no-ops.
  void incRef(CWeight w) noexcept {
    if (Entry* entry = pinnable(w)) {
      ++entry->rootRef;
    }
  }
  void decRef(CWeight w) noexcept;

  /// Drop every entry that is neither in \p live, nor root-pinned, nor a
  /// constant, and return how many were dropped. Any un-rooted CWeight held
  /// by a caller is dangling afterwards (same contract as node GC).
  std::size_t garbageCollect(const std::unordered_set<CWeight>& live);

  [[nodiscard]] double tolerance() const noexcept { return tol_; }

  /// Incarnation of the entry behind \p w, bumped whenever garbageCollect()
  /// recycles it (0 for the constants). Compute-table entries surviving a
  /// GC use it to detect weight-pointer reuse, as Node::id for nodes.
  [[nodiscard]] std::uint64_t incarnation(CWeight w) const noexcept {
    return w == &zero_ || w == &one_ ? 0 : asEntry(w)->id;
  }

  /// Number of live canonical entries (the two constants included).
  [[nodiscard]] std::size_t size() const noexcept {
    return live_.load(std::memory_order_relaxed) + 2;
  }

  /// Chain heads in the bucket array. Quiescent points only.
  [[nodiscard]] std::size_t bucketCount() const noexcept {
    return buckets_.size();
  }
  /// Bytes of entries (live or free) and buckets, for the byte budget.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return bytes_.load(std::memory_order_relaxed);
  }

  /// Lookup statistics (for instrumentation and tests).
  [[nodiscard]] std::size_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }
  /// Times a concurrent probe found a stripe lock already held.
  [[nodiscard]] std::size_t lockWaits() const noexcept {
    return lockWaits_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    ComplexValue v;
    std::uint64_t key = 0;  ///< cell key (see cellKey)
    Entry* next = nullptr;  ///< bucket chain, or free list once collected
    std::uint32_t rootRef = 0;
    std::uint64_t id = 0;  ///< see incarnation()
  };

  /// Every non-constant CWeight points at the first member of an Entry.
  static const Entry* asEntry(CWeight w) noexcept {
    return reinterpret_cast<const Entry*>(w);
  }

  [[nodiscard]] std::int64_t cellOf(double x) const noexcept {
    return static_cast<std::int64_t>(std::llround(x / cell_));
  }
  static std::uint64_t cellKey(std::int64_t cr, std::int64_t ci) noexcept;

  /// Find v in cell \p key (its stripe held when concurrent). On a miss,
  /// \p tail receives the link at the end of the cell's chain.
  CWeight probeCell(std::uint64_t key, const ComplexValue& v, Entry*** tail);
  /// The entry whose root count incRef/decRef may change, or nullptr.
  Entry* pinnable(CWeight w) const noexcept;
  [[nodiscard]] bool wantsGrowth() const noexcept {
    return live_.load(std::memory_order_relaxed) >
           kMaxAverageChain * buckets_.size();
  }
  /// Relink into kGrowthFactor times the buckets (serial or all stripes).
  void grow() noexcept;

  double tol_;
  double cell_;  ///< grid cell size (2 * tolerance)
  ComplexValue zero_{0.0, 0.0};
  ComplexValue one_{1.0, 0.0};
  /// Chain heads; the size is a power of two.
  std::vector<Entry*> buckets_ = std::vector<Entry*>(kInitialBuckets);
  std::deque<Entry> entries_;    ///< deque: stable addresses
  Entry* free_ = nullptr;        ///< collected entries, threaded via next
  std::mutex allocMutex_;  ///< guards entries_/free_ (nested in stripes)
  detail::StripeLocks<kStripes> stripes_;
  bool concurrent_ = false;
  std::atomic<std::size_t> live_{0};
  std::atomic<std::size_t> bytes_{kInitialBuckets * sizeof(Entry*)};
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
  std::atomic<std::uint64_t> lockWaits_{0};
};

}  // namespace ddsim::dd
