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

#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_set>
#include <vector>

#include "dd/complex_value.hpp"

namespace ddsim::dd {

/// Canonical complex weight: an immutable pointer into a ComplexTable.
using CWeight = const ComplexValue*;

namespace detail {
/// Grid index of the coordinate \p x for cells of size \p cell:
/// llround(x / cell) while |x / cell| < 2^62. Beyond that (and llround is
/// out of range from 2^63 on) one ulp of x exceeds the cell 2^9-fold, so no
/// two distinct doubles lie within tolerance of each other and the index is
/// the bit pattern of |x|, negated for negative x. Those patterns are at
/// least 2^62 for |x| >= 2, so for any cell of at least 2^-61 (the default
/// is 2e-13) they stay clear of the llround indices. NaNs share the index
/// of infinity.
std::int64_t cellIndex(double x, double cell) noexcept;
}  // namespace detail

class ComplexTable {
 public:
  static constexpr std::size_t kInitialBuckets = 1U << 10;
  static constexpr std::size_t kGrowthFactor = 4;
  static constexpr std::size_t kMaxAverageChain = 2;

  explicit ComplexTable(double tolerance = kTolerance)
      : tol_(tolerance), cell_(2.0 * tolerance) {}

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
  [[nodiscard]] std::size_t size() const noexcept { return live_ + 2; }

  /// Chain heads in the bucket array.
  [[nodiscard]] std::size_t bucketCount() const noexcept {
    return buckets_.size();
  }
  /// Bytes of entries (live or free) and buckets, for the byte budget.
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }

  /// Lookup statistics (for instrumentation and tests).
  [[nodiscard]] std::size_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::size_t misses() const noexcept { return misses_; }

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
    return detail::cellIndex(x, cell_);
  }
  static std::uint64_t cellKey(std::int64_t cr, std::int64_t ci) noexcept;

  /// Find v in cell \p key. On a miss,
  /// \p tail receives the link at the end of the cell's chain.
  CWeight probeCell(std::uint64_t key, const ComplexValue& v, Entry*** tail);
  /// The entry whose root count incRef/decRef may change, or nullptr.
  Entry* pinnable(CWeight w) const noexcept;
  [[nodiscard]] bool wantsGrowth() const noexcept {
    return live_ > kMaxAverageChain * buckets_.size();
  }
  /// Relink into kGrowthFactor times the buckets.
  void grow() noexcept;

  double tol_;
  double cell_;  ///< grid cell size (2 * tolerance)
  ComplexValue zero_{0.0, 0.0};
  ComplexValue one_{1.0, 0.0};
  /// Chain heads; the size is a power of two.
  std::vector<Entry*> buckets_ = std::vector<Entry*>(kInitialBuckets);
  std::deque<Entry> entries_;    ///< deque: stable addresses
  Entry* free_ = nullptr;        ///< collected entries, threaded via next
  std::size_t live_ = 0;
  std::size_t bytes_ = kInitialBuckets * sizeof(Entry*);
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace ddsim::dd
