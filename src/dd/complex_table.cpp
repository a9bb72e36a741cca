#include "dd/complex_table.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <new>
#include <utility>

namespace ddsim::dd {

std::int64_t detail::cellIndex(double x, double cell) noexcept {
  const double q = x / cell;
  if (std::abs(q) < 0x1p62) {
    return static_cast<std::int64_t>(std::llround(q));
  }
  const auto bits =
      std::min(std::bit_cast<std::uint64_t>(std::abs(x)),
               std::bit_cast<std::uint64_t>(
                   std::numeric_limits<double>::infinity()));
  const auto index = static_cast<std::int64_t>(bits);
  return x < 0.0 ? -index : index;
}

std::uint64_t ComplexTable::cellKey(std::int64_t cr, std::int64_t ci) noexcept {
  // Mix the two cell coordinates; splitmix64-style finalizer.
  auto mix = [](std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  };
  return mix(static_cast<std::uint64_t>(cr)) ^
         (mix(static_cast<std::uint64_t>(ci)) << 1);
}

CWeight ComplexTable::probeCell(std::uint64_t key, const ComplexValue& v,
                                Entry*** tail) {
  // Chains keep each cell in insertion order: the first match is the oldest.
  Entry** link = &buckets_[key & (buckets_.size() - 1)];
  for (; *link != nullptr; link = &(*link)->next) {
    const Entry* e = *link;
    if (e->key == key && e->v.approximatelyEquals(v, tol_)) {
      return &e->v;
    }
  }
  *tail = link;
  return nullptr;
}

void ComplexTable::grow() noexcept {
  std::vector<Entry*> bigger;
  try {
    bigger.resize(buckets_.size() * kGrowthFactor, nullptr);
  } catch (const std::bad_alloc&) {
    return;  // keep the shorter bucket array; chains just grow longer
  }
  // Old bucket b splits into new buckets b + j * oldSize (j < 4). Walking
  // each old chain in order and appending keeps every cell's age order.
  const std::size_t oldSize = buckets_.size();
  for (std::size_t b = 0; b < oldSize; ++b) {
    std::array<Entry**, kGrowthFactor> tails{};
    for (std::size_t j = 0; j < kGrowthFactor; ++j) {
      tails[j] = &bigger[b + j * oldSize];
    }
    for (Entry* e = buckets_[b]; e != nullptr; e = e->next) {
      Entry**& t = tails[(e->key / oldSize) % kGrowthFactor];
      *t = e;
      t = &e->next;
    }
    for (Entry** t : tails) {
      *t = nullptr;
    }
  }
  bytes_ += (bigger.size() - oldSize) * sizeof(Entry*);
  buckets_.swap(bigger);
}

CWeight ComplexTable::lookup(ComplexValue v) {
  // Snap to the constants first: the most common weights, and the package's
  // fast paths rely on pointer identity with zero()/one().
  if (v.approximatelyZero(tol_) || v.approximatelyOne(tol_)) {
    ++hits_;
    return v.approximatelyZero(tol_) ? &zero_ : &one_;
  }
  const std::int64_t cr = cellOf(v.r);
  const std::int64_t ci = cellOf(v.i);
  const std::uint64_t home = cellKey(cr, ci);
  Entry** tail = nullptr;  // end of the home cell's chain
  CWeight e = probeCell(home, v, &tail);
  // Then the neighbours. Any value within tolerance lies in a cell
  // intersecting [v ± tol]: two cells per axis, or three when a component
  // is exactly 0 (llround(±0.5) = ±1).
  for (std::int64_t pr = cellOf(v.r - tol_);
       e == nullptr && pr <= cellOf(v.r + tol_); ++pr) {
    for (std::int64_t pi = cellOf(v.i - tol_);
         e == nullptr && pi <= cellOf(v.i + tol_); ++pi) {
      if (pr != cr || pi != ci) {
        Entry** ignored = nullptr;
        e = probeCell(cellKey(pr, pi), v, &ignored);
      }
    }
  }
  if (e != nullptr) {
    ++hits_;
    return e;
  }
  ++misses_;
  Entry* entry = nullptr;
  if (free_ != nullptr) {
    entry = std::exchange(free_, free_->next);
  } else {
    entry = &entries_.emplace_back();
    bytes_ += sizeof(Entry);
  }
  *entry = Entry{v, home, nullptr, 0};
  *tail = entry;
  ++live_;
  if (wantsGrowth()) {
    grow();
  }
  return &entry->v;
}

ComplexTable::Entry* ComplexTable::pinnable(CWeight w) const noexcept {
  // The constants are permanently pinned and a saturated count stays put.
  if (w == nullptr || w == &zero_ || w == &one_) {
    return nullptr;
  }
  auto* entry = const_cast<Entry*>(asEntry(w));
  return entry->rootRef == std::numeric_limits<std::uint32_t>::max() ? nullptr
                                                                     : entry;
}

void ComplexTable::decRef(CWeight w) noexcept {
  if (Entry* entry = pinnable(w)) {
    assert(entry->rootRef > 0 && "decRef on unreferenced weight");
    --entry->rootRef;
  }
}

std::size_t ComplexTable::garbageCollect(const std::unordered_set<CWeight>& live) {
  // Unlinking in place keeps the survivors of each cell in age order.
  std::size_t collected = 0;
  for (Entry*& head : buckets_) {
    for (Entry** link = &head; *link != nullptr;) {
      Entry* e = *link;
      if (live.count(&e->v) != 0 || e->rootRef > 0) {
        link = &e->next;
      } else {
        *link = std::exchange(e->next, free_);
        free_ = e;
        ++collected;
      }
    }
  }
  live_ -= collected;
  return collected;
}

}  // namespace ddsim::dd
