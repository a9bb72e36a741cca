#include "dd/complex_table.hpp"

#include <array>
#include <cassert>
#include <limits>
#include <new>
#include <optional>
#include <utility>

namespace ddsim::dd {

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
  bytes_.fetch_add((bigger.size() - oldSize) * sizeof(Entry*),
                   std::memory_order_relaxed);
  buckets_.swap(bigger);
}

CWeight ComplexTable::lookup(ComplexValue v) {
  // Snap to the constants first: the most common weights, and the package's
  // fast paths rely on pointer identity with zero()/one().
  if (v.approximatelyZero(tol_) || v.approximatelyOne(tol_)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return v.approximatelyZero(tol_) ? &zero_ : &one_;
  }
  const std::int64_t cr = cellOf(v.r);
  const std::int64_t ci = cellOf(v.i);
  const std::uint64_t home = cellKey(cr, ci);
  std::array<std::uint64_t, 8> keys{};  // neighbour cells
  std::size_t n = 0;
  bool neighbours = false;  // keys filled (on the first home-cell miss)
  Entry** tail = nullptr;   // end of the home cell's chain
  // Probe the home cell, then its neighbours. Any value within tolerance
  // lies in a cell intersecting [v ± tol]: two cells per axis, or three
  // when a component is exactly 0 (llround(±0.5) = ±1).
  const auto probeAll = [&](auto&& probe) {
    CWeight e = probe(home, &tail);
    if (e != nullptr) {
      return e;
    }
    for (std::int64_t pr = cellOf(v.r - tol_);
         !neighbours && pr <= cellOf(v.r + tol_); ++pr) {
      for (std::int64_t pi = cellOf(v.i - tol_); pi <= cellOf(v.i + tol_);
           ++pi) {
        if (pr != cr || pi != ci) {
          keys[n++] = cellKey(pr, pi);
        }
      }
    }
    neighbours = true;
    Entry** ignored = nullptr;
    for (std::size_t k = 0; k < n && e == nullptr; ++k) {
      e = probe(keys[k], &ignored);
    }
    return e;
  };
  const auto probe = [&](auto key, auto t) { return probeCell(key, v, t); };

  // Stripes held for the insert (concurrent mode).
  std::optional<detail::StripeLocks<kStripes>::SetLock> held;
  CWeight e = nullptr;
  if (!concurrent_) {
    e = probeAll(probe);
  } else {
    // Optimistic probe: each candidate cell under its own stripe.
    e = probeAll([&](std::uint64_t key, Entry*** t) {
      std::mutex& m = stripes_.acquire(key, lockWaits_);
      const std::lock_guard<std::mutex> lock(m, std::adopt_lock);
      return probeCell(key, v, t);
    });
    if (e == nullptr) {
      // Miss: take every involved stripe (deduplicated, ascending like
      // exclusive()) and re-probe. Values within tolerance of each other
      // share a cell, hence a stripe, so one thread sees the other's insert.
      std::uint64_t set = std::uint64_t{1} << (home & (kStripes - 1));
      for (std::size_t k = 0; k < n; ++k) {
        set |= std::uint64_t{1} << (keys[k] & (kStripes - 1));
      }
      held.emplace(stripes_, set, lockWaits_);
      e = probeAll(probe);
    }
  }
  bool growNow = false;
  if (e != nullptr) {
    hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    Entry* entry = nullptr;
    {
      // Lock order: stripe(s), then the allocator.
      const auto alloc = concurrent_ ? std::unique_lock(allocMutex_)
                                     : std::unique_lock<std::mutex>();
      if (free_ != nullptr) {
        entry = std::exchange(free_, free_->next);
      } else {
        entry = &entries_.emplace_back();
        bytes_.fetch_add(sizeof(Entry), std::memory_order_relaxed);
      }
    }
    *entry = Entry{v, home, nullptr, 0, entry->id};  // keeps the incarnation
    *tail = entry;
    live_.fetch_add(1, std::memory_order_relaxed);
    e = &entry->v;
    growNow = wantsGrowth();
  }
  held.reset();
  if (growNow && !concurrent_) {
    grow();
  } else if (growNow) {
    stripes_.exclusive([this]() noexcept {
      if (wantsGrowth()) {  // another inserter may have grown it first
        grow();
      }
    });
  }
  return e;
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
  // Quiescent point: no concurrent lookups in flight, so no locks taken.
  // Unlinking in place keeps the survivors of each cell in age order.
  std::size_t collected = 0;
  for (Entry*& head : buckets_) {
    for (Entry** link = &head; *link != nullptr;) {
      Entry* e = *link;
      if (live.count(&e->v) != 0 || e->rootRef > 0) {
        link = &e->next;
      } else {
        // Bump the incarnation at free time so any compute-table entry
        // still referencing this weight fails revalidation immediately.
        ++e->id;
        *link = std::exchange(e->next, free_);
        free_ = e;
        ++collected;
      }
    }
  }
  live_.fetch_sub(collected, std::memory_order_relaxed);
  return collected;
}

}  // namespace ddsim::dd
