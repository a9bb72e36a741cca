#include "dd/complex_table.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace ddsim::dd {

ComplexTable::ComplexTable(double tolerance)
    : tol_(tolerance), cell_(2.0 * tolerance) {}

std::int64_t ComplexTable::cellOf(double x) const noexcept {
  return static_cast<std::int64_t>(std::llround(x / cell_));
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

CWeight ComplexTable::probeCell(std::uint64_t key,
                                const ComplexValue& v) const {
  const auto& buckets = shards_[shardOf(key)].buckets;
  const auto it = buckets.find(key);
  if (it == buckets.end()) {
    return nullptr;
  }
  for (CWeight e : it->second) {
    if (e->approximatelyEquals(v, tol_)) {
      return e;
    }
  }
  return nullptr;
}

CWeight ComplexTable::insertEntry(std::uint64_t key, const ComplexValue& v) {
  Entry* entry;
  {
    // Nested inside the shard lock(s) in concurrent mode; lock order is
    // always shard(s) -> allocator.
    std::unique_lock<std::mutex> alloc(allocMutex_, std::defer_lock);
    if (concurrent_) {
      alloc.lock();
    }
    if (!freeList_.empty()) {
      entry = freeList_.back();
      freeList_.pop_back();
      entry->v = v;
      entry->rootRef = 0;
    } else {
      entries_.push_back(Entry{v, 0});
      entry = &entries_.back();
    }
  }
  CWeight w = &entry->v;
  shards_[shardOf(key)].buckets[key].push_back(w);
  return w;
}

CWeight ComplexTable::lookup(ComplexValue v) {
  // Snap to the exact constants first; they are by far the most common
  // weights and pointer identity with zero()/one() is relied upon by the
  // package's fast paths.
  if (v.approximatelyZero(tol_)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return &zero_;
  }
  if (v.approximatelyOne(tol_)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return &one_;
  }

  const std::int64_t cr = cellOf(v.r);
  const std::int64_t ci = cellOf(v.i);
  const std::uint64_t homeKey = cellKey(cr, ci);

  // Any candidate within tolerance lies in a cell intersecting [v ± tol].
  // With cell = 2*tol that interval spans two cells per axis, or three
  // when the component is exactly 0 (llround(±0.5) = ±1) — every real or
  // purely imaginary weight. So up to 3 x 3 cells need probing.
  const std::int64_t crLo = cellOf(v.r - tol_);
  const std::int64_t crHi = cellOf(v.r + tol_);
  const std::int64_t ciLo = cellOf(v.i - tol_);
  const std::int64_t ciHi = cellOf(v.i + tol_);
  std::array<std::uint64_t, 9> keys{};
  std::size_t numKeys = 0;
  keys[numKeys++] = homeKey;
  for (std::int64_t pr = crLo; pr <= crHi; ++pr) {
    for (std::int64_t pi = ciLo; pi <= ciHi; ++pi) {
      if (pr == cr && pi == ci) {
        continue;  // home cell is always first
      }
      keys[numKeys++] = cellKey(pr, pi);
    }
  }

  if (!concurrent_) {
    for (std::size_t k = 0; k < numKeys; ++k) {
      if (CWeight e = probeCell(keys[k], v)) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return e;
      }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return insertEntry(homeKey, v);
  }

  // Concurrent path. Optimistic probe: each candidate cell under its own
  // shard lock — home cell first, where almost every hit lands.
  const auto lockShard = [&](std::size_t shard) -> std::mutex& {
    std::mutex& m = shards_[shard].mutex;
    if (!m.try_lock()) {
      lockWaits_.fetch_add(1, std::memory_order_relaxed);
      m.lock();
    }
    return m;
  };
  for (std::size_t k = 0; k < numKeys; ++k) {
    std::mutex& m = lockShard(shardOf(keys[k]));
    const std::lock_guard<std::mutex> lock(m, std::adopt_lock);
    if (CWeight e = probeCell(keys[k], v)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return e;
    }
  }

  // Miss: lock *every* involved shard (deduplicated, ascending index — no
  // deadlock) and re-probe before inserting. Two threads canonicalizing
  // values within tolerance of each other have overlapping candidate cells,
  // hence overlapping lock sets; whichever inserts first is found by the
  // other's re-probe, keeping the representative unique.
  std::array<std::size_t, 9> shardIds{};
  std::size_t numShards = 0;
  for (std::size_t k = 0; k < numKeys; ++k) {
    const std::size_t s = shardOf(keys[k]);
    bool seen = false;
    for (std::size_t j = 0; j < numShards; ++j) {
      seen = seen || shardIds[j] == s;
    }
    if (!seen) {
      shardIds[numShards++] = s;
    }
  }
  // Tiny fixed-capacity insertion sort (std::sort trips -Warray-bounds on
  // arrays smaller than its insertion-sort threshold).
  for (std::size_t j = 1; j < numShards; ++j) {
    for (std::size_t k = j; k > 0 && shardIds[k] < shardIds[k - 1]; --k) {
      std::swap(shardIds[k], shardIds[k - 1]);
    }
  }
  for (std::size_t j = 0; j < numShards; ++j) {
    lockShard(shardIds[j]);
  }
  CWeight result = nullptr;
  for (std::size_t k = 0; k < numKeys && result == nullptr; ++k) {
    result = probeCell(keys[k], v);
  }
  if (result != nullptr) {
    hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    result = insertEntry(homeKey, v);
  }
  for (std::size_t j = numShards; j > 0; --j) {
    shards_[shardIds[j - 1]].mutex.unlock();
  }
  return result;
}

void ComplexTable::incRef(CWeight w) noexcept {
  if (w == nullptr || w == &zero_ || w == &one_) {
    return;
  }
  auto* entry = const_cast<Entry*>(asEntry(w));
  if (entry->rootRef != std::numeric_limits<std::uint32_t>::max()) {
    ++entry->rootRef;
  }
}

void ComplexTable::decRef(CWeight w) noexcept {
  if (w == nullptr || w == &zero_ || w == &one_) {
    return;
  }
  auto* entry = const_cast<Entry*>(asEntry(w));
  if (entry->rootRef != std::numeric_limits<std::uint32_t>::max()) {
    assert(entry->rootRef > 0 && "decRef on unreferenced weight");
    --entry->rootRef;
  }
}

std::size_t ComplexTable::garbageCollect(const std::unordered_set<CWeight>& live) {
  // Quiescent point: no concurrent lookups in flight, so no locks taken.
  std::size_t collected = 0;
  for (auto& shard : shards_) {
    for (auto it = shard.buckets.begin(); it != shard.buckets.end();) {
      auto& vec = it->second;
      const auto removeBegin =
          std::remove_if(vec.begin(), vec.end(), [&](CWeight w) {
            if (live.count(w) != 0 || asEntry(w)->rootRef > 0) {
              return false;
            }
            auto* entry = const_cast<Entry*>(asEntry(w));
            // Bump the incarnation at free time so any compute-table entry
            // still referencing this weight fails revalidation immediately.
            ++entry->id;
            freeList_.push_back(entry);
            return true;
          });
      collected += static_cast<std::size_t>(vec.end() - removeBegin);
      vec.erase(removeBegin, vec.end());
      if (vec.empty()) {
        it = shard.buckets.erase(it);
      } else {
        ++it;
      }
    }
  }
  return collected;
}

}  // namespace ddsim::dd
