#include "serve/result_cache.hpp"

#include <utility>

namespace ddsim::serve {

std::optional<CachedOutcome> ResultCache::lookup(const CacheKey& key) {
  if (capacity_ == 0) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->second;
}

void ResultCache::insert(const CacheKey& key, CachedOutcome outcome) {
  if (capacity_ == 0) {
    return;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(outcome);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    entries_.fetch_sub(1, std::memory_order_relaxed);
  }
  lru_.emplace_front(key, std::move(outcome));
  index_.emplace(key, lru_.begin());
  insertions_.fetch_add(1, std::memory_order_relaxed);
  entries_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<std::pair<CacheKey, CachedOutcome>> ResultCache::snapshotEntries()
    const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return {lru_.begin(), lru_.end()};
}

CacheCounters ResultCache::counters() const {
  CacheCounters c;
  c.hits = hits_.load(std::memory_order_relaxed);
  c.misses = misses_.load(std::memory_order_relaxed);
  c.insertions = insertions_.load(std::memory_order_relaxed);
  c.evictions = evictions_.load(std::memory_order_relaxed);
  c.entries = entries_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace ddsim::serve
