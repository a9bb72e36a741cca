/// \file result_cache.hpp
/// \brief Content-addressed LRU cache of finished simulation results.
///
/// The batch-simulation service answers duplicate submissions without
/// re-simulating. A cache entry is keyed by the triple
/// (circuit content hash, strategy-config hash, seed): the circuit hash is
/// ir::contentHash over the canonicalized operation stream, the config hash
/// is sim::StrategyConfig::contentHash, and the seed pins the stochastic
/// measurement outcomes. The full triple is stored and compared — the
/// 64-bit hashes only pick the bucket, so a hash collision costs a missed
/// dedup opportunity, never a wrong answer being served.
///
/// One mutex guards one hash map and one LRU list. Counters are atomics,
/// so counters() never takes the lock.

#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ir/hash.hpp"
#include "sim/stats.hpp"

namespace ddsim::serve {

/// Content-addressed identity of a job whose outcome is cacheable.
struct CacheKey {
  std::uint64_t circuitHash = 0;
  std::uint64_t configHash = 0;
  std::uint64_t seed = 0;

  bool operator==(const CacheKey&) const noexcept = default;

  /// Mixed 64-bit digest used for bucket selection.
  [[nodiscard]] std::uint64_t digest() const noexcept {
    std::uint64_t h = ir::hashCombine(ir::kHashSeed, circuitHash);
    h = ir::hashCombine(h, configHash);
    return ir::hashCombine(h, seed);
  }
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const noexcept {
    return static_cast<std::size_t>(k.digest());
  }
};

/// The detached portion of a finished simulation that can be replayed to a
/// duplicate submitter (no DD handles — the backing package is long gone).
struct CachedOutcome {
  std::vector<bool> classicalBits;
  sim::SimulationStats stats;
};

/// Monotonic cache counters (snapshot via ResultCache::counters()).
struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;  ///< current live entries
};

class ResultCache {
 public:
  /// \p capacity is the entry budget; capacity == 0 disables the cache
  /// (every lookup misses, inserts drop).
  explicit ResultCache(std::size_t capacity) : capacity_(capacity) {}

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Look up and touch (move to most-recently-used) an entry.
  [[nodiscard]] std::optional<CachedOutcome> lookup(const CacheKey& key);

  /// Insert or refresh an entry, evicting the LRU tail if full.
  void insert(const CacheKey& key, CachedOutcome outcome);

  [[nodiscard]] CacheCounters counters() const;

  /// Copy out every live entry, most-recently-used first — the input of a
  /// persistence snapshot.
  [[nodiscard]] std::vector<std::pair<CacheKey, CachedOutcome>>
  snapshotEntries() const;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  /// Front = most recently used.
  std::list<std::pair<CacheKey, CachedOutcome>> lru_;
  std::unordered_map<CacheKey, decltype(lru_)::iterator, CacheKeyHash> index_;

  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::size_t> entries_{0};
};

}  // namespace ddsim::serve
