/// \file compute_table.hpp
/// \brief Set-associative operation caches with generation-tagged entries.
///
/// Re-occurring sub-products/sub-sums only have to be computed once — this
/// memoization is what makes the recursive DD operations of Figs. 3 and 4
/// of the paper polynomial in the *DD size* rather than the vector size.
///
/// Four properties matter for soundness and the constant factor:
///
///  * **Associativity.** A direct-mapped table drops a still-hot entry on
///    every index collision. Each table here is 4-way set-associative with
///    round-robin replacement, which keeps conflicting hot entries alive.
///
///  * **Invalidation by generation.** A garbage collection calls
///    `newGeneration(keep)`, which bumps a 64-bit generation counter and,
///    in the same pass, carries over the entries naming no collected node:
///    while the freed nodes still sit unrecycled on the free list, their
///    cleared ids tell them apart. An entry of an older generation is
///    *stale*: it is always a miss, and no lookup, insert or resize reads
///    through its pointers, whose nodes and weights may since have been
///    collected, recycled at the same address or returned to the OS.
///    Within one generation nothing is freed, so every pointer of a
///    current entry is valid.
///
///  * **No address in a hash.** Set indices mix node serials and weight
///    values, so which entries collide and get evicted is a function of the
///    operation sequence, not of where the allocator put the nodes.
///
///  * **Demand sizing.** A table starts at kInitialEntries (2^10) and grows
///    x4, up to its MaxEntries cap, once the inserts since the last resize
///    reach the current capacity. A small job therefore neither allocates
///    nor zeroes the multi-megabyte worst case. Growth re-inserts the
///    current generation's entries and drops the stale ones; each old set
///    spreads over four new sets, so no live entry is evicted. Growth runs
///    inline in insert(): a table that could only grow between top-level
///    operations would thrash through one large multiplication. The
///    trigger counts inserts only, so the table size is a pure function of
///    the operation sequence. A std::bad_alloc while growing keeps the
///    smaller table (only the hit rate suffers).
///
/// Counter semantics (see also CacheStats): `hits()` counts lookups served
/// from the table, `misses()` counts every unsuccessful lookup — including
/// lookups that are never followed by an insert() because the surrounding
/// operation aborted; an entry is not required to materialize for the miss
/// to have happened.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "dd/node.hpp"

namespace ddsim::dd {

namespace detail {
/// Entry of a binary-operation cache. Keys are two edges: node pointer plus
/// a canonical weight pointer, or a weight value compared exactly.
template <typename LEdge, typename REdge, typename Result>
struct BinaryEntry {
  LEdge a{};
  REdge b{};
  Result result{};
  /// Generation tag; 0 = empty. Valid iff equal to the table generation.
  std::uint64_t gen = 0;

  [[nodiscard]] std::uint64_t hash() const noexcept {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    hashMix(h, a.p);
    hashMix(h, a.w);
    hashMix(h, b.p);
    hashMix(h, b.w);
    return h;
  }
  [[nodiscard]] bool sameKey(const BinaryEntry& o) const noexcept {
    return a == o.a && b == o.b;
  }
};

/// Entry of a unary-operation cache (same fields minus the second key).
template <typename ArgEdge, typename Result>
struct UnaryEntry {
  ArgEdge a{};
  Result result{};
  std::uint64_t gen = 0;

  [[nodiscard]] std::uint64_t hash() const noexcept {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    hashMix(h, a.p);
    hashMix(h, a.w);
    return h;
  }
  [[nodiscard]] bool sameKey(const UnaryEntry& o) const noexcept {
    return a == o.a;
  }
};

/// Storage, growth and counters shared by ComputeTable and
/// UnaryComputeTable.
template <typename Entry, std::size_t MaxEntries>
class SetAssociativeCache {
 public:
  using Result = decltype(Entry::result);
  static constexpr std::size_t kWays = 4;
  static constexpr std::size_t kInitialEntries = 1U << 10;
  static constexpr std::size_t kGrowthFactor = 4;
  static_assert((MaxEntries & (MaxEntries - 1)) == 0 &&
                    MaxEntries >= kInitialEntries,
                "table size must be a power of two of at least 2^10");

  SetAssociativeCache() : table_(kInitialEntries) {}

  /// Entries the table currently holds room for.
  [[nodiscard]] std::size_t capacity() const noexcept { return table_.size(); }

  /// End the generation: every entry becomes stale, and a stale entry never
  /// hits again, except the current entries for which \p keep holds, which
  /// are carried into the new generation. One pass over the table; a
  /// garbage collection runs it before any freed node is recycled or
  /// released, so \p keep may still read the pointers of current entries.
  template <typename Keep>
  void newGeneration(const Keep& keep) noexcept {
    const std::uint64_t ended = gen_++;
    for (Entry& e : table_) {
      if (e.gen == ended && keep(e)) {
        e.gen = gen_;
      }
    }
  }

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }

 protected:
  void insertEntry(const Entry& fresh) noexcept {
    Entry* set = setOf(fresh.hash());
    Entry* victim = nullptr;
    for (std::size_t w = 0; w < kWays; ++w) {
      Entry& e = set[w];
      if (e.gen != gen_) {
        // Empty or stale way: the preferred victim.
        if (victim == nullptr) {
          victim = &e;
        }
        continue;
      }
      if (e.sameKey(fresh)) {
        victim = &e;  // refresh an existing entry in place
        break;
      }
    }
    if (victim == nullptr) {
      victim = &set[roundRobin_++ & (kWays - 1)];
    }
    *victim = fresh;
    victim->gen = gen_;
    if (++inserts_ >= table_.size() && table_.size() < MaxEntries) {
      grow();
    }
  }

  /// On a hit the cached result is copied into \p out and true is returned.
  bool findEntry(const Entry& key, Result& out) noexcept {
    const Entry* set = setOf(key.hash());
    for (std::size_t w = 0; w < kWays; ++w) {
      const Entry& e = set[w];
      if (e.gen == gen_ && e.sameKey(key)) {
        ++hits_;
        out = e.result;
        return true;
      }
    }
    ++misses_;
    return false;
  }

 private:
  Entry* setOf(std::uint64_t h) noexcept {
    return &table_[(static_cast<std::size_t>(h) & setMask_) * kWays];
  }

  /// Re-insert the current generation's entries into a table
  /// kGrowthFactor times larger; stale entries are dropped unread.
  void grow() noexcept {
    inserts_ = 0;
    const std::size_t entries =
        std::min(table_.size() * kGrowthFactor, MaxEntries);
    std::vector<Entry> bigger;
    try {
      bigger.resize(entries);
    } catch (const std::bad_alloc&) {
      return;  // keep the smaller table; retry after another fill
    }
    const std::size_t mask = entries / kWays - 1;
    for (std::size_t i = 0; i < table_.size(); ++i) {
      const Entry& e = table_[i];
      if (e.gen != gen_) {
        continue;
      }
      const auto h = static_cast<std::size_t>(e.hash());
      // The entries of one old set spread over the new sets congruent to
      // it, so a free way always exists.
      Entry* set = &bigger[(h & mask) * kWays];
      for (std::size_t w = 0; w < kWays; ++w) {
        if (set[w].gen == 0) {
          set[w] = e;
          break;
        }
      }
    }
    table_.swap(bigger);
    setMask_ = mask;
  }

  // Heap storage: a Package aggregates several of these tables, and stack
  // allocation of multi-megabyte members would overflow the stack.
  std::vector<Entry> table_;
  std::size_t setMask_ = kInitialEntries / kWays - 1;
  std::uint64_t gen_ = 1;
  /// Inserts since the last resize (the growth trigger).
  std::size_t inserts_ = 0;
  std::uint32_t roundRobin_ = 0;
  /// 64-bit so week-long runs cannot wrap them.
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};
}  // namespace detail

/// Cache for binary DD operations. The value is caller-defined — typically
/// a node pointer plus the result's top weight *by value* (see
/// Package::CachedVEdge), so that a hit needs no complex-table lookup.
template <typename LEdge, typename REdge, typename Result,
          std::size_t MaxEntries = (1U << 17)>
class ComputeTable
    : public detail::SetAssociativeCache<
          detail::BinaryEntry<LEdge, REdge, Result>, MaxEntries> {
 public:
  using Entry = detail::BinaryEntry<LEdge, REdge, Result>;

  void insert(const LEdge& a, const REdge& b, const Result& r) noexcept {
    this->insertEntry(Entry{a, b, r});
  }

  /// On a hit the cached result is copied into \p out and true is returned.
  bool lookup(const LEdge& a, const REdge& b, Result& out) noexcept {
    return this->findEntry(Entry{a, b}, out);
  }
};

/// Cache for unary DD operations (conjugate-transpose, norm, ...). Same
/// associativity, generation-tag and growth protocol as
/// ComputeTable.
template <typename ArgEdge, typename Result,
          std::size_t MaxEntries = (1U << 15)>
class UnaryComputeTable
    : public detail::SetAssociativeCache<detail::UnaryEntry<ArgEdge, Result>,
                                         MaxEntries> {
 public:
  using Entry = detail::UnaryEntry<ArgEdge, Result>;

  void insert(const ArgEdge& a, const Result& r) noexcept {
    this->insertEntry(Entry{a, r});
  }

  bool lookup(const ArgEdge& a, Result& out) noexcept {
    return this->findEntry(Entry{a}, out);
  }
};

}  // namespace ddsim::dd
