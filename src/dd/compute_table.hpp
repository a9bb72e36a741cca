/// \file compute_table.hpp
/// \brief Set-associative operation caches with generation-tagged entries.
///
/// Re-occurring sub-products/sub-sums only have to be computed once — this
/// memoization is what makes the recursive DD operations of Figs. 3 and 4
/// of the paper polynomial in the *DD size* rather than the vector size.
///
/// Three properties matter for the constant factor:
///
///  * **Associativity.** A direct-mapped table drops a still-hot entry on
///    every index collision. Each table here is 4-way set-associative with
///    round-robin replacement, which keeps conflicting hot entries alive.
///
///  * **GC survival.** Garbage collection does not iterate the table;
///    instead `newGeneration()` bumps a 64-bit generation counter in O(1),
///    which logically invalidates every entry at once. A *stale* entry
///    (older generation) whose key still matches is not discarded outright:
///    the caller-supplied revalidator checks — via node serials (Node::id)
///    and weight incarnations (ComplexTable::incarnation) — whether all
///    operands and the result survived the collection. If so, the entry is
///    re-tagged with the current generation and the memoized result is
///    reused ("GC retention"); otherwise the entry dies. This is sound even
///    when the memory manager recycles a freed node into a new one at the
///    same address, because a recycled node gets a new serial.
///
///  * **No address in a hash.** Set indices mix node serials and weight
///    values, so which entries collide and get evicted is a function of the
///    operation sequence, not of where the allocator put the nodes.
///
///  * **Demand sizing.** A table starts at kInitialEntries (2^10) and grows
///    x4, up to its MaxEntries cap, once the inserts since the last resize
///    reach the current capacity. A small job therefore neither allocates
///    nor zeroes the multi-megabyte worst case. Growth re-inserts every
///    entry with its `gen` and `stamp`, so retention is unaffected; each
///    old set spreads over four new sets, so nothing is evicted. (A stale
///    entry whose hash moved has a recycled operand and is dropped.) Growth
///    runs inline in insert(): a table that could only grow between
///    top-level operations would thrash through one large multiplication.
///    The trigger counts inserts only, so the table size is a pure function
///    of the operation sequence. A std::bad_alloc while growing keeps the
///    smaller table (only the hit rate suffers).
///
/// Counter semantics (see also CacheStats): `hits()` counts lookups served
/// from the table (including revalidated stale entries), `misses()` counts
/// every unsuccessful lookup — including lookups that are never followed by
/// an insert() because the surrounding operation aborted; an entry is not
/// required to materialize for the miss to have happened.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "dd/node.hpp"

namespace ddsim::dd {

/// Aggregate hit/miss/retention counters of one table, exposed to
/// Package::cacheStats(). 64-bit so week-long runs cannot wrap them.
struct ComputeTableCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Stale entries revalidated across a GC (subset of hits).
  std::uint64_t retained = 0;
  /// Stale entries whose operands/result died in a GC.
  std::uint64_t staleDropped = 0;
};

namespace detail {
/// Entry of a binary-operation cache. Keys are two edges: node pointer plus
/// a canonical weight pointer, or a weight value compared exactly.
template <typename LEdge, typename REdge, typename Result>
struct BinaryEntry {
  LEdge a{};
  REdge b{};
  Result result{};
  /// Incarnation stamp over every pointer the entry references, computed
  /// by the caller at insert time (Package::opStamp).
  std::uint64_t stamp = 0;
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
  std::uint64_t stamp = 0;
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

  /// O(1) whole-table invalidation: entries become stale and individually
  /// eligible for revalidation on their next lookup.
  void newGeneration() noexcept { ++gen_; }

  /// Hard reset (tests / explicit cache flush): discards every entry with
  /// no chance of revalidation.
  void clear() noexcept {
    for (auto& entry : table_) {
      entry.gen = 0;
    }
    gen_ = 1;
  }

  [[nodiscard]] std::uint64_t hits() const noexcept { return counters_.hits; }
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return counters_.misses;
  }
  [[nodiscard]] const ComputeTableCounters& counters() const noexcept {
    return counters_;
  }

 protected:
  void insertEntry(const Entry& fresh) noexcept {
    insertIn(fresh.hash(), fresh);
    if (++inserts_ >= table_.size() && table_.size() < MaxEntries) {
      grow();
    }
  }

  /// On a hit the cached result is copied into \p out and true is returned.
  /// \p revalidate is only invoked for key-matching entries from an older
  /// generation; it must return true iff the entry's stamp still matches
  /// the current incarnations of everything it references.
  template <typename Revalidate>
  bool findEntry(const Entry& key, Result& out,
                 Revalidate& revalidate) noexcept {
    return lookupIn(key.hash(), key, out, revalidate);
  }

 private:
  Entry* setOf(std::uint64_t h) noexcept {
    return &table_[(static_cast<std::size_t>(h) & setMask_) * kWays];
  }

  /// Re-insert every entry (live or stale) into a table kGrowthFactor times
  /// larger.
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
      if (e.gen == 0) {
        continue;
      }
      const auto h = static_cast<std::size_t>(e.hash());
      if ((h & setMask_) != i / kWays) {
        continue;  // stale, with an operand recycled since (see above)
      }
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

  void insertIn(std::uint64_t h, const Entry& fresh) noexcept {
    Entry* set = setOf(h);
    Entry* victim = nullptr;
    for (std::size_t w = 0; w < kWays; ++w) {
      Entry& e = set[w];
      if (e.gen != gen_) {
        // Empty or stale way: preferred victim (stale entries that still
        // mattered would have been revalidated by a lookup before the
        // recomputation that leads to this insert).
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
  }

  template <typename Revalidate>
  bool lookupIn(std::uint64_t h, const Entry& key, Result& out,
                Revalidate& revalidate) noexcept {
    Entry* set = setOf(h);
    for (std::size_t w = 0; w < kWays; ++w) {
      Entry& e = set[w];
      if (e.sameKey(key) && e.gen != 0) [[likely]] {
        if (e.gen == gen_) [[likely]] {
          ++counters_.hits;
          out = e.result;
          return true;
        }
        if (revalidate(e)) {
          e.gen = gen_;
          ++counters_.retained;
          ++counters_.hits;
          out = e.result;
          return true;
        }
        e.gen = 0;
        ++counters_.staleDropped;
        ++counters_.misses;
        return false;
      }
    }
    ++counters_.misses;
    return false;
  }

  // Heap storage: a Package aggregates several of these tables, and stack
  // allocation of multi-megabyte members would overflow the stack.
  std::vector<Entry> table_;
  std::size_t setMask_ = kInitialEntries / kWays - 1;
  std::uint64_t gen_ = 1;
  /// Inserts since the last resize (the growth trigger).
  std::size_t inserts_ = 0;
  std::uint32_t roundRobin_ = 0;
  ComputeTableCounters counters_;
};
}  // namespace detail

/// Cache for binary DD operations. The value is caller-defined — typically
/// a node pointer plus the result's top weight *by value* (see
/// Package::CachedVEdge), so that a retained entry does not depend on the
/// liveness of a canonical weight pointer.
template <typename LEdge, typename REdge, typename Result,
          std::size_t MaxEntries = (1U << 17)>
class ComputeTable
    : public detail::SetAssociativeCache<
          detail::BinaryEntry<LEdge, REdge, Result>, MaxEntries> {
 public:
  using Entry = detail::BinaryEntry<LEdge, REdge, Result>;

  void insert(const LEdge& a, const REdge& b, const Result& r,
              std::uint64_t stamp) noexcept {
    this->insertEntry(Entry{a, b, r, stamp});
  }

  /// See SetAssociativeCache::findEntry for the hit and revalidation
  /// protocol.
  template <typename Revalidate>
  bool lookup(const LEdge& a, const REdge& b, Result& out,
              Revalidate&& revalidate) noexcept {
    return this->findEntry(Entry{a, b}, out, revalidate);
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

  void insert(const ArgEdge& a, const Result& r, std::uint64_t stamp) noexcept {
    this->insertEntry(Entry{a, r, stamp});
  }

  template <typename Revalidate>
  bool lookup(const ArgEdge& a, Result& out, Revalidate&& revalidate) noexcept {
    return this->findEntry(Entry{a}, out, revalidate);
  }
};

}  // namespace ddsim::dd
