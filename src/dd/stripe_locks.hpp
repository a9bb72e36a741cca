/// \file stripe_locks.hpp
/// \brief Fixed pool of stripe mutexes shared by the unique, compute and
///        complex tables.
///
/// A probe holds one stripe (chosen from the key's hash) for the duration
/// of its walk; the complex table's inserting probe holds a SetLock of
/// several. Growing a table re-indexes every entry, so it runs under
/// exclusive(). SetLock and exclusive() both take their stripes in
/// ascending index order, and a single-stripe probe never waits for a
/// second stripe while holding one, so no deadlock is possible.

#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <type_traits>

namespace ddsim::dd::detail {

template <std::size_t N>
class StripeLocks {
  static_assert((N & (N - 1)) == 0, "stripe count must be a power of two");

 public:
  /// Lock the stripe of \p hash. try_lock-first so contention is
  /// observable (\p waits) without a timing probe. The caller adopts the
  /// returned mutex into a lock guard.
  std::mutex& acquire(std::size_t hash,
                      std::atomic<std::uint64_t>& waits) noexcept {
    std::mutex& m = locks_[hash & (N - 1)];
    if (!m.try_lock()) {
      waits.fetch_add(1, std::memory_order_relaxed);
      m.lock();
    }
    return m;
  }

  /// Holds the stripes whose bits are set in a 64-bit mask, taken in
  /// ascending index order, until destruction.
  class SetLock {
    static_assert(N <= 64, "a stripe set is one 64-bit word");

   public:
    SetLock(StripeLocks& locks, std::uint64_t set,
            std::atomic<std::uint64_t>& waits) noexcept
        : locks_(locks), set_(set) {
      for (std::uint64_t s = set_; s != 0; s &= s - 1) {
        locks_.acquire(static_cast<std::size_t>(std::countr_zero(s)), waits);
      }
    }
    ~SetLock() {
      for (std::uint64_t s = set_; s != 0; s &= s - 1) {
        locks_.locks_[static_cast<std::size_t>(std::countr_zero(s))].unlock();
      }
    }
    SetLock(const SetLock&) = delete;
    SetLock& operator=(const SetLock&) = delete;

   private:
    StripeLocks& locks_;
    std::uint64_t set_;
  };

  /// Run \p f with every stripe held, so no probe is in flight.
  template <typename F>
  void exclusive(F&& f) noexcept {
    static_assert(std::is_nothrow_invocable_v<F&>,
                  "an exclusive section must not throw with stripes held");
    for (auto& m : locks_) {
      m.lock();
    }
    f();
    for (auto it = locks_.rbegin(); it != locks_.rend(); ++it) {
      it->unlock();
    }
  }

 private:
  std::array<std::mutex, N> locks_;
};

}  // namespace ddsim::dd::detail
