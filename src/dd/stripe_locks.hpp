/// \file stripe_locks.hpp
/// \brief Fixed pool of stripe mutexes shared by the unique and compute
///        tables.
///
/// A probe holds exactly one stripe (chosen from the key's hash) for the
/// duration of its walk. Growing a table re-indexes every entry, so it runs
/// under exclusive(): all stripes taken in index order. Since a probe never
/// waits for a second stripe while holding one, the fixed order cannot
/// deadlock.

#pragma once

#include <array>
#include <atomic>
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
