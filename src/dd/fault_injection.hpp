/// \file fault_injection.hpp
/// \brief Deterministic fault injection for the resource-governance paths.
///
/// Resource exhaustion, timeouts mid-multiply and emergency collections are
/// inherently timing- and size-dependent — impossible to hit reliably with
/// real workloads in a unit test. The FaultInjector turns each of them into
/// a deterministic, countable event: fail node allocation after N requests,
/// trip the abort check during top-level operation K, force a garbage
/// collection at GC-poll S. It is compiled in unconditionally; an
/// uninstalled injector costs one null-pointer check on the affected paths.
///
/// One injector may serve several SimulationService workers at once (a
/// ServiceConfig::faultInjectorProvider can hand the same injector to every
/// job), so every counter is a relaxed atomic. configure()/disarm() remain
/// quiescent-point-only operations.

#pragma once

#include <atomic>
#include <cstdint>

namespace ddsim::dd {

class FaultInjector {
 public:
  struct Config {
    /// Let this many node requests succeed, then fail every further one
    /// with ResourceExhausted (0 = disabled). Persistent, not one-shot:
    /// callers that collect-and-retry keep failing until disarm().
    std::uint64_t failAllocationAfter = 0;
    /// Trip the abort check (ComputationAborted) at the first poll inside
    /// the K-th top-level package operation, 1-based (0 = disabled). This
    /// simulates a timeout firing mid-multiply, deterministically.
    std::uint64_t abortAtOperation = 0;
    /// Force a garbage collection at the S-th maybeGarbageCollect() poll,
    /// 1-based (0 = disabled) — one poll happens per simulator step.
    std::uint64_t forceGcAtPoll = 0;
    /// Seeded random-fault mode: fail each node request independently with
    /// this probability (0.0 = disabled). Deterministic per
    /// (randomSeed, request index) — the decision for request N is a pure
    /// SplitMix64 hash of the two, so a given seed produces the identical
    /// fault pattern on every run regardless of thread interleaving, and
    /// two injectors with the same seed agree request-for-request.
    /// Composes with failAllocationAfter (either trigger fails a request).
    double failAllocationProbability = 0.0;
    /// Stream selector for failAllocationProbability.
    std::uint64_t randomSeed = 0;
  };

  FaultInjector() = default;
  explicit FaultInjector(const Config& config) : cfg_(config) {}

  /// Quiescent-point rule (shared by configure() and disarm()): cfg_ is a
  /// plain struct read without synchronization from the injection hooks,
  /// so reconfiguration is only safe while no package that holds this
  /// injector is executing an operation — between simulator steps, or
  /// before/after a run. The counters, by contrast, are relaxed atomics
  /// and may be read at any time.
  void configure(const Config& config) noexcept { cfg_ = config; }
  /// Clear every armed fault (counters keep their values for inspection).
  void disarm() noexcept { cfg_ = Config{}; }

  /// Called by the package on every node request. True => fail this one.
  [[nodiscard]] bool onNodeRequest() noexcept {
    const std::uint64_t count =
        nodeRequests_.fetch_add(1, std::memory_order_relaxed) + 1;
    bool fail =
        cfg_.failAllocationAfter != 0 && count > cfg_.failAllocationAfter;
    if (!fail && cfg_.failAllocationProbability > 0.0) {
      // Hash (seed, request index) to a uniform double in [0, 1): the
      // fault pattern is a pure function of the seed, reproducible across
      // runs and thread schedules.
      std::uint64_t z = cfg_.randomSeed ^
                        (count * 0x9e3779b97f4a7c15ULL +
                         0x9e3779b97f4a7c15ULL);
      z ^= z >> 30;
      z *= 0xbf58476d1ce4e5b9ULL;
      z ^= z >> 27;
      z *= 0x94d049bb133111ebULL;
      z ^= z >> 31;
      const double u =
          static_cast<double>(z >> 11) * (1.0 / 9007199254740992.0);
      fail = u < cfg_.failAllocationProbability;
    }
    if (fail) {
      injectedAllocFailures_.fetch_add(1, std::memory_order_relaxed);
    }
    return fail;
  }

  /// Called from the abort poll with the current top-level operation index.
  [[nodiscard]] bool onAbortPoll(std::uint64_t opIndex) noexcept {
    const bool fire =
        cfg_.abortAtOperation != 0 && opIndex == cfg_.abortAtOperation;
    if (fire) {
      injectedAborts_.fetch_add(1, std::memory_order_relaxed);
    }
    return fire;
  }

  /// Called from maybeGarbageCollect(). True => collect now regardless of
  /// the adaptive threshold.
  [[nodiscard]] bool onGcPoll() noexcept {
    const std::uint64_t polls =
        gcPolls_.fetch_add(1, std::memory_order_relaxed) + 1;
    const bool fire = cfg_.forceGcAtPoll != 0 && polls == cfg_.forceGcAtPoll;
    if (fire) {
      injectedGcs_.fetch_add(1, std::memory_order_relaxed);
    }
    return fire;
  }

  // Observed-event counters for test assertions.
  [[nodiscard]] std::uint64_t nodeRequests() const noexcept {
    return nodeRequests_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t injectedAllocFailures() const noexcept {
    return injectedAllocFailures_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t injectedAborts() const noexcept {
    return injectedAborts_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t injectedGcs() const noexcept {
    return injectedGcs_.load(std::memory_order_relaxed);
  }

 private:
  Config cfg_;
  std::atomic<std::uint64_t> nodeRequests_{0};
  std::atomic<std::uint64_t> gcPolls_{0};
  std::atomic<std::uint64_t> injectedAllocFailures_{0};
  std::atomic<std::uint64_t> injectedAborts_{0};
  std::atomic<std::uint64_t> injectedGcs_{0};
};

}  // namespace ddsim::dd
