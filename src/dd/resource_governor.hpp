/// \file resource_governor.hpp
/// \brief Node/byte budgets with a graduated pressure ladder.
///
/// The paper's evaluation is bounded by resource exhaustion (the ">7 200.00"
/// rows of Table II): intermediate DDs blowing up is the *normal* failure
/// mode of DD simulation, not an exception. The governor makes running out
/// of memory a first-class, recoverable outcome instead of an OS kill:
///
///  * **Soft rung** — live nodes (or allocated bytes) exceed a fraction of
///    the budget: a pressure callback fires once per episode, and the
///    package performs an emergency garbage collection (including chunk
///    release, see MemoryManager::releaseFreeChunks) at its next quiescent
///    point. Callers such as CircuitSimulator react by degrading (flushing
///    the MxM accumulator, falling back to sequential MxV, approximating).
///
///  * **Hard rung** — the budget itself is exceeded: the current operation
///    throws ResourceExhausted (sibling of ComputationAborted). The DD
///    package stays consistent: rooted DDs are untouched and abandoned
///    intermediates are reclaimed by the next garbage collection, so the
///    caller may collect and retry, degrade further, or surface the error.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

namespace ddsim::dd {

/// Resource limits enforced by a ResourceGovernor. A zero limit means
/// "unlimited" for that dimension; a default-constructed budget disables
/// the governor entirely.
struct ResourceBudget {
  /// Hard cap on live DD nodes (vector + matrix unique-table residents).
  std::size_t maxLiveNodes = 0;
  /// Hard cap on bytes held by the node allocators (chunk memory).
  std::size_t maxBytes = 0;
  /// Soft rung at softFraction * hard limit; must be in (0, 1].
  double softFraction = 0.75;

  [[nodiscard]] bool active() const noexcept {
    return maxLiveNodes != 0 || maxBytes != 0;
  }
};

enum class ResourcePressure : std::uint8_t {
  None = 0,  ///< comfortably within budget
  Soft = 1,  ///< above the soft rung: collect, degrade, shed load
  Hard = 2,  ///< budget exceeded: the operation in flight must bail out
};

/// Thrown from inside DD operations when a resource budget is exhausted (or
/// when chunk allocation hits std::bad_alloc, converted by MemoryManager).
/// Carries the live-node count, the configured budget and the operation in
/// flight. Same consistency contract as ComputationAborted: rooted DDs are
/// untouched, abandoned intermediates are reclaimed by the next GC.
class ResourceExhausted : public std::runtime_error {
 public:
  ResourceExhausted(std::string operation, std::size_t liveNodes,
                    std::size_t nodeBudget, std::size_t bytesAllocated,
                    std::string reason = {})
      : std::runtime_error(
            "resource budget exhausted during " + operation + ": " +
            std::to_string(liveNodes) + " live nodes" +
            (nodeBudget != 0 ? " (budget " + std::to_string(nodeBudget) + ")"
                             : "") +
            ", " + std::to_string(bytesAllocated) + " bytes allocated" +
            (reason.empty() ? "" : " [" + reason + "]")),
        operation_(std::move(operation)),
        liveNodes_(liveNodes),
        nodeBudget_(nodeBudget),
        bytesAllocated_(bytesAllocated) {}

  /// The top-level package operation that was in flight (e.g.
  /// "multiply(MxM)"), or "idle" outside any operation.
  [[nodiscard]] const std::string& operation() const noexcept {
    return operation_;
  }
  [[nodiscard]] std::size_t liveNodes() const noexcept { return liveNodes_; }
  /// Configured node budget (0 when the failure was byte- or alloc-driven).
  [[nodiscard]] std::size_t nodeBudget() const noexcept { return nodeBudget_; }
  [[nodiscard]] std::size_t bytesAllocated() const noexcept {
    return bytesAllocated_;
  }

 private:
  std::string operation_;
  std::size_t liveNodes_;
  std::size_t nodeBudget_;
  std::size_t bytesAllocated_;
};

/// Pure policy object: classifies resource usage against a budget and
/// debounces the soft-pressure callback (once per rising edge). The owning
/// Package performs the actual checks at node-allocation time and decides
/// when an emergency collection is safe.
class ResourceGovernor {
 public:
  /// Callback fired on a None -> Soft/Hard transition. Invoked from *inside*
  /// DD operations (at node allocation), so it must not call back into the
  /// package or throw — set a flag, record stats, nothing more.
  using PressureCallback =
      std::function<void(ResourcePressure, std::size_t /*liveNodes*/)>;

  void setBudget(const ResourceBudget& budget) {
    if (budget.softFraction <= 0.0 || budget.softFraction > 1.0) {
      throw std::invalid_argument(
          "ResourceBudget: softFraction must be in (0, 1]");
    }
    budget_ = budget;
    softNodes_ = scaled(budget.maxLiveNodes, budget.softFraction);
    softBytes_ = scaled(budget.maxBytes, budget.softFraction);
    signaled_ = false;
  }

  void setPressureCallback(PressureCallback cb) { onPressure_ = std::move(cb); }

  [[nodiscard]] const ResourceBudget& budget() const noexcept { return budget_; }
  [[nodiscard]] bool active() const noexcept { return budget_.active(); }

  [[nodiscard]] ResourcePressure classify(std::size_t liveNodes,
                                          std::size_t bytes) const noexcept {
    if ((budget_.maxLiveNodes != 0 && liveNodes >= budget_.maxLiveNodes) ||
        (budget_.maxBytes != 0 && bytes >= budget_.maxBytes)) {
      return ResourcePressure::Hard;
    }
    if ((softNodes_ != 0 && liveNodes >= softNodes_) ||
        (softBytes_ != 0 && bytes >= softBytes_)) {
      return ResourcePressure::Soft;
    }
    return ResourcePressure::None;
  }

  /// Record the current pressure level; fires the callback on a rising edge
  /// (None -> Soft/Hard) and re-arms once the pressure has receded.
  void observe(ResourcePressure level, std::size_t liveNodes) {
    if (level == ResourcePressure::None) {
      signaled_ = false;
      return;
    }
    if (!std::exchange(signaled_, true) && onPressure_) {
      onPressure_(level, liveNodes);
    }
  }

 private:
  static std::size_t scaled(std::size_t limit, double fraction) noexcept {
    return limit == 0 ? 0
                      : static_cast<std::size_t>(
                            static_cast<double>(limit) * fraction);
  }

  ResourceBudget budget_;
  std::size_t softNodes_ = 0;
  std::size_t softBytes_ = 0;
  bool signaled_ = false;
  PressureCallback onPressure_;
};

}  // namespace ddsim::dd
