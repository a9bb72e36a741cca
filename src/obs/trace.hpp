/// \file trace.hpp
/// \brief Low-overhead span tracer: RAII scoped spans recorded into
///        thread-local buffers, exportable as Chrome trace-event JSON.
///
/// Design goals (see DESIGN.md, "Observability"):
///  * **Zero-cost when disabled** — every instrumentation site costs one
///    relaxed atomic load plus one predictable branch when no collector is
///    installed. No clock read, no allocation, no lock.
///  * **No cross-thread contention when enabled** — each thread appends to
///    its own buffer; the only lock is taken once per (thread, collector)
///    pair at registration.
///  * **Faithful nesting** — begin/end records are appended in program
///    order from the owning thread, so per-track event streams are
///    monotone in time and brace-balanced by construction (the exporter
///    never needs to sort or re-pair).
///
/// Lifecycle contract: install() before the threads to be traced start
/// recording, stop() + export only after they have quiesced (worker pools
/// joined). A span that begins under a collector must end before that
/// collector is destroyed; stopping merely makes new spans no-ops.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ddsim::obs {

/// Span categories — rendered as the Chrome trace "cat" field so the
/// timeline can be filtered per layer.
namespace cat {
inline constexpr const char* kDd = "dd";          ///< package operations
inline constexpr const char* kSim = "sim";        ///< simulator phases
inline constexpr const char* kServe = "serve";    ///< job lifecycle
inline constexpr const char* kRouter = "router";  ///< distributed routing
}  // namespace cat

/// Sentinel for "no numeric argument attached to this event".
inline constexpr std::uint64_t kNoEventId = ~0ULL;

/// One begin/end/instant record. `name` and `category` must be string
/// literals (or otherwise outlive the collector) — events never own memory.
struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  std::uint64_t timeNs = 0;  ///< since the collector's epoch
  std::uint64_t id = kNoEventId;
  char phase = 'i';  ///< 'B' begin, 'E' end, 'i' instant
};

class TraceCollector;

namespace detail {

/// Per-thread event buffer, owned by the collector, written only by the
/// registering thread. Reading (export) happens after the writers quiesced.
struct ThreadTrack {
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;  ///< events beyond the per-thread cap
  std::uint64_t osThreadId = 0;

  void push(const TraceEvent& e);
};

/// Bounds each thread's buffer so a runaway run cannot exhaust memory;
/// overflow increments `dropped` instead (reported on export).
inline constexpr std::size_t kMaxEventsPerTrack = 1U << 22;

TraceCollector* activeCollector() noexcept;
ThreadTrack* trackFor(TraceCollector* collector);

}  // namespace detail

/// Owns every thread's event buffer for one tracing session.
class TraceCollector {
 public:
  TraceCollector();
  ~TraceCollector();

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// Make this collector the process-wide active one. Only one collector
  /// may be installed at a time (install throws std::logic_error if
  /// another is active).
  void install();
  /// Deactivate (idempotent). New spans become no-ops; already-begun spans
  /// still record their end into this collector's buffers.
  void stop() noexcept;
  [[nodiscard]] bool installed() const noexcept;

  /// Record an instant event on the calling thread's track (no-op unless
  /// this collector is installed).
  void instant(const char* name, const char* category,
               std::uint64_t id = kNoEventId);

  /// Tracks in registration order (stable track ids for the exporter).
  /// Only meaningful after the recording threads quiesced.
  [[nodiscard]] std::vector<const detail::ThreadTrack*> tracks() const;
  /// Total events recorded across all tracks.
  [[nodiscard]] std::size_t eventCount() const;
  /// Total events dropped across all tracks (per-thread cap overflow).
  [[nodiscard]] std::uint64_t droppedCount() const;

 private:
  friend detail::ThreadTrack* detail::trackFor(TraceCollector*);

  [[nodiscard]] std::uint64_t nowNs() const noexcept;
  detail::ThreadTrack* registerThread();

  friend class ScopedSpan;

  std::uint64_t generation_;
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<detail::ThreadTrack>> tracks_;
};

/// RAII span. Instantiate at the top of the region to be timed:
///
///   obs::ScopedSpan span("dd.multiply.mv", obs::cat::kDd);
///
/// When no collector is installed, construction is one relaxed load + one
/// branch and destruction one branch.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* category,
                      std::uint64_t id = kNoEventId) noexcept {
    if (TraceCollector* c = detail::activeCollector()) {
      begin(c, name, category, id);
    }
  }
  ~ScopedSpan() {
    if (track_ != nullptr) {
      end();
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void begin(TraceCollector* c, const char* name, const char* category,
             std::uint64_t id) noexcept;
  void end() noexcept;

  detail::ThreadTrack* track_ = nullptr;
  TraceCollector* collector_ = nullptr;
  const char* name_ = nullptr;
  const char* category_ = nullptr;
  std::uint64_t id_ = kNoEventId;
};

/// Record an instant event on the active collector, if any (one relaxed
/// load + branch when tracing is disabled).
inline void traceInstant(const char* name, const char* category,
                         std::uint64_t id = kNoEventId) {
  if (TraceCollector* c = detail::activeCollector()) {
    c->instant(name, category, id);
  }
}

}  // namespace ddsim::obs
