#include "obs/trace.hpp"

#include <stdexcept>
#include <thread>

namespace ddsim::obs {

namespace {

/// The process-wide active collector. Relaxed loads on the hot path are
/// sufficient: a thread that observes the pointer late merely skips a few
/// leading events, and buffer registration synchronizes via the collector
/// mutex before any write.
std::atomic<TraceCollector*> g_active{nullptr};

/// Bumped on every install so stale thread-local registrations from an
/// earlier collector (same or different address) are never reused.
std::atomic<std::uint64_t> g_generation{0};

struct TlsSlot {
  std::uint64_t generation = 0;
  detail::ThreadTrack* track = nullptr;
};

thread_local TlsSlot tlsSlot;

std::uint64_t osThreadId() noexcept {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

}  // namespace

namespace detail {

void ThreadTrack::push(const TraceEvent& e) {
  if (events.size() >= kMaxEventsPerTrack) {
    ++dropped;
    return;
  }
  events.push_back(e);
}

TraceCollector* activeCollector() noexcept {
  return g_active.load(std::memory_order_relaxed);
}

ThreadTrack* trackFor(TraceCollector* collector) {
  if (tlsSlot.generation != collector->generation_ ||
      tlsSlot.track == nullptr) {
    tlsSlot.track = collector->registerThread();
    tlsSlot.generation = collector->generation_;
  }
  return tlsSlot.track;
}

}  // namespace detail

TraceCollector::TraceCollector()
    : generation_(0), epoch_(std::chrono::steady_clock::now()) {}

TraceCollector::~TraceCollector() { stop(); }

void TraceCollector::install() {
  generation_ = g_generation.fetch_add(1, std::memory_order_relaxed) + 1;
  TraceCollector* expected = nullptr;
  if (!g_active.compare_exchange_strong(expected, this,
                                        std::memory_order_release,
                                        std::memory_order_relaxed)) {
    throw std::logic_error("TraceCollector: another collector is installed");
  }
}

void TraceCollector::stop() noexcept {
  TraceCollector* expected = this;
  g_active.compare_exchange_strong(expected, nullptr,
                                   std::memory_order_release,
                                   std::memory_order_relaxed);
}

bool TraceCollector::installed() const noexcept {
  return g_active.load(std::memory_order_relaxed) == this;
}

std::uint64_t TraceCollector::nowNs() const noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

detail::ThreadTrack* TraceCollector::registerThread() {
  const std::lock_guard<std::mutex> lock(mutex_);
  tracks_.push_back(std::make_unique<detail::ThreadTrack>());
  tracks_.back()->osThreadId = osThreadId();
  return tracks_.back().get();
}

void TraceCollector::instant(const char* name, const char* category,
                             std::uint64_t id) {
  if (!installed()) {
    return;
  }
  detail::ThreadTrack* track = detail::trackFor(this);
  track->push({name, category, nowNs(), id, 'i'});
}

std::vector<const detail::ThreadTrack*> TraceCollector::tracks() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const detail::ThreadTrack*> out;
  out.reserve(tracks_.size());
  for (const auto& t : tracks_) {
    out.push_back(t.get());
  }
  return out;
}

std::size_t TraceCollector::eventCount() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& t : tracks_) {
    n += t->events.size();
  }
  return n;
}

std::uint64_t TraceCollector::droppedCount() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t n = 0;
  for (const auto& t : tracks_) {
    n += t->dropped;
  }
  return n;
}

void ScopedSpan::begin(TraceCollector* c, const char* name,
                       const char* category, std::uint64_t id) noexcept {
  collector_ = c;
  track_ = detail::trackFor(c);
  name_ = name;
  category_ = category;
  id_ = id;
  track_->push({name, category, c->nowNs(), id, 'B'});
}

void ScopedSpan::end() noexcept {
  // The end is recorded even if the collector was stopped mid-span: the
  // buffer is owned by the (still-alive) collector, and an unbalanced
  // track would break the exporter's begin/end pairing guarantee.
  track_->push({name_, category_, collector_->nowNs(), id_, 'E'});
}

}  // namespace ddsim::obs
