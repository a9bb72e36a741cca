#include "ledger.hpp"

#include <algorithm>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace perfbench {

namespace {

constexpr int kIdle = -1;

int layerOf(const char* name) {
  const std::string_view n(name);
  const std::string_view prefix = n.substr(0, n.find('.'));
  for (std::size_t i = 0; i < kLayers.size(); ++i) {
    if (prefix == kLayers[i]) {
      return static_cast<int>(i);
    }
  }
  return kIdle;
}

/// A thread entering state `layer` (kIdle: no open span) at `timeNs`.
struct Transition {
  std::uint64_t timeNs;
  std::size_t track;
  int layer;
};

}  // namespace

void Ledger::add(const ddsim::obs::TraceCollector& collector) {
  const auto tracks = collector.tracks();
  if (collector.droppedCount() != 0) {
    throw std::runtime_error("trace dropped events; the session is too long");
  }
  std::vector<std::uint64_t> marks;
  std::vector<Transition> transitions;
  struct Open {
    const char* name;
    std::uint64_t start;
    int layer;  ///< innermost layer while this span is open
  };
  std::vector<std::vector<Open>> open(tracks.size());
  std::vector<std::pair<const char*, std::pair<std::uint64_t, std::uint64_t>>>
      closed;
  for (std::size_t t = 0; t < tracks.size(); ++t) {
    auto& stack = open[t];
    for (const auto& e : tracks[t]->events) {
      if (e.phase == 'i') {
        if (std::string_view(e.name) == kWindowEvent) {
          marks.push_back(e.timeNs);
        }
        continue;
      }
      const int before = stack.empty() ? kIdle : stack.back().layer;
      if (e.phase == 'B') {
        const int own = layerOf(e.name);
        stack.push_back({e.name, e.timeNs, own != kIdle ? own : before});
      } else {
        if (stack.empty() || std::string_view(stack.back().name) != e.name) {
          throw std::runtime_error("unbalanced span " + std::string(e.name));
        }
        closed.push_back({e.name, {stack.back().start, e.timeNs}});
        stack.pop_back();
      }
      const int after = stack.empty() ? kIdle : stack.back().layer;
      if (after != before) {
        transitions.push_back({e.timeNs, t, after});
      }
    }
    if (!stack.empty()) {
      throw std::runtime_error("span left open: " +
                               std::string(stack.back().name));
    }
  }
  if (marks.size() != 2) {
    throw std::runtime_error("session needs exactly two window marks");
  }
  const std::uint64_t w0 = std::min(marks[0], marks[1]);
  const std::uint64_t w1 = std::max(marks[0], marks[1]);

  for (const auto& [name, interval] : closed) {
    const std::uint64_t a = std::max(interval.first, w0);
    const std::uint64_t b = std::min(interval.second, w1);
    SpanTotal& total = spans_[name];
    ++total.count;
    if (b > a) {
      total.seconds += static_cast<double>(b - a) * 1e-9;
    }
  }

  std::stable_sort(transitions.begin(), transitions.end(),
                   [](const Transition& x, const Transition& y) {
                     return x.timeNs < y.timeNs;
                   });
  std::vector<int> state(tracks.size(), kIdle);
  std::array<std::size_t, kLayers.size()> busy{};
  std::size_t busyThreads = 0;
  std::uint64_t cursor = w0;
  const auto charge = [&](std::uint64_t until) {
    until = std::min(until, w1);
    if (until <= cursor) {
      return;
    }
    const double dt = static_cast<double>(until - cursor) * 1e-9;
    if (busyThreads == 0) {
      unattributed_ += dt;
    } else {
      for (std::size_t l = 0; l < busy.size(); ++l) {
        layers_[l] += dt * static_cast<double>(busy[l]) /
                      static_cast<double>(busyThreads);
      }
    }
    cursor = until;
  };
  for (const Transition& tr : transitions) {
    charge(tr.timeNs);
    int& s = state[tr.track];
    if (s != kIdle) {
      --busy[static_cast<std::size_t>(s)];
      --busyThreads;
    }
    s = tr.layer;
    if (s != kIdle) {
      ++busy[static_cast<std::size_t>(s)];
      ++busyThreads;
    }
  }
  charge(w1);
  wall_ += static_cast<double>(w1 - w0) * 1e-9;
  ++sessions_;
}

SpanTotal Ledger::span(const std::string& name) const {
  const auto it = spans_.find(name);
  return it == spans_.end() ? SpanTotal{} : it->second;
}

}  // namespace perfbench
