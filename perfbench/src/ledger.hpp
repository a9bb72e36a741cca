/// \file ledger.hpp
/// \brief Per-layer cost ledger computed from obs::TraceCollector sessions.
///
/// A span belongs to the layer named by the prefix of its name ("dd.",
/// "sim.", "serve.", "net.", "router.", "ir."). Each thread is, at every
/// instant, in the layer of its innermost open span, or idle. The ledger
/// splits each instant of a session's window evenly across the threads that
/// are in some layer and charges each share to that thread's layer; instants
/// when every thread is idle are unattributed. On one thread this is the
/// usual self time (span time minus the child spans it covers), and on any
/// number of threads the layer times plus the unattributed time add up to
/// the window exactly.

#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "obs/trace.hpp"

namespace perfbench {

inline constexpr std::array<const char*, 6> kLayers = {
    "ir", "dd", "sim", "serve", "net", "router"};

/// Marks the start and the end of a session's window; record it on one
/// thread, once before and once after the traced work.
inline constexpr const char* kWindowEvent = "bench.window";

struct SpanTotal {
  double seconds = 0.0;  ///< summed duration, clipped to the window
  std::uint64_t count = 0;
};

class Ledger {
 public:
  /// Fold in one stopped, quiesced session. Throws std::runtime_error when
  /// the window instants are missing or a track is unbalanced.
  void add(const ddsim::obs::TraceCollector& collector);

  [[nodiscard]] double wallSeconds() const noexcept { return wall_; }
  [[nodiscard]] double unattributedSeconds() const noexcept {
    return unattributed_;
  }
  /// Self time of layer kLayers[i].
  [[nodiscard]] double layerSeconds(std::size_t i) const {
    return layers_.at(i);
  }
  /// Totals by span name (e.g. "dd.multiply.mm"); zero when never seen.
  [[nodiscard]] SpanTotal span(const std::string& name) const;
  [[nodiscard]] std::size_t sessions() const noexcept { return sessions_; }

 private:
  double wall_ = 0.0;
  double unattributed_ = 0.0;
  std::array<double, kLayers.size()> layers_{};
  std::map<std::string, SpanTotal> spans_;
  std::size_t sessions_ = 0;
};

}  // namespace perfbench
