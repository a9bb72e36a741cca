/// \file bench_common.hpp
/// \brief Shared infrastructure for the table/figure reproduction benches:
///        the benchmark instance families of the paper's Section V and
///        formatted output helpers.

#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "algo/grover.hpp"
#include "algo/shor.hpp"
#include "algo/supremacy.hpp"
#include "sim/simulator.hpp"

namespace ddsim::bench {

struct Instance {
  std::string name;
  std::function<ir::Circuit()> make;
};

/// The benchmark families of the paper (grover_*, shor_*, supremacy_*),
/// scaled to sizes that run in seconds on a laptop-class machine (see
/// DESIGN.md, substitution table). Sizes chosen so that sequential DD
/// simulation is non-trivial but every sweep point finishes quickly.
inline std::vector<Instance> figureBenchmarks() {
  return {
      {"grover_16", [] { return algo::makeGroverCircuit(16, 48879); }},
      {"grover_18", [] { return algo::makeGroverCircuit(18, 123456); }},
      {"shor_119_15_17",
       [] { return algo::makeShorBeauregardCircuit(119, 15); }},
      {"shor_253_16_19",
       [] { return algo::makeShorBeauregardCircuit(253, 16); }},
      {"supremacy_16_16",
       [] { return algo::makeSupremacyCircuit({4, 4, 16, 7}); }},
      {"supremacy_8_20",
       [] { return algo::makeSupremacyCircuit({4, 5, 8, 11}); }},
  };
}

/// Simulate once and return wall seconds (plus optional full stats). A
/// positive \p timeLimitSeconds caps the run like the paper's 2h CPU budget;
/// a timed-out or budget-exhausted run reports +infinity (rendered as "t/o"
/// by the benches), with the partial-progress stats preserved in statsOut.
inline double timedRun(const ir::Circuit& circuit, sim::StrategyConfig config,
                       double timeLimitSeconds = 0.0,
                       sim::SimulationStats* statsOut = nullptr) {
  config.timeLimitSeconds = timeLimitSeconds;
  try {
    const auto result = sim::simulate(circuit, config, /*seed=*/12345);
    if (statsOut != nullptr) {
      *statsOut = result.stats;
    }
    return result.stats.wallSeconds;
  } catch (const sim::SimulationTimeout& e) {
    if (statsOut != nullptr) {
      *statsOut = e.partial().stats;
    }
    return std::numeric_limits<double>::infinity();
  } catch (const sim::ResourceExhausted& e) {
    if (statsOut != nullptr) {
      *statsOut = e.partial().stats;
    }
    return std::numeric_limits<double>::infinity();
  }
}

/// Render a seconds cell, using the paper's ">limit" notation for timeouts.
inline std::string formatSeconds(double seconds, double limit) {
  char buffer[32];
  if (std::isinf(seconds)) {
    std::snprintf(buffer, sizeof buffer, ">%.0f", limit);
  } else {
    std::snprintf(buffer, sizeof buffer, "%.3f", seconds);
  }
  return buffer;
}

inline void printRule(int width = 78) {
  for (int i = 0; i < width; ++i) {
    std::fputc('-', stdout);
  }
  std::fputc('\n', stdout);
}

// ----------------------------------------------------- machine-readable output

/// One result row of a benchmark executable, serialized into BENCH_*.json so
/// that CI and regression tooling can diff runs without scraping the tables.
struct BenchRecord {
  std::string name;  ///< instance / configuration label, e.g. "grover_16/k=4"
  double wallMs = 0.0;
  std::size_t peakNodes = 0;  ///< peak live DD nodes during the run
  /// Memoization / structure-aware kernel rates (0 when unavailable).
  double mulCacheHitRate = 0.0;
  double identitySkipRate = 0.0;
  bool timedOut = false;
  /// Degradation-ladder engagements under a resource budget (0 without one).
  std::uint64_t degradationEvents = 0;
  /// True when the run ended early (timeout or resource exhaustion) and the
  /// stats come from a PartialResult snapshot rather than a completed run.
  bool partialResult = false;
};

/// Build a record from a timedRun() result capped at \p timeLimitSeconds.
/// Handles the +infinity timeout convention: a timed-out run is flagged and
/// reports the time limit as its wall time, a lower bound on the real one.
inline BenchRecord makeRecord(std::string name, double seconds,
                              const sim::SimulationStats& stats,
                              double timeLimitSeconds) {
  BenchRecord r;
  r.name = std::move(name);
  r.timedOut = std::isinf(seconds);
  r.partialResult = r.timedOut;
  r.wallMs = (r.timedOut ? timeLimitSeconds : seconds) * 1e3;
  r.peakNodes = stats.peakStateNodes + stats.peakMatrixNodes;
  r.mulCacheHitRate = stats.cache.mulHitRate();
  r.identitySkipRate = stats.dd.identitySkipRate();
  r.degradationEvents = stats.degradationEvents;
  return r;
}

/// Write `BENCH_<benchName>.json` into the working directory. The format is
/// a flat object with a `results` array — stable keys, one row per record.
inline void writeBenchJson(const std::string& benchName,
                           const std::vector<BenchRecord>& records) {
  const std::string path = "BENCH_" + benchName + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"results\": [\n",
               benchName.c_str());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"wall_ms\": %.3f, "
                 "\"peak_nodes\": %zu, \"mul_cache_hit_rate\": %.4f, "
                 "\"identity_skip_rate\": %.4f, \"timed_out\": %s, "
                 "\"degradation_events\": %llu, \"partial_result\": %s}%s\n",
                 r.name.c_str(), r.wallMs, r.peakNodes, r.mulCacheHitRate,
                 r.identitySkipRate, r.timedOut ? "true" : "false",
                 static_cast<unsigned long long>(r.degradationEvents),
                 r.partialResult ? "true" : "false",
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace ddsim::bench
