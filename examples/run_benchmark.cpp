/// \file run_benchmark.cpp
/// \brief Command-line front-end: simulate a named benchmark or an OpenQASM
///        file under any scheduling strategy, print statistics, optionally
///        sample shots or dump a per-step size trace as CSV.
///
/// Usage:
///   run_benchmark <benchmark-name | file.qasm>
///                 [--strategy seq|k=<n>|maxsize=<n>|adaptive[=<ratio>]]
///                 [--dd-repeating] [--detect-repetitions]
///                 [--shots <n>]
///                 [--trace <file.csv>] [--trace-out <trace.json>]
///                 [--seed <n>]
///                 [--approximate <fidelity>] [--approx-sim <fidelity>]
///
/// --trace writes the per-step DD-size CSV; --trace-out records the span
/// timeline of the whole run as Chrome trace-event JSON (open in Perfetto
/// or chrome://tracing).
///
/// Benchmark names follow the paper: grover_16, shor_15_7, shordd_15_7,
/// supremacy_4x4_12, qft_20, ...

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "algo/benchmarks.hpp"
#include "dd/approximation.hpp"
#include "ir/qasm.hpp"
#include "ir/transforms.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/trace.hpp"
#include "serve/manifest.hpp"
#include "sim/simulator.hpp"

namespace {

void usage() {
  std::printf(
      "usage: run_benchmark <name|file.qasm> [--strategy "
      "seq|k=<n>|maxsize=<n>|adaptive[=<r>]] [--dd-repeating] "
      "[--detect-repetitions] [--shots <n>] [--trace <csv>] "
      "[--trace-out <json>] [--seed <n>] [--approximate <fidelity>] "
      "[--approx-sim <fidelity>]\n\n"
      "example benchmark names:\n");
  for (const auto& name : ddsim::algo::benchmarkExamples()) {
    std::printf("  %s\n", name.c_str());
  }
}

// Strategy specs share the manifest grammar of the serving layer.
std::optional<ddsim::sim::StrategyConfig> parseStrategy(const std::string& s) {
  return ddsim::serve::parseStrategySpec(s);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ddsim;

  if (argc < 2) {
    usage();
    return 1;
  }
  const std::string target = argv[1];

  sim::StrategyConfig config = sim::StrategyConfig::sequential();
  std::size_t shots = 0;
  std::string traceFile;
  std::string traceOutFile;
  std::uint64_t seed = 0;
  bool detectReps = false;
  double approximateTarget = 0.0;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--strategy" && i + 1 < argc) {
      const auto parsed = parseStrategy(argv[++i]);
      if (!parsed) {
        std::fprintf(stderr, "unknown strategy '%s'\n", argv[i]);
        return 1;
      }
      const bool reuse = config.reuseRepeatedBlocks;
      config = *parsed;
      config.reuseRepeatedBlocks = reuse;
    } else if (arg == "--dd-repeating") {
      config.reuseRepeatedBlocks = true;
    } else if (arg == "--detect-repetitions") {
      detectReps = true;
    } else if (arg == "--shots" && i + 1 < argc) {
      shots = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--trace" && i + 1 < argc) {
      traceFile = argv[++i];
      config.collectTrace = true;
    } else if (arg == "--trace-out" && i + 1 < argc) {
      traceOutFile = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--approximate" && i + 1 < argc) {
      approximateTarget = std::strtod(argv[++i], nullptr);
    } else if (arg == "--approx-sim" && i + 1 < argc) {
      config.approximateFidelity = std::strtod(argv[++i], nullptr);
    } else {
      usage();
      return 1;
    }
  }

  std::optional<ir::Circuit> circuit;
  if (target.size() > 5 && target.substr(target.size() - 5) == ".qasm") {
    try {
      circuit = ir::parseQasmFile(target);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  } else {
    circuit = algo::makeBenchmark(target);
    if (!circuit) {
      std::fprintf(stderr, "unknown benchmark '%s'\n\n", target.c_str());
      usage();
      return 1;
    }
  }

  if (detectReps) {
    const std::size_t before = circuit->numOps();
    circuit = ir::detectRepetitions(*circuit);
    std::printf("repetition detection: %zu -> %zu top-level operations\n",
                before, circuit->numOps());
  }

  std::printf("benchmark  : %s\n", circuit->name().empty() ? target.c_str()
                                                           : circuit->name().c_str());
  std::printf("qubits     : %zu\n", circuit->numQubits());
  std::printf("gates      : %zu elementary (in %zu operations)\n",
              circuit->flatGateCount(), circuit->numOps());
  std::printf("strategy   : %s\n\n", config.toString().c_str());

  obs::TraceCollector collector;
  if (!traceOutFile.empty()) {
    collector.install();
  }

  sim::CircuitSimulator simulator(*circuit, config, seed);
  const auto result = simulator.run();

  if (!traceOutFile.empty()) {
    collector.stop();
    std::ofstream out(traceOutFile);
    obs::writeChromeTrace(out, collector);
    std::printf("span trace with %zu events written to %s\n",
                collector.eventCount(), traceOutFile.c_str());
  }

  std::printf("time       : %.3f s\n", result.stats.wallSeconds);
  std::printf("MxV / MxM  : %llu / %llu\n",
              static_cast<unsigned long long>(result.stats.mxvCount),
              static_cast<unsigned long long>(result.stats.mxmCount));
  std::printf("state DD   : peak %zu nodes, final %zu nodes\n",
              result.stats.peakStateNodes, result.stats.finalStateNodes);
  if (result.stats.approxRounds > 0) {
    std::printf("approx     : %llu rounds, cumulative fidelity >= %.6f\n",
                static_cast<unsigned long long>(result.stats.approxRounds),
                result.stats.approxFidelity);
  }
  std::printf("matrix DD  : peak %zu nodes\n", result.stats.peakMatrixNodes);
  const dd::CacheStats cache = simulator.package().cacheStats();
  std::printf("cache hits : MxV %.1f%%  MxM %.1f%%  add %.1f%%  unique %.1f%%"
              "  complex %.1f%%\n",
              100 * dd::CacheStats::rate(cache.mulMVHits, cache.mulMVMisses),
              100 * dd::CacheStats::rate(cache.mulMMHits, cache.mulMMMisses),
              100 * dd::CacheStats::rate(cache.addHits, cache.addMisses),
              100 * dd::CacheStats::rate(cache.uniqueTableHits,
                                         cache.uniqueTableMisses),
              100 * dd::CacheStats::rate(cache.complexTableHits,
                                         cache.complexTableMisses));
  std::printf("DD package : %llu recursive mults, %llu adds, %llu GCs\n",
              static_cast<unsigned long long>(result.stats.dd.recursiveMulVCalls +
                                              result.stats.dd.recursiveMulMCalls),
              static_cast<unsigned long long>(result.stats.dd.recursiveAddCalls),
              static_cast<unsigned long long>(result.stats.dd.garbageCollections));

  if (circuit->numClbits() > 0) {
    std::printf("classical  : ");
    for (std::size_t i = circuit->numClbits(); i-- > 0;) {
      std::printf("%d", result.classicalBits[i] ? 1 : 0);
    }
    std::printf("\n");
  }

  if (approximateTarget > 0.0) {
    const auto approx = dd::approximate(simulator.package(), result.finalState,
                                        approximateTarget);
    std::printf(
        "\napproximation (target fidelity %.4f): %zu -> %zu nodes, "
        "achieved fidelity %.6f, %zu edges removed\n",
        approximateTarget, approx.nodesBefore, approx.nodesAfter,
        approx.fidelity, approx.removedEdges);
  }

  if (shots > 0) {
    std::mt19937_64 rng(seed + 1);
    const auto histogram =
        simulator.package().sampleCounts(result.finalState, shots, rng);
    std::printf("\ntop outcomes of %zu shots:\n", shots);
    std::size_t printed = 0;
    // histogram is ordered by outcome; show up to 10 entries sorted by count
    std::vector<std::pair<std::size_t, std::uint64_t>> byCount;
    for (const auto& [outcome, count] : histogram) {
      byCount.emplace_back(count, outcome);
    }
    std::sort(byCount.rbegin(), byCount.rend());
    for (const auto& [count, outcome] : byCount) {
      if (++printed > 10) {
        break;
      }
      std::printf("  %8llu  x%zu\n", static_cast<unsigned long long>(outcome),
                  count);
    }
  }

  if (!traceFile.empty()) {
    std::ofstream out(traceFile);
    result.trace.writeCsv(out);
    std::printf("\ntrace with %zu steps written to %s\n",
                result.trace.steps.size(), traceFile.c_str());
  }
  return 0;
}
