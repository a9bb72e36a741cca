/// \file bench_table1_grover.cpp
/// \brief Reproduces Table I of the paper: grover benchmarks under
///        (1) the state-of-the-art sequential schedule (t_sota),
///        (2) the best general combining strategy (t_general), and
///        (3) the knowledge-based *DD-repeating* strategy that combines one
///        Grover iteration once and re-applies it (t_DD-repeating).
///
/// Expected shape: t_general < t_sota (factor ~2-5), and t_DD-repeating
/// improves on t_general by up to another factor of ~2 (paper Section V).

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"

int main() {
  using namespace ddsim;

  struct Row {
    std::size_t qubits;
    std::uint64_t marked;
  };
  // Grover ladder; the paper used 23..29 qubits with a 2h budget, we scale
  // down to keep every cell in seconds (see DESIGN.md substitutions).
  const std::vector<Row> rows = {
      {14, 11213}, {16, 48879}, {18, 123456}, {20, 876543}};

  std::printf("Table I — results for grover benchmarks (strategy "
              "DD-repeating)\n");
  bench::printRule();
  std::printf("%-14s %12s %12s %18s\n", "Benchmark", "t_sota[s]", "t_general[s]",
              "t_DD-repeating[s]");
  bench::printRule();

  const double cap = 45.0;
  std::vector<bench::BenchRecord> records;
  for (const auto& row : rows) {
    const ir::Circuit circuit = algo::makeGroverCircuit(row.qubits, row.marked);
    const std::string name = "Grover_" + std::to_string(row.qubits);

    sim::SimulationStats sotaStats;
    const double tSota = bench::timedRun(
        circuit, sim::StrategyConfig::sequential(), cap, &sotaStats);
    records.push_back(
        bench::makeRecord(name + "/sequential", tSota, sotaStats, cap));

    // t_general: the best k / s_max over a small sweep, as in the paper
    // ("results obtained by the best choice of k/s_max").
    double tGeneral = tSota;
    sim::SimulationStats generalStats = sotaStats;
    for (const std::size_t k : {2U, 4U, 8U}) {
      sim::SimulationStats s;
      const double t =
          bench::timedRun(circuit, sim::StrategyConfig::kOperations(k), cap, &s);
      if (t < tGeneral) {
        tGeneral = t;
        generalStats = s;
      }
    }
    for (const std::size_t sMax : {64U, 256U}) {
      sim::SimulationStats s;
      const double t = bench::timedRun(
          circuit, sim::StrategyConfig::maxSizeStrategy(sMax), cap, &s);
      if (t < tGeneral) {
        tGeneral = t;
        generalStats = s;
      }
    }
    records.push_back(
        bench::makeRecord(name + "/general", tGeneral, generalStats, cap));

    sim::StrategyConfig repeating = sim::StrategyConfig::sequential();
    repeating.reuseRepeatedBlocks = true;
    sim::SimulationStats repStats;
    const double tRepeating = bench::timedRun(circuit, repeating, cap, &repStats);
    records.push_back(
        bench::makeRecord(name + "/DD-repeating", tRepeating, repStats, cap));

    std::printf("Grover_%-7zu %12s %12s %18s\n", row.qubits,
                bench::formatSeconds(tSota, cap).c_str(),
                bench::formatSeconds(tGeneral, cap).c_str(),
                bench::formatSeconds(tRepeating, cap).c_str());
    std::fflush(stdout);
  }
  bench::writeBenchJson("table1_grover", records);
  return 0;
}
