/// \file bench_table2_shor.cpp
/// \brief Reproduces Table II of the paper: shor benchmarks under
///        (1) sequential simulation of the gate-level Beauregard circuit
///        (t_sota), (2) the best general combining strategy on the same
///        circuit (t_general), and (3) the *DD-construct* strategy, where
///        the modular-multiplication oracles become permutation-matrix DDs
///        directly and only n+1 qubits remain (t_DD-construct).
///
/// Expected shape: t_general < t_sota by factors; t_DD-construct is orders
/// of magnitude below both (the paper reports hours -> sub-second).

#include <algorithm>
#include <cstdio>
#include <vector>

#include "algo/numbertheory.hpp"
#include "bench_common.hpp"

int main() {
  using namespace ddsim;

  struct Row {
    std::uint64_t N;
    std::uint64_t a;
  };
  // Semiprime ladder (paper: N up to ~14 bits under a 2 h timeout; we scale
  // to keep t_sota in seconds-to-minutes — see DESIGN.md substitutions).
  // Semiprime ladder with deliberately varied multiplicative orders — the
  // paper notes that "N and a significantly affect the simulation time".
  const std::vector<Row> rows = {
      {15, 7},    // 3 * 5,   11 qubits gate-level, order 4
      {55, 12},   // 5 * 11,  15 qubits, order 4
      {119, 15},  // 7 * 17,  17 qubits, order 8
      {253, 16},  // 11 * 23, 19 qubits, order 55
  };

  std::printf("Table II — results for shor benchmarks (strategy "
              "DD-construct)\n");
  bench::printRule(90);
  std::printf("%-18s %12s %12s %18s\n", "Benchmark", "t_sota[s]",
              "t_general[s]", "t_DD-construct[s]");
  bench::printRule(90);

  const double cap = 90.0;
  std::vector<bench::BenchRecord> records;
  for (const auto& row : rows) {
    const ir::Circuit gateLevel = algo::makeShorBeauregardCircuit(row.N, row.a);
    const ir::Circuit oracleLevel = algo::makeShorOracleCircuit(row.N, row.a);
    const std::string name = algo::shorBenchmarkName(row.N, row.a);

    sim::SimulationStats sotaStats;
    const double tSota = bench::timedRun(
        gateLevel, sim::StrategyConfig::sequential(), cap, &sotaStats);
    records.push_back(
        bench::makeRecord(name + "/sequential", tSota, sotaStats, cap));

    double tGeneral = tSota;
    sim::SimulationStats generalStats = sotaStats;
    for (const std::size_t k : {8U, 32U}) {
      sim::SimulationStats s;
      const double t = bench::timedRun(
          gateLevel, sim::StrategyConfig::kOperations(k), cap, &s);
      if (t < tGeneral) {
        tGeneral = t;
        generalStats = s;
      }
    }
    for (const std::size_t sMax : {1024U, 4096U}) {
      sim::SimulationStats s;
      const double t = bench::timedRun(
          gateLevel, sim::StrategyConfig::maxSizeStrategy(sMax), cap, &s);
      if (t < tGeneral) {
        tGeneral = t;
        generalStats = s;
      }
    }
    records.push_back(
        bench::makeRecord(name + "/general", tGeneral, generalStats, cap));

    sim::SimulationStats constructStats;
    const double tConstruct = bench::timedRun(
        oracleLevel, sim::StrategyConfig::sequential(), cap, &constructStats);
    records.push_back(
        bench::makeRecord(name + "/DD-construct", tConstruct, constructStats,
                          cap));

    std::printf("%-18s %12s %12s %18s\n", name.c_str(),
                bench::formatSeconds(tSota, cap).c_str(),
                bench::formatSeconds(tGeneral, cap).c_str(),
                bench::formatSeconds(tConstruct, cap).c_str());
    std::fflush(stdout);
  }
  bench::writeBenchJson("table2_shor", records);
  return 0;
}
