/// \file bench_fig9_maxsize.cpp
/// \brief Reproduces Fig. 9 of the paper: speed-up of the *max-size*
///        strategy over sequential DD simulation as a function of the node
///        budget s_max for the accumulated operation product.
///
/// Expected shape mirrors Fig. 8: tiny budgets reduce to sequential
/// behaviour, moderate budgets give the best speed-up, oversized budgets
/// let the product DD blow up and erase the gains.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"

int main() {
  using namespace ddsim;

  const std::vector<std::size_t> sizes = {16, 64, 256, 1024, 4096};
  const auto instances = bench::figureBenchmarks();

  std::printf("Fig. 9 — speed-up of strategy max-size vs. sequential DD "
              "simulation\n");
  bench::printRule(100);
  std::printf("%-18s %10s", "benchmark", "t_seq[s]");
  for (const std::size_t s : sizes) {
    std::printf(" s=%-6zu", s);
  }
  std::printf("\n");
  bench::printRule(100);

  const double cap = 45.0;  // see bench_fig8_koperations

  std::vector<double> sums(sizes.size(), 0.0);
  std::vector<bench::BenchRecord> records;
  for (const auto& inst : instances) {
    const ir::Circuit circuit = inst.make();
    sim::SimulationStats seqStats;
    const double tSeq = bench::timedRun(
        circuit, sim::StrategyConfig::sequential(), cap, &seqStats);
    records.push_back(
        bench::makeRecord(inst.name + "/sequential", tSeq, seqStats, cap));
    std::printf("%-18s %10s", inst.name.c_str(),
                bench::formatSeconds(tSeq, cap).c_str());
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      sim::SimulationStats s;
      const double t = bench::timedRun(
          circuit, sim::StrategyConfig::maxSizeStrategy(sizes[i]), cap, &s);
      records.push_back(bench::makeRecord(
          inst.name + "/s_max=" + std::to_string(sizes[i]), t, s, cap));
      if (std::isinf(t)) {
        std::printf(" %7s", "t/o");
      } else {
        const double speedup = tSeq / t;
        sums[i] += speedup;
        std::printf(" %7.2f", speedup);
      }
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  bench::writeBenchJson("fig9_maxsize", records);

  bench::printRule(100);
  std::printf("%-18s %10s", "average", "");
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::printf(" %7.2f", sums[i] / static_cast<double>(instances.size()));
  }
  std::printf("\n");
  return 0;
}
