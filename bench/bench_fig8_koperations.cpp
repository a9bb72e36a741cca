/// \file bench_fig8_koperations.cpp
/// \brief Reproduces Fig. 8 of the paper: speed-up of the *k-operations*
///        strategy over sequential (Eq. 1) DD simulation, as a function of
///        k, per benchmark plus the average line.
///
/// Expected shape: speed-up ~1 at k=1 (identical schedule), rising to a
/// maximum for moderate k, then degrading as the accumulated product DD
/// grows too large (the paper's "combining all operations is not a suitable
/// option").

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"

int main() {
  using namespace ddsim;

  const std::vector<std::size_t> ks = {1, 2, 4, 8, 16, 32, 64};
  const auto instances = bench::figureBenchmarks();

  std::printf("Fig. 8 — speed-up of strategy k-operations vs. sequential DD "
              "simulation\n");
  bench::printRule();
  std::printf("%-18s %10s", "benchmark", "t_seq[s]");
  for (const std::size_t k : ks) {
    std::printf("  k=%-5zu", k);
  }
  std::printf("\n");
  bench::printRule();

  // Per-run budget, as in the paper's CPU-time-capped evaluation. A cell
  // that exceeds it is reported as "t/o" (speed-up below 0.1 in practice)
  // and enters the average as 0 — i.e. as "no speed-up achieved".
  const double cap = 60.0;

  std::vector<double> sums(ks.size(), 0.0);
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
    for (std::size_t i = 0; i < ks.size(); ++i) {
      sim::SimulationStats s;
      const double t = bench::timedRun(
          circuit, sim::StrategyConfig::kOperations(ks[i]), cap, &s);
      records.push_back(bench::makeRecord(
          inst.name + "/k=" + std::to_string(ks[i]), t, s, cap));
      if (std::isinf(t)) {
        std::printf("  %7s", "t/o");
      } else {
        const double speedup = tSeq / t;
        sums[i] += speedup;
        std::printf("  %7.2f", speedup);
      }
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  bench::writeBenchJson("fig8_koperations", records);

  bench::printRule();
  std::printf("%-18s %10s", "average", "");
  for (std::size_t i = 0; i < ks.size(); ++i) {
    std::printf("  %7.2f", sums[i] / static_cast<double>(instances.size()));
  }
  std::printf("\n");
  return 0;
}
