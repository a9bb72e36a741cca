/// \file quickstart.cpp
/// \brief Minimal tour of the public API: build a circuit, simulate it with
///        different operation-combination strategies, inspect amplitudes
///        and sample measurements.
///
/// Usage: quickstart [num_qubits]

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <random>

#include "ir/circuit.hpp"
#include "ir/qasm.hpp"
#include "sim/simulator.hpp"

int main(int argc, char** argv) {
  using namespace ddsim;

  const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 4;

  // 1. Build a GHZ circuit through the emitter API.
  ir::Circuit circuit(n, n, "ghz");
  circuit.h(0);
  for (std::size_t q = 1; q < n; ++q) {
    circuit.cx(0, static_cast<ir::Qubit>(q));
  }

  std::printf("Circuit:\n%s\n", circuit.toString().c_str());
  std::printf("As OpenQASM:\n%s\n", ir::toQasm(circuit).c_str());

  // 2. Simulate — sequentially (Eq. 1 of the paper) and with operation
  //    combination (k-operations, Section IV-A). Both give the same state.
  for (const auto& config : {sim::StrategyConfig::sequential(),
                            sim::StrategyConfig::kOperations(4)}) {
    sim::CircuitSimulator simulator(circuit, config);
    const auto result = simulator.run();
    auto& pkg = simulator.package();

    std::printf("strategy %-20s: %s\n", config.toString().c_str(),
                result.stats.toString().c_str());

    // 3. Inspect amplitudes: GHZ has weight only on |0..0> and |1..1>.
    const std::uint64_t allOnes = (1ULL << n) - 1;
    std::printf("  amplitude(|0...0>) = %s\n",
                pkg.getAmplitude(result.finalState, 0).toString().c_str());
    std::printf("  amplitude(|1...1>) = %s\n",
                pkg.getAmplitude(result.finalState, allOnes).toString().c_str());
    std::printf("  state DD size      = %zu nodes (vs. 2^%zu = %llu dense "
                "amplitudes)\n",
                pkg.size(result.finalState), n,
                static_cast<unsigned long long>(1ULL << n));

    // 4. Sample a few measurement shots.
    std::mt19937_64 rng(7);
    dd::VEdge state = result.finalState;
    std::printf("  shots:");
    for (int shot = 0; shot < 8; ++shot) {
      std::printf(" %llu",
                  static_cast<unsigned long long>(pkg.measureAll(state, rng, false)));
    }
    std::printf("\n");
  }
  return 0;
}
