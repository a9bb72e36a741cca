/// \file jobs.hpp
/// \brief Seeded job lists of the three benchmark workloads.
///
/// A workload is generated from its seed alone; the system under test only
/// ever sees the resulting circuits (sim-paper, serve-batch) or QASM text
/// (router-small). The seed picks Grover marked elements, Bernstein-Vazirani
/// hidden strings, QAOA graphs, per-job measurement seeds, priorities, which
/// jobs repeat, and the job order. It never changes the mix of families and
/// strategies, so two seeds load the system alike.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/circuit.hpp"
#include "serve/service.hpp"
#include "sim/stats.hpp"

namespace perfbench {

struct Job {
  /// Index into Workload::circuits.
  std::size_t circuit = 0;
  /// Strategy as written in manifests ("seq", "k=4", "maxsize=64",
  /// "adaptive"), plus "dd-repeating" and "dd-construct".
  std::string strategy;
  ddsim::sim::StrategyConfig config;
  std::uint64_t seed = 0;
  ddsim::serve::JobPriority priority = ddsim::serve::JobPriority::Normal;
  /// Index of the job this one repeats exactly, or -1.
  std::int64_t repeatOf = -1;
  /// serve-batch: repeat the original's run of the previous batch (answered
  /// from the result cache) instead of the same batch (coalesced onto it).
  bool previousBatch = false;
  /// router-small: the client thread that submits the job.
  std::size_t client = 0;
};

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  /// Circuit names in the registry grammar of algo::makeBenchmark.
  std::vector<std::string> circuits;
  /// sim-paper: one pass of the closed loop. serve-batch: one batch.
  /// router-small: every client's job stream, in submission order.
  std::vector<Job> jobs;
};

[[nodiscard]] const std::vector<std::string>& workloadNames();

/// Build the job list of \p name from \p seed. \p reduced shrinks the
/// workload for the self-test (fewer jobs, same families).
[[nodiscard]] Workload makeWorkload(const std::string& name,
                                    std::uint64_t seed, bool reduced);

/// One line per job, for printing and comparing job lists.
[[nodiscard]] std::string describe(const Workload& workload);

/// Build a named circuit, with a final measurement of every qubit appended
/// when the circuit measures nothing, so every job has classical bits.
[[nodiscard]] ddsim::ir::Circuit buildCircuit(const std::string& name);

/// For "grover_<n>_<marked>": n and the marked element; {0, 0} otherwise.
struct GroverTarget {
  std::size_t qubits = 0;
  std::uint64_t marked = 0;
};
[[nodiscard]] GroverTarget groverTarget(const std::string& name);

/// Probability that one Grover run measures the marked element.
[[nodiscard]] double groverSuccessProbability(std::size_t qubits);

}  // namespace perfbench
