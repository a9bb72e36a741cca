/// \file equivalence_check.cpp
/// \brief DD-based equivalence checking of two circuits — a direct
///        application of matrix-matrix multiplication on DDs (the same
///        primitive the paper's combination strategies are built on).
///
/// Usage: equivalence_check <a.qasm|benchmark-name> <b.qasm|benchmark-name>
///
/// Exit code 0 when equivalent (possibly up to global phase), 1 otherwise,
/// and 2 when an input cannot be loaded or is not purely unitary (e.g. it
/// measures).

#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>

#include "algo/benchmarks.hpp"
#include "ir/qasm.hpp"
#include "ir/transforms.hpp"
#include "sim/equivalence.hpp"
#include "sim/stats.hpp"

namespace {

std::optional<ddsim::ir::Circuit> load(const std::string& target) {
  if (target.size() > 5 && target.substr(target.size() - 5) == ".qasm") {
    try {
      return ddsim::ir::parseQasmFile(target);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error loading %s: %s\n", target.c_str(), e.what());
      return std::nullopt;
    }
  }
  auto circuit = ddsim::algo::makeBenchmark(target);
  if (!circuit) {
    std::fprintf(stderr, "unknown benchmark '%s'\n", target.c_str());
  }
  return circuit;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ddsim;

  if (argc != 3) {
    std::fprintf(stderr,
                 "usage: equivalence_check <a.qasm|name> <b.qasm|name>\n");
    return 2;
  }
  auto a = load(argv[1]);
  auto b = load(argv[2]);
  if (!a || !b) {
    return 2;
  }

  std::printf("A: %zu qubits, %zu gates (depth %zu)\n", a->numQubits(),
              a->flatGateCount(), ir::circuitDepth(*a));
  std::printf("B: %zu qubits, %zu gates (depth %zu)\n", b->numQubits(),
              b->flatGateCount(), ir::circuitDepth(*b));

  const sim::Timer timer;
  sim::Equivalence verdict{};
  try {
    verdict = sim::checkEquivalence(*a, *b);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  const double seconds = timer.seconds();

  switch (verdict) {
    case sim::Equivalence::Equivalent:
      std::printf("EQUIVALENT (%.3f s)\n", seconds);
      return 0;
    case sim::Equivalence::EquivalentUpToPhase:
      std::printf("EQUIVALENT up to global phase (%.3f s)\n", seconds);
      return 0;
    case sim::Equivalence::NotEquivalent:
      std::printf("NOT equivalent (%.3f s)\n", seconds);
      return 1;
  }
  return 2;
}
