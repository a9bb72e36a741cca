/// \file qaoa.hpp
/// \brief QAOA for MaxCut: parameterized cost/mixer circuits on a graph.
///
/// A variational workload rounds out the benchmark families: its circuits
/// are shallow but repeated (cost layer + mixer layer per round, a natural
/// CompoundOperation).

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "ir/circuit.hpp"

namespace ddsim::algo {

/// An undirected graph as an edge list over vertices 0..n-1.
struct Graph {
  std::size_t numVertices = 0;
  std::vector<std::pair<std::size_t, std::size_t>> edges;

  /// Ring graph 0-1-...-n-1-0.
  static Graph ring(std::size_t n);
  /// Deterministic pseudo-random graph with the given edge probability.
  static Graph random(std::size_t n, double edgeProbability, std::uint64_t seed);
};

/// p-round QAOA circuit for MaxCut on \p graph: H layer, then per round a
/// cost layer exp(-i gamma_k sum_(u,v) Z_u Z_v) (via CX-RZ-CX) and a mixer
/// layer exp(-i beta_k sum_u X_u). gammas and betas must have equal size p.
[[nodiscard]] ir::Circuit makeQaoaMaxCutCircuit(const Graph& graph,
                                                const std::vector<double>& gammas,
                                                const std::vector<double>& betas);

}  // namespace ddsim::algo
