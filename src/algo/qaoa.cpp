#include "algo/qaoa.hpp"

#include <random>
#include <stdexcept>
#include <string>

namespace ddsim::algo {

using ir::Circuit;
using ir::Qubit;

Graph Graph::ring(std::size_t n) {
  Graph g;
  g.numVertices = n;
  for (std::size_t v = 0; v < n; ++v) {
    g.edges.emplace_back(v, (v + 1) % n);
  }
  return g;
}

Graph Graph::random(std::size_t n, double edgeProbability, std::uint64_t seed) {
  Graph g;
  g.numVertices = n;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      if (dist(rng) < edgeProbability) {
        g.edges.emplace_back(u, v);
      }
    }
  }
  return g;
}

Circuit makeQaoaMaxCutCircuit(const Graph& graph,
                              const std::vector<double>& gammas,
                              const std::vector<double>& betas) {
  if (graph.numVertices < 2 || graph.numVertices > 62) {
    throw std::invalid_argument("qaoa: vertex count must be in [2, 62]");
  }
  if (gammas.size() != betas.size() || gammas.empty()) {
    throw std::invalid_argument("qaoa: need equal, non-zero numbers of gammas and betas");
  }
  for (const auto& [u, v] : graph.edges) {
    if (u >= graph.numVertices || v >= graph.numVertices || u == v) {
      throw std::invalid_argument("qaoa: invalid edge");
    }
  }

  Circuit circuit(graph.numVertices, 0,
                  "qaoa_p" + std::to_string(gammas.size()) + "_" +
                      std::to_string(graph.numVertices));
  for (std::size_t q = 0; q < graph.numVertices; ++q) {
    circuit.h(static_cast<Qubit>(q));
  }
  for (std::size_t round = 0; round < gammas.size(); ++round) {
    // Cost layer: exp(-i gamma Z_u Z_v) per edge, via CX - RZ(2 gamma) - CX.
    Circuit layer(graph.numVertices);
    for (const auto& [u, v] : graph.edges) {
      layer.cx(static_cast<Qubit>(u), static_cast<Qubit>(v));
      layer.rz(2.0 * gammas[round], static_cast<Qubit>(v));
      layer.cx(static_cast<Qubit>(u), static_cast<Qubit>(v));
    }
    // Mixer layer: exp(-i beta X_u) per vertex.
    for (std::size_t q = 0; q < graph.numVertices; ++q) {
      layer.rx(2.0 * betas[round], static_cast<Qubit>(q));
    }
    circuit.appendCircuit(layer);
  }
  return circuit;
}

}  // namespace ddsim::algo
