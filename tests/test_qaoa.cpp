#include <gtest/gtest.h>

#include "algo/qaoa.hpp"
#include "baseline/statevector.hpp"
#include "sim/simulator.hpp"

namespace ddsim::algo {
namespace {

TEST(Graph, RingAndRandom) {
  const Graph ring = Graph::ring(5);
  EXPECT_EQ(ring.numVertices, 5U);
  EXPECT_EQ(ring.edges.size(), 5U);

  const Graph g1 = Graph::random(8, 0.5, 3);
  const Graph g2 = Graph::random(8, 0.5, 3);
  EXPECT_EQ(g1.edges, g2.edges);  // deterministic for a fixed seed
  const Graph dense = Graph::random(6, 1.0, 1);
  EXPECT_EQ(dense.edges.size(), 15U);
  const Graph empty = Graph::random(6, 0.0, 1);
  EXPECT_TRUE(empty.edges.empty());
}

TEST(Qaoa, Validation) {
  const Graph ring = Graph::ring(4);
  EXPECT_THROW(makeQaoaMaxCutCircuit(ring, {}, {}), std::invalid_argument);
  EXPECT_THROW(makeQaoaMaxCutCircuit(ring, {0.1}, {0.1, 0.2}),
               std::invalid_argument);
  Graph bad = ring;
  bad.edges.emplace_back(0, 9);
  EXPECT_THROW(makeQaoaMaxCutCircuit(bad, {0.1}, {0.1}), std::invalid_argument);
}

TEST(Qaoa, MatchesDenseSimulation) {
  const Graph g = Graph::random(5, 0.6, 7);
  const auto circuit = makeQaoaMaxCutCircuit(g, {0.4, 0.7}, {0.3, 0.2});
  sim::CircuitSimulator simulator(circuit);
  const auto result = simulator.run();
  const auto dense = baseline::runOnStateVector(circuit);
  const auto got = simulator.package().getVector(result.finalState);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].r, dense.state.amplitudes()[i].real(), 1e-8);
    EXPECT_NEAR(got[i].i, dense.state.amplitudes()[i].imag(), 1e-8);
  }
}

}  // namespace
}  // namespace ddsim::algo
