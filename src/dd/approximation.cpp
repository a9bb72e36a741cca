#include "dd/approximation.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace ddsim::dd {

namespace {

/// An edge as (Node::id, successor index). Ties in mass break by it, so
/// which of several equal-mass edges gets cut does not follow addresses.
using EdgeRef = std::pair<std::uint64_t, std::size_t>;

/// Probability mass flowing through every edge of the DD (the state is
/// assumed normalized). Nodes are processed top-down in level order; the
/// mass of a shared node is the sum over all paths reaching it.
std::map<EdgeRef, double> edgeMasses(Package& pkg, const VEdge& root) {
  std::unordered_map<const VNode*, double> nodeMass;
  nodeMass[root.p] = 1.0;

  // Collect reachable nodes grouped by variable (descending = top-down).
  std::vector<const VNode*> order;
  {
    std::vector<const VNode*> stack{root.p};
    std::unordered_map<const VNode*, bool> seen;
    while (!stack.empty()) {
      const VNode* n = stack.back();
      stack.pop_back();
      if (n->isTerminal() || seen[n]) {
        continue;
      }
      seen[n] = true;
      order.push_back(n);
      for (const auto& e : n->e) {
        stack.push_back(e.p);
      }
    }
    std::sort(order.begin(), order.end(),
              [](const VNode* a, const VNode* b) { return a->v > b->v; });
  }

  std::map<EdgeRef, double> masses;
  for (const VNode* n : order) {
    const double mass = nodeMass[n];
    const double nodeNorm = pkg.norm2(VEdge{const_cast<VNode*>(n), pkg.cone()});
    if (nodeNorm <= 0.0) {
      continue;
    }
    for (std::size_t i = 0; i < 2; ++i) {
      const VEdge& e = n->e[i];
      if (e.w->exactlyZero()) {
        continue;
      }
      const double childNorm = pkg.norm2(VEdge{e.p, pkg.cone()});
      const double edgeMass = mass * e.w->mag2() * childNorm / nodeNorm;
      masses[{n->id, i}] += edgeMass;
      nodeMass[e.p] += edgeMass;
    }
  }
  return masses;
}

VEdge rebuildWithoutEdges(Package& pkg, const VNode* node,
                          const std::set<EdgeRef>& cuts,
                          std::unordered_map<const VNode*, VEdge>& memo) {
  if (node->isTerminal()) {
    return pkg.vOneTerminal();
  }
  if (const auto it = memo.find(node); it != memo.end()) {
    return it->second;
  }
  std::array<VEdge, 2> children;
  for (std::size_t i = 0; i < 2; ++i) {
    const VEdge& e = node->e[i];
    if (e.w->exactlyZero() || cuts.count({node->id, i}) != 0) {
      children[i] = pkg.vZero();
      continue;
    }
    const VEdge sub = rebuildWithoutEdges(pkg, e.p, cuts, memo);
    children[i] =
        sub.w->exactlyZero()
            ? pkg.vZero()
            : VEdge{sub.p, pkg.clookup(*e.w * *sub.w)};
  }
  const VEdge rebuilt = pkg.makeVNode(node->v, children);
  memo.emplace(node, rebuilt);
  return rebuilt;
}

}  // namespace

ApproximationResult approximate(Package& pkg, const VEdge& root,
                                double targetFidelity) {
  if (targetFidelity <= 0.0 || targetFidelity > 1.0) {
    throw std::invalid_argument("approximate: target fidelity must be in (0, 1]");
  }
  ApproximationResult result;
  result.state = root;
  result.nodesBefore = pkg.size(root);
  result.nodesAfter = result.nodesBefore;
  if (targetFidelity >= 1.0 || root.w->exactlyZero() || root.p->isTerminal()) {
    return result;
  }

  const auto masses = edgeMasses(pkg, root);

  // Cheapest-first greedy selection within the probability budget. Removing
  // overlapping edges (an edge below an already-cut one) only makes the cut
  // cheaper than accounted, so the fidelity bound remains conservative.
  std::vector<std::pair<double, EdgeRef>> candidates;
  candidates.reserve(masses.size());
  for (const auto& [ref, mass] : masses) {
    candidates.emplace_back(mass, ref);
  }
  std::sort(candidates.begin(), candidates.end());  // by mass, then edge

  const double budget = 1.0 - targetFidelity;
  double spent = 0.0;
  std::set<EdgeRef> cuts;
  for (const auto& [mass, ref] : candidates) {
    if (spent + mass > budget || spent + mass >= 1.0) {
      break;
    }
    spent += mass;
    cuts.insert(ref);
  }
  if (cuts.empty()) {
    return result;
  }

  std::unordered_map<const VNode*, VEdge> memo;
  VEdge rebuilt = rebuildWithoutEdges(pkg, root.p, cuts, memo);
  if (rebuilt.w->exactlyZero()) {
    return result;  // refused: would annihilate the state
  }
  rebuilt = {rebuilt.p, pkg.clookup(*root.w * *rebuilt.w)};
  const double norm = pkg.norm2(rebuilt);
  rebuilt.w = pkg.clookup(*rebuilt.w * (1.0 / std::sqrt(norm)));

  result.fidelity = pkg.fidelity(root, rebuilt);
  result.removedEdges = cuts.size();
  result.nodesAfter = pkg.size(rebuilt);
  result.state = rebuilt;
  return result;
}

}  // namespace ddsim::dd
