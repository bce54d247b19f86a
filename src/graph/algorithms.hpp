// Path and ordering algorithms over Digraph.
//
// Longest paths follow the paper's convention: the constraint-graph layer
// sets unbounded weights to 0 before projecting, and graphs with no
// positive cycle have well-defined longest walks equal to longest paths.
#pragma once

#include <optional>
#include <vector>

#include "graph/digraph.hpp"

namespace relsched::graph {

/// "Minus infinity" marker for unreachable nodes in longest-path arrays.
inline constexpr Weight kNegInf = static_cast<Weight>(-1) << 40;

/// Adds a path length and an arc weight without escaping the sentinel:
/// kNegInf absorbs (unreachable stays unreachable) and finite sums are
/// clamped at kNegInf, so a long chain of very negative weights cannot
/// wrap past the sentinel and masquerade as a huge reachable distance.
[[nodiscard]] constexpr Weight saturating_add(Weight a, Weight b) {
  if (a == kNegInf || b == kNegInf) return kNegInf;
  const Weight sum = a + b;
  return sum < kNegInf ? kNegInf : sum;
}

/// Kahn topological order; std::nullopt if the graph has a cycle.
std::optional<std::vector<int>> topological_order(const Digraph& g);

[[nodiscard]] bool is_acyclic(const Digraph& g);

struct LongestPaths {
  /// dist[v] = length of the longest weighted walk from the source to v,
  /// or kNegInf when v is unreachable. Meaningless when
  /// positive_cycle == true.
  std::vector<Weight> dist;
  bool positive_cycle = false;
};

/// Bellman–Ford longest paths from `source`. Detects positive cycles
/// reachable from `source` (the feasibility test of Theorem 1).
LongestPaths longest_paths_from(const Digraph& g, int source);

/// Longest paths over a DAG given its topological order; O(V+E).
/// Precondition: `topo` is a valid topological order of g.
std::vector<Weight> dag_longest_paths_from(const Digraph& g, int source,
                                           const std::vector<int>& topo);

/// Nodes reachable from `source` (including itself).
std::vector<bool> reachable_from(const Digraph& g, int source);

/// Nodes from which `target` is reachable (including itself).
std::vector<bool> reaching(const Digraph& g, int target);

/// reach[u][v] == true iff v is reachable from u (u reaches itself).
std::vector<std::vector<bool>> transitive_closure(const Digraph& g);

}  // namespace relsched::graph
