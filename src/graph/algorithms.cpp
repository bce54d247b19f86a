#include "graph/algorithms.hpp"

#include <algorithm>
#include <queue>

namespace relsched::graph {

std::optional<std::vector<int>> topological_order(const Digraph& g) {
  const int n = g.node_count();
  std::vector<int> indegree(static_cast<std::size_t>(n), 0);
  for (const Arc& arc : g.arcs()) {
    ++indegree[static_cast<std::size_t>(arc.to)];
  }
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  std::queue<int> ready;
  for (int v = 0; v < n; ++v) {
    if (indegree[static_cast<std::size_t>(v)] == 0) ready.push(v);
  }
  while (!ready.empty()) {
    const int v = ready.front();
    ready.pop();
    order.push_back(v);
    for (int arc_idx : g.out_arcs(v)) {
      const int to = g.arc(arc_idx).to;
      if (--indegree[static_cast<std::size_t>(to)] == 0) ready.push(to);
    }
  }
  if (static_cast<int>(order.size()) != n) return std::nullopt;
  return order;
}

bool is_acyclic(const Digraph& g) { return topological_order(g).has_value(); }

LongestPaths longest_paths_from(const Digraph& g, int source) {
  const int n = g.node_count();
  LongestPaths result;
  result.dist.assign(static_cast<std::size_t>(n), kNegInf);
  result.dist[static_cast<std::size_t>(source)] = 0;

  // Standard Bellman–Ford relaxation, maximizing. A relaxation that still
  // fires on the n-th pass proves a positive cycle reachable from source.
  for (int pass = 0; pass < n; ++pass) {
    bool changed = false;
    for (const Arc& arc : g.arcs()) {
      const Weight from_dist = result.dist[static_cast<std::size_t>(arc.from)];
      Weight& to_dist = result.dist[static_cast<std::size_t>(arc.to)];
      const Weight candidate = saturating_add(from_dist, arc.weight);
      if (candidate > to_dist) {
        to_dist = candidate;
        changed = true;
      }
    }
    if (!changed) return result;
  }
  // n passes without stabilizing: one more probe pass confirms the cycle.
  for (const Arc& arc : g.arcs()) {
    const Weight from_dist = result.dist[static_cast<std::size_t>(arc.from)];
    if (saturating_add(from_dist, arc.weight) >
        result.dist[static_cast<std::size_t>(arc.to)]) {
      result.positive_cycle = true;
      return result;
    }
  }
  return result;
}

std::vector<Weight> dag_longest_paths_from(const Digraph& g, int source,
                                           const std::vector<int>& topo) {
  std::vector<Weight> dist(static_cast<std::size_t>(g.node_count()), kNegInf);
  dist[static_cast<std::size_t>(source)] = 0;
  for (int v : topo) {
    const Weight dv = dist[static_cast<std::size_t>(v)];
    if (dv == kNegInf) continue;
    for (int arc_idx : g.out_arcs(v)) {
      const Arc& arc = g.arc(arc_idx);
      Weight& dt = dist[static_cast<std::size_t>(arc.to)];
      dt = std::max(dt, saturating_add(dv, arc.weight));
    }
  }
  return dist;
}

namespace {

std::vector<bool> flood(const Digraph& g, int start, bool forward) {
  std::vector<bool> seen(static_cast<std::size_t>(g.node_count()), false);
  std::vector<int> stack{start};
  seen[static_cast<std::size_t>(start)] = true;
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    const auto arcs = forward ? g.out_arcs(v) : g.in_arcs(v);
    for (int arc_idx : arcs) {
      const Arc& arc = g.arc(arc_idx);
      const int next = forward ? arc.to : arc.from;
      if (!seen[static_cast<std::size_t>(next)]) {
        seen[static_cast<std::size_t>(next)] = true;
        stack.push_back(next);
      }
    }
  }
  return seen;
}

}  // namespace

std::vector<bool> reachable_from(const Digraph& g, int source) {
  return flood(g, source, /*forward=*/true);
}

std::vector<bool> reaching(const Digraph& g, int target) {
  return flood(g, target, /*forward=*/false);
}

std::vector<std::vector<bool>> transitive_closure(const Digraph& g) {
  const int n = g.node_count();
  std::vector<std::vector<bool>> reach;
  reach.reserve(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) reach.push_back(reachable_from(g, v));
  return reach;
}

}  // namespace relsched::graph
