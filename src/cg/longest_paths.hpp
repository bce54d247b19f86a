// The longest-path kernel over ConstraintGraph: feasibility, defining
// paths, cone offsets, lint's implying paths and ASAP/ALAP all run
// through these two loops. Edge filters are callables fixed at compile
// time, one per call site: a runtime-configured filter measurably slows
// the redundancy query, which lives in here.
//
// Order contract of relax_edges: every pass visits its range in
// ascending EdgeId order and a label moves only on a strict
// improvement, which fixes the predecessor edge recorded for every
// vertex (analyze's critical-subgraph extraction keeps those edges).
//
// Independent on purpose: src/certify, the warm SPFA repair
// (wellposed::is_feasible_incremental) and the graph::Digraph oracle.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "base/watchdog.hpp"
#include "cg/constraint_graph.hpp"
#include "graph/algorithms.hpp"

namespace relsched::cg {

struct Relax {
  /// pred[v] := the edge of every strict improvement of dist[v].
  std::vector<EdgeId>* pred = nullptr;
  /// Charged once per pass with the range's size; a trip sets aborted.
  base::Watchdog* watchdog = nullptr;
  /// After vertex_count() passes without convergence, one more pass
  /// decides whether a positive cycle is reachable.
  bool probe = false;
};

struct RelaxResult {
  bool positive_cycle = false;  // set by the probe only
  bool aborted = false;         // dist is partial
};

/// Bellman-Ford longest paths over `edges` (ascending EdgeId order:
/// g.edges() or a subsequence of it), relaxing the edges keep() admits.
/// `dist` holds the seeds on entry (graph::kNegInf elsewhere) and the
/// longest walk lengths on exit. Passes stop at the first one that
/// changes nothing; without a positive cycle vertex_count() passes
/// suffice.
template <class Keep>
RelaxResult relax_edges(const ConstraintGraph& g, std::span<const Edge> edges,
                        Keep keep, std::vector<graph::Weight>& dist,
                        const Relax& options = {}) {
  RelaxResult result;
  const std::uint64_t pass_cost = std::max<std::size_t>(1, edges.size());
  for (int pass = 0; pass < g.vertex_count(); ++pass) {
    if (options.watchdog != nullptr && options.watchdog->charge(pass_cost)) {
      result.aborted = true;
      return result;
    }
    bool changed = false;
    for (const Edge& e : edges) {
      if (!keep(e)) continue;
      const graph::Weight from = dist[e.from.index()];
      if (from == graph::kNegInf) continue;
      const graph::Weight cand =
          graph::saturating_add(from, g.weight(e.id).value);
      if (cand > dist[e.to.index()]) {
        dist[e.to.index()] = cand;
        if (options.pred != nullptr) (*options.pred)[e.to.index()] = e.id;
        changed = true;
      }
    }
    if (!changed) return result;
  }
  if (!options.probe) return result;
  for (const Edge& e : edges) {
    if (!keep(e)) continue;
    if (graph::saturating_add(dist[e.from.index()], g.weight(e.id).value) >
        dist[e.to.index()]) {
      result.positive_cycle = true;
      break;
    }
  }
  return result;
}

/// Which adjacency a relax_in_order() sweep pulls over.
enum class Pull {
  kInEdges,   // dist[v] >= dist[tail] + w: longest paths from the seeds
  kOutEdges,  // dist[v] >= w + dist[head]: longest paths to the seeds
};

/// Pull sweeps over `order` (vertex ids, int or VertexId): each vertex
/// takes the best of its label and its kept in-edges (out-edges for
/// Pull::kOutEdges); vertices outside `order` are fixed boundary
/// values. Repeats until a sweep changes nothing, at most `max_passes`
/// sweeps, and returns whether it got there. One sweep in topological
/// order is exact on a DAG.
template <Pull kPull = Pull::kInEdges, class Order, class Keep>
bool relax_in_order(const ConstraintGraph& g, const Order& order, Keep keep,
                    std::vector<graph::Weight>& dist, int max_passes) {
  bool changed = true;
  for (int pass = 0; pass < max_passes && changed; ++pass) {
    changed = false;
    for (const auto node : order) {
      const VertexId v(node);
      graph::Weight best = dist[v.index()];
      for (const EdgeId eid :
           kPull == Pull::kInEdges ? g.in_edges(v) : g.out_edges(v)) {
        const Edge& e = g.edge(eid);
        if (!keep(e)) continue;
        const VertexId other = kPull == Pull::kInEdges ? e.from : e.to;
        best = std::max(best, graph::saturating_add(dist[other.index()],
                                                    g.weight(e.id).value));
      }
      if (best > dist[v.index()]) {
        dist[v.index()] = best;
        changed = true;
      }
    }
  }
  return !changed;
}

}  // namespace relsched::cg
