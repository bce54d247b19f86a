#include "sched/mobility.hpp"

#include <ranges>

#include "base/error.hpp"
#include "cg/longest_paths.hpp"

namespace relsched::sched {

MobilityAnalysis compute_mobility(const cg::ConstraintGraph& g) {
  const auto topo = g.forward_topo_order();
  RELSCHED_CHECK(topo.has_value(), "mobility requires an acyclic Gf");
  const VertexId sink = g.sink();
  RELSCHED_CHECK(sink.is_valid(), "mobility requires a polar graph");
  const auto forward = [](const cg::Edge& e) { return cg::is_forward(e.kind); };
  const int n = g.vertex_count();

  // One sweep in topological order is exact on the DAG Gf.
  MobilityAnalysis result;
  result.asap.assign(static_cast<std::size_t>(n), graph::kNegInf);
  result.asap[g.source().index()] = 0;
  (void)cg::relax_in_order(g, *topo, forward, result.asap, /*max_passes=*/1);
  result.schedule_length = result.asap[sink.index()];

  // ALAP by longest path *to* the sink, swept in reverse topological
  // order: alap(v) = L - max over out-edges (v -> w) of (w(v,w) +
  // (L - alap(w))).
  std::vector<graph::Weight> to_sink(static_cast<std::size_t>(n),
                                     graph::kNegInf);
  to_sink[sink.index()] = 0;
  (void)cg::relax_in_order<cg::Pull::kOutEdges>(
      g, std::views::reverse(*topo), forward, to_sink, /*max_passes=*/1);

  result.alap.assign(static_cast<std::size_t>(n), 0);
  result.mobility.assign(static_cast<std::size_t>(n), 0);
  for (int vi = 0; vi < n; ++vi) {
    const std::size_t i = static_cast<std::size_t>(vi);
    RELSCHED_CHECK(result.asap[i] != graph::kNegInf &&
                       to_sink[i] != graph::kNegInf,
                   "mobility requires every vertex on a source-sink path");
    result.alap[i] = result.schedule_length - to_sink[i];
    result.mobility[i] = result.alap[i] - result.asap[i];
  }
  return result;
}

}  // namespace relsched::sched
