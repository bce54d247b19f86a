#include "analyze/incremental.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "analyze/detail.hpp"

namespace relsched::analyze {

namespace {

using Sig = IncrementalAnalyzer::Sig;
using Carry = engine::CarryOver<Sig>;

Sig edge_sig(const cg::Edge& e) {
  return {static_cast<int>(e.kind), e.from.value(), e.to.value(),
          e.fixed_weight};
}

/// Cone-scoped re-analysis. Preconditions (checked by the caller): the
/// cached report is a kOk report for the state the warm resolve patched
/// from, `t0` holds its zero-profile start times, the current products
/// are ok, and `cone` is the warm resolve's dirty cone. Records whose
/// endpoints both miss the cone are carried from `prev` by signature
/// (EdgeId refreshed); the rest are recomputed against the patched t0.
Report cone_reanalyze(const cg::ConstraintGraph& g,
                      const anchors::AnchorAnalysis& analysis,
                      const std::vector<VertexId>& cone,
                      const graph::DynamicTopoOrder& topo, const Report& prev,
                      Carry::Index prev_index,
                      std::vector<graph::Weight>& t0) {
  std::vector<bool> in_cone(static_cast<std::size_t>(g.vertex_count()), false);
  for (const VertexId v : cone) in_cone[v.index()] = true;

  // The engine publishes the cone in flood (BFS) order; the T0 patch
  // needs forward topological order, so sort by position in the
  // session's order.
  std::vector<VertexId> cone_topo = cone;
  std::sort(cone_topo.begin(), cone_topo.end(),
            [&topo](VertexId a, VertexId b) {
              return topo.position(a.value()) < topo.position(b.value());
            });
  detail::patch_zero_profile_start_times(g, analysis, cone_topo, t0);

  Report report;
  report.status = Status::kOk;
  for (const cg::Edge& e : g.edges()) {
    if (e.kind == cg::EdgeKind::kSequencing) continue;
    const ConstraintSlack* carried_from = nullptr;
    if (!in_cone[e.from.index()] && !in_cone[e.to.index()]) {
      carried_from = prev_index.take(edge_sig(e), prev.slacks);
    }
    if (carried_from != nullptr) {
      ConstraintSlack carried = *carried_from;
      carried.edge = e.id;
      report.slacks.push_back(carried);
    } else {
      report.slacks.push_back(detail::constraint_slack(g, analysis, t0, e.id));
    }
  }
  detail::rank(report.slacks);
  return report;
}

}  // namespace

const Report& IncrementalAnalyzer::reanalyze(
    engine::SynthesisSession& session) {
  const engine::Products& products = session.resolve();
  const cg::ConstraintGraph& g = session.graph();

  switch (carry_.plan(session, products, /*cached_ok=*/report_.ok())) {
    case Carry::Path::kCurrent:
      return report_;
    case Carry::Path::kCone: {
      ++cone_analyses_;
      const Report prev = std::move(report_);
      report_ = cone_reanalyze(g, products.analysis, session.last_dirty_cone(),
                               session.topo_order(), prev, carry_.index(),
                               t0_);
      break;
    }
    case Carry::Path::kFull:
      ++full_analyses_;
      report_ = analyze(g, products.ok() ? &products.analysis : nullptr);
      // A report can be ok over products that are not (a cancelled
      // resolve leaves no analysis); the cone path never reads t0 then.
      if (report_.ok() && products.ok()) {
        t0_ = detail::zero_profile_start_times(g, products.analysis,
                                               session.topo_order().order());
      } else {
        t0_.clear();
      }
      break;
  }
  carry_.store(session, products, report_.slacks,
               [&g](const ConstraintSlack& s) {
                 return edge_sig(g.edge(s.edge));
               });
  return report_;
}

}  // namespace relsched::analyze
