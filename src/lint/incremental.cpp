#include "lint/incremental.hpp"

#include <cstddef>
#include <utility>

#include "lint/detail.hpp"

namespace relsched::lint {

namespace {

using Sig = IncrementalLinter::Sig;
using Carry = engine::CarryOver<Sig>;

/// Constraint signature of a finding. Matching on (rule, kind,
/// endpoints, bound) instead of EdgeId is what makes carry-over safe
/// across remove_constraint's swap-pop id churn.
Sig finding_sig(const cg::ConstraintGraph& g, const Finding& f) {
  if (!f.edges.empty()) {
    const cg::Edge& e = g.edge(f.edges.front());
    return {static_cast<int>(f.rule), static_cast<int>(e.kind),
            e.from.value(), e.to.value(), e.fixed_weight};
  }
  if (!f.vertices.empty()) {
    return {static_cast<int>(f.rule), f.vertices.front().value(), -1, -1, -1};
  }
  return {static_cast<int>(f.rule), -1, -1, -1, -1};
}

/// Cone-scoped re-lint. Preconditions (checked by the caller): the
/// previous report was built for the state the warm resolve patched
/// from, the current products are ok (valid + feasible + well-posed
/// graph, so no error rule can fire), and `cone` is the warm resolve's
/// dirty cone. Redundancy verdicts are always recomputed (whole-graph
/// queries have no cone footprint); never-binding and dead-anchor
/// findings whose footprint misses the cone are carried over from
/// `prev`, matched by signature. Finding order replicates analyze():
/// redundancy in edge-id order, then never-binding in edge-id order,
/// then dead anchors in anchors() order -- the property test asserts
/// render-identical output against a fresh analyze().
Report cone_relint(const cg::ConstraintGraph& g,
                   const anchors::AnchorAnalysis& analysis,
                   const std::vector<VertexId>& cone, const Options& options,
                   const Report& prev, Carry::Index prev_index) {
  std::vector<bool> in_cone(static_cast<std::size_t>(g.vertex_count()), false);
  for (const VertexId v : cone) in_cone[v.index()] = true;

  const auto edge_sig = [](Rule rule, const cg::Edge& e) -> Sig {
    return {static_cast<int>(rule), static_cast<int>(e.kind), e.from.value(),
            e.to.value(), e.fixed_weight};
  };

  Report report;
  std::vector<bool> is_redundant(static_cast<std::size_t>(g.edge_count()),
                                 false);

  // Redundancy has NO per-vertex footprint: the verdict of edge e is a
  // whole-graph path query (implying walks may route anywhere, and a
  // constraint edit can create or break one without touching any
  // per-vertex product). The engine's dirty-cone contract only covers
  // per-vertex derived products, so these verdicts are recomputed on
  // every cone pass -- the cone still pays for itself on the rules
  // below, which do read per-vertex products only.
  if (options.check_redundant) {
    for (const cg::Edge& e : g.edges()) {
      if (e.kind == cg::EdgeKind::kSequencing) continue;
      graph::Weight implied = graph::kNegInf;
      if (detail::edge_redundant(g, analysis, e.id, &implied)) {
        is_redundant[e.id.index()] = true;
        report.findings.push_back(detail::redundant_finding(g, {e.id, implied}));
      }
    }
  }

  // Never-binding footprint: reads length(a, .) and A(.) at both
  // endpoints; stable while both stay outside the cone. A signature
  // miss does NOT mean "previously not never-binding" -- the edge may
  // have been masked by a redundancy finding that just went away, or
  // its bound (part of the signature) may have changed -- so a miss
  // falls back to recomputing rather than dropping the verdict.
  if (options.check_never_binding) {
    for (const cg::Edge& e : g.edges()) {
      if (e.kind != cg::EdgeKind::kMaxConstraint) continue;
      if (is_redundant[e.id.index()]) continue;  // stronger finding exists
      const Finding* carried_from = nullptr;
      if (!in_cone[e.from.index()] && !in_cone[e.to.index()]) {
        carried_from =
            prev_index.take(edge_sig(Rule::kNeverBindingMax, e), prev.findings);
      }
      if (carried_from != nullptr) {
        Finding carried = *carried_from;
        carried.edges = {e.id};
        carried.vertices = {e.from, e.to};
        report.findings.push_back(std::move(carried));
      } else {
        graph::Weight separation = graph::kNegInf;
        if (detail::never_binding(g, analysis, e.id, &separation)) {
          report.findings.push_back(
              detail::never_binding_finding(g, e.id, separation));
        }
      }
    }
  }

  // Dead-anchor footprint: reads R(sink) only. The anchor set itself
  // cannot change on a warm resolve (anchor-status flips force cold),
  // so iterating the current anchors() preserves analyze()'s order for
  // the carried findings too.
  if (options.check_liveness) {
    const VertexId sink = g.sink();
    if (in_cone[sink.index()]) {
      const auto relevant = analysis.relevant_set(sink);
      for (const VertexId a : analysis.anchors()) {
        if (a == g.source() || relevant.contains(a)) continue;
        report.findings.push_back(detail::dead_anchor_finding(g, a));
      }
    } else {
      for (const VertexId a : analysis.anchors()) {
        const Sig key{static_cast<int>(Rule::kDeadAnchor), a.value(), -1, -1,
                      -1};
        if (const Finding* f = prev_index.take(key, prev.findings)) {
          report.findings.push_back(*f);
        }
      }
    }
  }
  return report;
}

}  // namespace

const Report& IncrementalLinter::relint(engine::SynthesisSession& session) {
  const engine::Products& products = session.resolve();
  const cg::ConstraintGraph& g = session.graph();

  // A warm resolve implies the *previous* products were ok, so a cached
  // report on the cone path holds no error findings to invalidate.
  switch (carry_.plan(session, products, /*cached_ok=*/true)) {
    case Carry::Path::kCurrent:
      return report_;
    case Carry::Path::kCone: {
      ++cone_lints_;
      const Report prev = std::move(report_);
      report_ = cone_relint(g, products.analysis, session.last_dirty_cone(),
                            options_, prev, carry_.index());
      break;
    }
    case Carry::Path::kFull:
      ++full_lints_;
      report_ =
          analyze(g, products.ok() ? &products.analysis : nullptr, options_);
      break;
  }
  carry_.store(session, products, report_.findings,
               [&g](const Finding& f) { return finding_sig(g, f); });
  return report_;
}

}  // namespace relsched::lint
