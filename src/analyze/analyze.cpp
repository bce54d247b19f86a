#include "analyze/analyze.hpp"

#include <algorithm>
#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "base/error.hpp"
#include "base/json.hpp"
#include "base/strings.hpp"
#include "graph/algorithms.hpp"
#include "lint/lint.hpp"
#include "sched/scheduler.hpp"

namespace relsched::analyze {

namespace {

using relsched::cat;
using graph::kNegInf;
using graph::Weight;

const char* kind_label(cg::EdgeKind kind) {
  switch (kind) {
    case cg::EdgeKind::kSequencing:
      return "seq";
    case cg::EdgeKind::kMinConstraint:
      return "min";
    case cg::EdgeKind::kMaxConstraint:
      return "max";
  }
  return "?";
}

/// Zero-profile delay contribution (mirrors the certifier's copy of
/// sched::DelayProfile::delay_of with an empty profile).
Weight zero_profile_delay(const cg::ConstraintGraph& g, VertexId v) {
  if (g.vertex(v).delay.is_bounded() && v != g.source()) {
    return g.vertex(v).delay.cycles();
  }
  return 0;
}

/// Zero-profile start times off the anchor analysis, via the Theorem 3
/// identity sigma_a^min(v) = length(a, v):
///   T0(v) = max(0, max_{a in A(v)} T0(a) + d0(a) + length(a, v)),
/// evaluated in forward topological order (T0(source) = 0). Identical
/// to the certifier's recursion over the minimum schedule's offsets.
std::vector<Weight> zero_profile_start_times(
    const cg::ConstraintGraph& g, const anchors::AnchorAnalysis& analysis,
    const std::vector<int>& topo) {
  std::vector<Weight> t0(static_cast<std::size_t>(g.vertex_count()), 0);
  for (const int i : topo) {
    const VertexId v(i);
    if (v == g.source()) continue;
    Weight t = 0;
    for (const VertexId a : analysis.anchor_set(v)) {
      t = std::max(t, t0[a.index()] + zero_profile_delay(g, a) +
                          analysis.length(a, v));
    }
    t0[v.index()] = t;
  }
  return t0;
}

/// Slack record of constraint edge `eid` (min or max; never call on a
/// sequencing edge). Preconditions: valid + feasible + well-posed
/// graph, `t0` current zero-profile start times.
ConstraintSlack constraint_slack(const cg::ConstraintGraph& g,
                                 const anchors::AnchorAnalysis& analysis,
                                 const std::vector<Weight>& t0, EdgeId eid) {
  const cg::Edge& e = g.edge(eid);
  const bool backward = e.kind == cg::EdgeKind::kMaxConstraint;
  ConstraintSlack s;
  s.edge = eid;
  s.kind = e.kind;
  s.from = backward ? e.to : e.from;
  s.to = backward ? e.from : e.to;
  s.bound = backward ? -e.fixed_weight : e.fixed_weight;

  // Stored orientation (t -> h, w): every edge encodes
  // sigma(h) >= sigma(t) + w, and tightening the user bound by s adds
  // s to w for both kinds (min: l+s; max stored -u: -(u-s) = -u+s).
  const VertexId t = e.from;
  const VertexId h = e.to;
  const Weight w = e.fixed_weight;

  s.zero_profile_margin = t0[h.index()] - t0[t.index()] - w;

  // Per-anchor-frame margins over A(t). Finite by construction: a in
  // A(t) puts t in cone(a), and A(t) is contained in A(h) for both
  // kinds (forward Gf propagation for min edges, the well-posedness
  // containment -- established before slacks are computed -- for max
  // edges), so both lengths exist.
  bool has_anchor = false;
  Weight anchor_min = 0;
  VertexId argmin = VertexId::invalid();
  for (const VertexId a : analysis.anchor_set(t)) {
    const Weight m = analysis.length(a, h) - analysis.length(a, t) - w;
    if (!has_anchor || m < anchor_min) {
      has_anchor = true;
      anchor_min = m;
      argmin = a;
    }
  }
  s.slack = has_anchor ? std::min(s.zero_profile_margin, anchor_min)
                       : s.zero_profile_margin;
  if (has_anchor && anchor_min == s.slack) {
    s.critical_anchor = argmin;
    s.critical_offset = analysis.length(argmin, h);
  }
  for (const VertexId a : analysis.anchor_set(t)) {
    if (analysis.length(a, h) - analysis.length(a, t) - w == s.slack) {
      ++s.tight_frames;
    }
  }
  return s;
}

/// Criticality ranking in place: slack ascending, tight_frames
/// descending, EdgeId ascending (deterministic total order).
void rank(std::vector<ConstraintSlack>& slacks) {
  std::stable_sort(slacks.begin(), slacks.end(),
                   [](const ConstraintSlack& a, const ConstraintSlack& b) {
                     if (a.slack != b.slack) return a.slack < b.slack;
                     if (a.tight_frames != b.tight_frames) {
                       return a.tight_frames > b.tight_frames;
                     }
                     return a.edge.value() < b.edge.value();
                   });
}

}  // namespace

// ---- Analysis -------------------------------------------------------------

const char* to_string(Status status) {
  switch (status) {
    case Status::kOk:
      return "ok";
    case Status::kInvalid:
      return "invalid";
    case Status::kInfeasible:
      return "infeasible";
    case Status::kIllPosed:
      return "ill-posed";
  }
  return "?";
}

int Report::binding_count() const {
  int n = 0;
  for (const ConstraintSlack& s : slacks) n += s.slack == 0 ? 1 : 0;
  return n;
}

Report analyze(const cg::ConstraintGraph& g,
               const anchors::AnchorAnalysis* analysis) {
  Report r;
  std::optional<anchors::AnchorAnalysis> owned;
  if (analysis == nullptr) {
    // Cold path: establish validity and feasibility ourselves before
    // the anchor pipeline may run. A caller-provided analysis (the
    // engine's certified products) implies both -- validity and
    // feasibility are its own preconditions -- so the warm path skips
    // these full-graph sweeps entirely.
    if (const auto issues = g.validate(); !issues.empty()) {
      r.status = Status::kInvalid;
      r.message = issues.front().message;
      return r;
    }
    certify::Diag cycle = certify::find_positive_cycle(g);
    if (!cycle.ok()) {
      r.status = Status::kInfeasible;
      r.diag = std::move(cycle);
      return r;
    }
    owned.emplace(anchors::AnchorAnalysis::compute(g));
    analysis = &*owned;
  }
  for (const EdgeId eid : g.backward_edges()) {
    const cg::Edge& e = g.edge(eid);
    const VertexId bad = analysis->anchor_set(e.from).first_missing_in(
        analysis->anchor_set(e.to));
    if (bad.is_valid()) {
      r.status = Status::kIllPosed;
      r.diag = certify::make_containment_diag(g, eid, bad);
      return r;
    }
  }

  const auto topo = g.forward_topo_order();
  RELSCHED_CHECK(topo.has_value(), "analyze requires an acyclic Gf");
  const std::vector<Weight> t0 =
      zero_profile_start_times(g, *analysis, *topo);
  for (const cg::Edge& e : g.edges()) {
    if (e.kind == cg::EdgeKind::kSequencing) continue;
    r.slacks.push_back(constraint_slack(g, *analysis, t0, e.id));
  }
  rank(r.slacks);
  r.status = Status::kOk;
  return r;
}

// ---- Critical-subgraph extraction -----------------------------------------

namespace {

/// Marking state of an extraction in progress. `fresh` holds kept
/// vertices whose closure (spine + per-anchor paths) has not run yet.
struct Marker {
  explicit Marker(const cg::ConstraintGraph& graph)
      : g(graph),
        keep_v(static_cast<std::size_t>(graph.vertex_count()), 0),
        keep_e(static_cast<std::size_t>(graph.edge_count()), 0) {}

  const cg::ConstraintGraph& g;
  std::vector<char> keep_v, keep_e;
  std::vector<VertexId> fresh;

  void vertex(VertexId v) {
    if (keep_v[v.index()] == 0) {
      keep_v[v.index()] = 1;
      fresh.push_back(v);
    }
  }
  void edge(EdgeId e) {
    if (keep_e[e.index()] == 0) {
      keep_e[e.index()] = 1;
      vertex(g.edge(e).from);
      vertex(g.edge(e).to);
    }
  }
};

/// Global Gf spine trees: par_src[v] = a forward in-edge on some
/// source -> v path, nxt_sink[v] = a forward out-edge on some
/// v -> sink path. BFS both ways; on a validated (polar) graph every
/// vertex has both, so keeping these chains keeps the subgraph polar.
struct SpineTrees {
  std::vector<EdgeId> par_src, nxt_sink;
};

SpineTrees spine_trees(const cg::ConstraintGraph& g) {
  const std::size_t n = static_cast<std::size_t>(g.vertex_count());
  SpineTrees trees{std::vector<EdgeId>(n, EdgeId::invalid()),
                   std::vector<EdgeId>(n, EdgeId::invalid())};
  std::vector<char> seen(n, 0);
  std::vector<VertexId> queue{g.source()};
  seen[g.source().index()] = 1;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    for (const EdgeId eid : g.out_edges(queue[i])) {
      const cg::Edge& e = g.edge(eid);
      if (!cg::is_forward(e.kind) || seen[e.to.index()] != 0) continue;
      seen[e.to.index()] = 1;
      trees.par_src[e.to.index()] = eid;
      queue.push_back(e.to);
    }
  }
  const VertexId sink = g.sink();
  std::fill(seen.begin(), seen.end(), 0);
  queue.assign(1, sink);
  seen[sink.index()] = 1;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    for (const EdgeId eid : g.in_edges(queue[i])) {
      const cg::Edge& e = g.edge(eid);
      if (!cg::is_forward(e.kind) || seen[e.from.index()] != 0) continue;
      seen[e.from.index()] = 1;
      trees.nxt_sink[e.from.index()] = eid;
      queue.push_back(e.from);
    }
  }
  return trees;
}

/// Drains the fresh list, marking every drained vertex's polar spine
/// (which may re-fill the list; the loop runs to quiescence) and
/// collecting the drained vertices into `round` for per-anchor closure.
void close_spine(const cg::ConstraintGraph& g, const SpineTrees& trees,
                 Marker& mark, std::vector<char>& src_done,
                 std::vector<char>& sink_done, std::vector<VertexId>& round) {
  const VertexId sink = g.sink();
  while (!mark.fresh.empty()) {
    const VertexId v = mark.fresh.back();
    mark.fresh.pop_back();
    round.push_back(v);
    for (VertexId x = v; x != g.source() && src_done[x.index()] == 0;) {
      src_done[x.index()] = 1;
      const EdgeId e = trees.par_src[x.index()];
      if (!e.is_valid()) break;  // defensive; impossible on valid graphs
      mark.edge(e);
      x = g.edge(e).from;
    }
    for (VertexId x = v; x != sink && sink_done[x.index()] == 0;) {
      sink_done[x.index()] = 1;
      const EdgeId e = trees.nxt_sink[x.index()];
      if (!e.is_valid()) break;
      mark.edge(e);
      x = g.edge(e).to;
    }
  }
}

/// Anchor-membership parent tree of `a`: member_par[v] is a forward
/// edge on a path a -> ... -> v whose first edge carries delta(a) --
/// exactly the derivation find_anchor_sets uses for a in A(v) (the
/// unbounded out-edge introduces the anchor; plain forward edges
/// propagate it). Keeping the chain back from v keeps a in the
/// subgraph's A(v).
std::vector<EdgeId> membership_tree(const cg::ConstraintGraph& g, VertexId a) {
  const std::size_t n = static_cast<std::size_t>(g.vertex_count());
  std::vector<EdgeId> par(n, EdgeId::invalid());
  std::vector<char> seen(n, 0);
  std::vector<VertexId> queue;
  for (const EdgeId eid : g.out_edges(a)) {
    if (!g.weight(eid).unbounded) continue;  // unbounded => sequencing
    const cg::Edge& e = g.edge(eid);
    if (seen[e.to.index()] != 0) continue;
    seen[e.to.index()] = 1;
    par[e.to.index()] = eid;
    queue.push_back(e.to);
  }
  for (std::size_t i = 0; i < queue.size(); ++i) {
    for (const EdgeId eid : g.out_edges(queue[i])) {
      const cg::Edge& e = g.edge(eid);
      if (!cg::is_forward(e.kind) || seen[e.to.index()] != 0) continue;
      seen[e.to.index()] = 1;
      par[e.to.index()] = eid;
      queue.push_back(e.to);
    }
  }
  return par;
}

/// Walks a parent/pred chain from `v` back to `a`, marking every edge.
/// False on a broken chain (internal error; certification would fail).
bool walk_chain(const cg::ConstraintGraph& g, const std::vector<EdgeId>& par,
                VertexId a, VertexId v, Marker& mark) {
  int steps = 0;
  for (VertexId x = v; x != a;) {
    const EdgeId e = par[x.index()];
    if (!e.is_valid() || ++steps > g.vertex_count() + 1) return false;
    mark.edge(e);
    x = g.edge(e).from;
  }
  return true;
}

/// Closure for scheduled designs: seed with the sink and every binding
/// max constraint, then iterate to a fixpoint -- every kept vertex
/// keeps, for every anchor frame it tracks, (1) a membership path (so
/// the subgraph's A(v) equals the full design's) and (2) a
/// length-realizing cone path (so the subgraph's cone-restricted
/// longest paths -- which can only shrink under edge removal --
/// reproduce length(a, v) exactly), plus (3) its polar spine. With all
/// A(v) and length(a, v) preserved, Theorem 3 makes the subgraph's
/// minimum schedule bit-identical on mapped vertices; the runtime
/// certification below re-proves it per extraction anyway.
std::string close_scheduled(const cg::ConstraintGraph& g,
                            const anchors::AnchorAnalysis& analysis,
                            const Report& report, Marker& mark) {
  const std::size_t n = static_cast<std::size_t>(g.vertex_count());
  const SpineTrees trees = spine_trees(g);
  std::vector<char> src_done(n, 0), sink_done(n, 0);

  mark.vertex(g.sink());
  for (const ConstraintSlack& s : report.slacks) {
    if (s.kind == cg::EdgeKind::kMaxConstraint && s.slack == 0) {
      mark.edge(s.edge);
    }
  }

  std::vector<VertexId> round, members;
  std::vector<EdgeId> pred;
  while (!mark.fresh.empty()) {
    round.clear();
    close_spine(g, trees, mark, src_done, sink_done, round);
    for (const VertexId a : analysis.anchors()) {
      members.clear();
      for (const VertexId v : round) {
        if (v != a && analysis.anchor_set(v).contains(a)) members.push_back(v);
      }
      if (members.empty()) continue;
      const std::vector<EdgeId> memb = membership_tree(g, a);
      // Length-realizing cone paths: the predecessor tree of
      // length(a, .) under the kernel's order contract.
      (void)anchors::cone_longest_paths(g, analysis.anchor_sets(), a, &pred);
      for (const VertexId v : members) {
        if (!walk_chain(g, memb, a, v, mark)) {
          return cat("no membership path from anchor '", g.vertex(a).name,
                     "' to '", g.vertex(v).name, "'");
        }
        if (!walk_chain(g, pred, a, v, mark)) {
          return cat("no defining cone path from anchor '", g.vertex(a).name,
                     "' to '", g.vertex(v).name, "'");
        }
      }
    }
  }
  return "";
}

/// Rebuilds the kept sub-design as a standalone ConstraintGraph.
/// Vertices and edges are emitted in full-design id order, so the
/// source stays VertexId(0) and the maps are monotone; max constraints
/// are re-added in user orientation (the stored edge is backward).
void build_subgraph(const cg::ConstraintGraph& g, const Marker& mark,
                    Extraction& ex) {
  const int n = g.vertex_count();
  const int m = g.edge_count();
  ex.full_vertices = n;
  ex.full_edges = m;
  ex.old_to_new.assign(static_cast<std::size_t>(n), -1);
  ex.subgraph = cg::ConstraintGraph(g.name() + ".critical");
  for (int i = 0; i < n; ++i) {
    if (mark.keep_v[static_cast<std::size_t>(i)] == 0) continue;
    const cg::Vertex& v = g.vertex(VertexId(i));
    const VertexId nv =
        ex.subgraph.add_vertex(std::string(v.name), v.delay);
    ex.old_to_new[static_cast<std::size_t>(i)] = nv.value();
    ex.vertex_map.push_back(VertexId(i));
  }
  for (int i = 0; i < m; ++i) {
    if (mark.keep_e[static_cast<std::size_t>(i)] == 0) continue;
    const cg::Edge& e = g.edge(EdgeId(i));
    const VertexId f(ex.old_to_new[e.from.index()]);
    const VertexId t(ex.old_to_new[e.to.index()]);
    switch (e.kind) {
      case cg::EdgeKind::kSequencing:
        ex.subgraph.add_sequencing_edge(f, t);
        break;
      case cg::EdgeKind::kMinConstraint:
        ex.subgraph.add_min_constraint(f, t, e.fixed_weight);
        break;
      case cg::EdgeKind::kMaxConstraint:
        ex.subgraph.add_max_constraint(t, f, -e.fixed_weight);
        break;
    }
    ex.edge_map.push_back(EdgeId(i));
  }
}

/// Certification of a scheduled extraction: re-schedule the subgraph
/// cold, certify the products independently, then compare every mapped
/// vertex's offset map bit-for-bit against the full design's minimum
/// schedule (== length(a, v), Theorem 3 -- no full-design scheduler
/// run needed).
std::string certify_scheduled(const cg::ConstraintGraph& g,
                              const anchors::AnchorAnalysis& analysis,
                              Extraction& ex) {
  const anchors::AnchorAnalysis sub_analysis =
      anchors::AnchorAnalysis::compute(ex.subgraph);
  const sched::ScheduleResult result =
      sched::schedule(ex.subgraph, sub_analysis);
  if (!result.ok()) {
    return cat("subgraph does not schedule: ", result.message);
  }
  if (const certify::Diag d =
          certify::check_products(ex.subgraph, sub_analysis, result.schedule);
      !d.ok()) {
    return cat("subgraph products failed certification: ", d.message);
  }
  for (std::size_t i = 0; i < ex.vertex_map.size(); ++i) {
    const VertexId ov = ex.vertex_map[i];
    const auto full_set = analysis.anchor_set(ov);
    const auto& entries =
        result.schedule.offsets(VertexId(static_cast<int>(i))).entries();
    if (static_cast<int>(entries.size()) != full_set.size()) {
      return cat("offset map of '", g.vertex(ov).name, "' tracks ",
                 entries.size(), " anchors in the subgraph vs ",
                 full_set.size(), " in the design");
    }
    for (const auto& [sub_anchor, offset] : entries) {
      const VertexId oa = ex.vertex_map[sub_anchor.index()];
      if (!full_set.contains(oa) || analysis.length(oa, ov) != offset) {
        return cat("offset sigma_", g.vertex(oa).name, "(",
                   g.vertex(ov).name, ") = ", offset,
                   " in the subgraph vs ", analysis.length(oa, ov),
                   " in the design");
      }
    }
  }
  return "";
}

}  // namespace

Extraction extract_critical(const cg::ConstraintGraph& g, const Report& report,
                            const anchors::AnchorAnalysis* analysis) {
  Extraction ex;
  ex.status = report.status;
  ex.full_vertices = g.vertex_count();
  ex.full_edges = g.edge_count();
  if (report.status == Status::kInvalid) {
    ex.certification_error = "invalid design: nothing to extract";
    return ex;
  }

  Marker mark(g);
  std::string closure_error;
  // Ill-posed containment violations marked during closure, re-checked
  // against the subgraph's own anchor sets during certification.
  std::vector<std::pair<EdgeId, VertexId>> violations;
  std::optional<anchors::AnchorAnalysis> owned;

  switch (report.status) {
    case Status::kOk: {
      if (analysis == nullptr) {
        owned.emplace(anchors::AnchorAnalysis::compute(g));
        analysis = &*owned;
      }
      closure_error = close_scheduled(g, *analysis, report, mark);
      break;
    }
    case Status::kInfeasible: {
      // Keep the positive-cycle witness, the irreducible unsat core,
      // and the spine: the cycle alone re-proves infeasibility; the
      // core names every constraint whose relaxation can repair it.
      const auto* cycle =
          std::get_if<certify::CycleWitness>(&report.diag.witness);
      certify::Diag local;
      if (cycle == nullptr) {
        local = certify::find_positive_cycle(g);
        cycle = std::get_if<certify::CycleWitness>(&local.witness);
      }
      if (cycle == nullptr) {
        ex.certification_error = "no positive-cycle witness to extract";
        return ex;
      }
      for (const EdgeId e : cycle->edges) mark.edge(e);
      const lint::UnsatCore core = lint::unsat_core(g);
      for (const EdgeId e : core.core) mark.edge(e);
      const SpineTrees trees = spine_trees(g);
      std::vector<char> src_done(g.vertex_count(), 0);
      std::vector<char> sink_done(g.vertex_count(), 0);
      std::vector<VertexId> round;
      close_spine(g, trees, mark, src_done, sink_done, round);
      break;
    }
    case Status::kIllPosed: {
      if (analysis == nullptr) {
        owned.emplace(anchors::AnchorAnalysis::compute_anchor_sets_only(g));
        analysis = &*owned;
      }
      for (const EdgeId eid : g.backward_edges()) {
        const cg::Edge& e = g.edge(eid);
        const VertexId bad = analysis->anchor_set(e.from).first_missing_in(
            analysis->anchor_set(e.to));
        if (!bad.is_valid()) continue;
        mark.edge(eid);
        violations.emplace_back(eid, bad);
        const certify::Diag d = certify::make_containment_diag(g, eid, bad);
        if (const auto* w =
                std::get_if<certify::ContainmentWitness>(&d.witness)) {
          for (const EdgeId pe : w->path) mark.edge(pe);
        }
      }
      const SpineTrees trees = spine_trees(g);
      std::vector<char> src_done(g.vertex_count(), 0);
      std::vector<char> sink_done(g.vertex_count(), 0);
      std::vector<VertexId> round;
      close_spine(g, trees, mark, src_done, sink_done, round);
      break;
    }
    case Status::kInvalid:
      break;  // handled above
  }

  if (!closure_error.empty()) {
    ex.certification_error = closure_error;
    return ex;
  }
  build_subgraph(g, mark, ex);

  // ---- Runtime certification ----------------------------------------------
  switch (report.status) {
    case Status::kOk:
      ex.certification_error = certify_scheduled(g, *analysis, ex);
      break;
    case Status::kInfeasible: {
      const certify::Diag d = certify::find_positive_cycle(ex.subgraph);
      if (d.code != certify::Code::kPositiveCycle) {
        ex.certification_error = "subgraph is not infeasible";
      } else if (const auto err = certify::verify_witness(ex.subgraph, d)) {
        ex.certification_error =
            cat("subgraph witness failed replay: ", *err);
      }
      break;
    }
    case Status::kIllPosed: {
      const anchors::AnchorAnalysis sub_sets =
          anchors::AnchorAnalysis::compute_anchor_sets_only(ex.subgraph);
      for (const auto& [eid, bad] : violations) {
        const cg::Edge& e = g.edge(eid);
        const VertexId nf(ex.old_to_new[e.from.index()]);
        const VertexId nt(ex.old_to_new[e.to.index()]);
        const VertexId nb(ex.old_to_new[bad.index()]);
        if (!sub_sets.anchor_set(nf).contains(nb) ||
            sub_sets.anchor_set(nt).contains(nb)) {
          ex.certification_error =
              cat("containment violation of anchor '", g.vertex(bad).name,
                  "' not reproduced in the subgraph");
          break;
        }
      }
      if (violations.empty()) {
        ex.certification_error = "no containment violation to extract";
      }
      break;
    }
    case Status::kInvalid:
      break;
  }
  ex.certified = ex.certification_error.empty();
  return ex;
}

// ---- Rendering ------------------------------------------------------------

namespace {

std::string describe_constraint(const cg::ConstraintGraph& g,
                                const ConstraintSlack& s) {
  const char* op = s.kind == cg::EdgeKind::kMaxConstraint ? " <= " : " >= ";
  return cat(kind_label(s.kind), " ", g.vertex(s.from).name, " -> ",
             g.vertex(s.to).name, op, s.bound);
}

}  // namespace

std::string render_text(const Report& report, const cg::ConstraintGraph& g,
                        int top) {
  std::string out = cat("analyze: ", g.name(), ": ");
  switch (report.status) {
    case Status::kInvalid:
      return cat(out, "invalid design: ", report.message, "\n");
    case Status::kInfeasible:
    case Status::kIllPosed:
      return cat(out, to_string(report.status), "\n",
                 certify::render(report.diag, g), "\n");
    case Status::kOk:
      break;
  }
  const int n = static_cast<int>(report.slacks.size());
  const int shown = top <= 0 ? n : std::min(top, n);
  out += cat(n, " constraint", n == 1 ? "" : "s", ", ",
             report.binding_count(), " binding");
  if (shown < n) out += cat("; top ", shown);
  out += "\n";
  for (int i = 0; i < shown; ++i) {
    const ConstraintSlack& s = report.slacks[i];
    out += cat("  ", describe_constraint(g, s), ": slack ", s.slack);
    if (s.critical_anchor.is_valid()) {
      out += cat(" [anchor '", g.vertex(s.critical_anchor).name, "', offset ",
                 s.critical_offset, ", ", s.tight_frames, " tight frame",
                 s.tight_frames == 1 ? "" : "s", "]");
    } else {
      out += cat(" [zero-profile margin ", s.zero_profile_margin, "]");
    }
    out += "\n";
  }
  return out;
}

std::string render_text(const Extraction& extraction) {
  std::string out =
      cat("extract: ", extraction.subgraph.vertex_count(), "/",
          extraction.full_vertices, " vertices, ",
          extraction.subgraph.edge_count(), "/", extraction.full_edges,
          " edges");
  if (extraction.certified) {
    out += "; certified";
  } else {
    out += cat("; CERTIFICATION FAILED: ", extraction.certification_error);
  }
  out += "\n";
  return out;
}

std::string to_json(const Report& report, const cg::ConstraintGraph& g,
                    const Extraction* extraction) {
  using base::append_json_string;
  std::string out = "{\"graph\": ";
  append_json_string(out, g.name());
  out += ", \"status\": ";
  append_json_string(out, to_string(report.status));
  if (report.status == Status::kInvalid) {
    out += ", \"message\": ";
    append_json_string(out, report.message);
  }
  if (report.diag.code != certify::Code::kNone) {
    out += cat(", \"diag\": ", certify::to_json(report.diag, g));
  }
  out += ", \"constraints\": [";
  for (std::size_t i = 0; i < report.slacks.size(); ++i) {
    const ConstraintSlack& s = report.slacks[i];
    if (i != 0) out += ", ";
    out += cat("{\"id\": ", s.edge.value(), ", \"kind\": \"",
               kind_label(s.kind), "\", \"from\": ");
    append_json_string(out, g.vertex(s.from).name);
    out += ", \"to\": ";
    append_json_string(out, g.vertex(s.to).name);
    out += cat(", \"bound\": ", s.bound, ", \"slack\": ", s.slack,
               ", \"zero_profile_margin\": ", s.zero_profile_margin,
               ", \"critical_anchor\": ");
    if (s.critical_anchor.is_valid()) {
      append_json_string(out, g.vertex(s.critical_anchor).name);
    } else {
      out += "null";
    }
    out += cat(", \"critical_offset\": ", s.critical_offset,
               ", \"tight_frames\": ", s.tight_frames, "}");
  }
  out += cat("], \"counts\": {\"constraints\": ", report.slacks.size(),
             ", \"binding\": ", report.binding_count(), "}");
  if (extraction != nullptr) {
    out += cat(", \"extraction\": {\"vertices\": ",
               extraction->subgraph.vertex_count(),
               ", \"edges\": ", extraction->subgraph.edge_count(),
               ", \"full_vertices\": ", extraction->full_vertices,
               ", \"full_edges\": ", extraction->full_edges,
               ", \"certified\": ",
               extraction->certified ? "true" : "false");
    if (!extraction->certification_error.empty()) {
      out += ", \"certification_error\": ";
      append_json_string(out, extraction->certification_error);
    }
    out += "}";
  }
  out += "}";
  return out;
}

int exit_code(const Report& report, const Extraction* extraction) {
  if (extraction != nullptr && !extraction->certified) return 1;
  switch (report.status) {
    case Status::kOk:
      return 0;
    case Status::kInvalid:
      return 2;
    case Status::kInfeasible:
      return 3;
    case Status::kIllPosed:
      return 4;
  }
  return 2;
}

}  // namespace relsched::analyze
