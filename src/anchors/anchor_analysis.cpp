#include "anchors/anchor_analysis.hpp"

#include <algorithm>
#include <functional>
#include <ostream>

#include "base/error.hpp"
#include "base/thread_pool.hpp"
#include "cg/longest_paths.hpp"

namespace relsched::anchors {

std::ostream& operator<<(std::ostream& os, const AnchorSetView& view) {
  os << '{';
  bool first = true;
  for (VertexId a : view) {
    if (!first) os << ", ";
    os << a;
    first = false;
  }
  return os << '}';
}

namespace {

/// Re-derives A(v) from its forward in-edges (u, v): the union of the
/// A(u), plus {u} when the edge carries the unbounded weight delta(u).
/// Equivalent to the paper's counter-based findAnchorSet traversal, one
/// word-parallel row merge per edge.
void derive_anchor_set(const cg::ConstraintGraph& g, AnchorSets& sets,
                       VertexId v) {
  sets.matrix.clear_row(v.index());
  for (EdgeId eid : g.in_edges(v)) {
    const cg::Edge& e = g.edge(eid);
    if (!cg::is_forward(e.kind)) continue;
    sets.matrix.merge_row(v.index(), e.from.index());
    if (g.weight(eid).unbounded) {
      sets.matrix.set(v.index(), sets.domain.index[e.from.index()]);
    }
  }
}

}  // namespace

AnchorSets find_anchor_sets(const cg::ConstraintGraph& g) {
  const auto topo = g.forward_topo_order();
  RELSCHED_CHECK(topo.has_value(), "find_anchor_sets requires an acyclic Gf");

  AnchorSets sets;
  sets.domain.anchors = g.anchors();
  sets.domain.index.assign(static_cast<std::size_t>(g.vertex_count()), -1);
  for (std::size_t i = 0; i < sets.domain.anchors.size(); ++i) {
    sets.domain.index[sets.domain.anchors[i].index()] = static_cast<int>(i);
  }
  sets.matrix.reset(g.vertex_count(), sets.domain.count());
  for (int node : *topo) derive_anchor_set(g, sets, VertexId(node));
  return sets;
}

AnchorSetView AnchorAnalysis::set(VertexId v, AnchorMode mode) const {
  switch (mode) {
    case AnchorMode::kFull:
      return anchor_set(v);
    case AnchorMode::kRelevant:
      return relevant_set(v);
    case AnchorMode::kIrredundant:
      return irredundant_set(v);
  }
  RELSCHED_CHECK(false, "unknown anchor mode");
  return anchor_set(v);  // unreachable
}

graph::Weight AnchorAnalysis::length(VertexId anchor, VertexId v) const {
  const int pos = sets_.domain.index[anchor.index()];
  RELSCHED_CHECK(pos >= 0, "length() queried for a non-anchor");
  if (length_from_.empty()) return graph::kNegInf;
  return length_from_[static_cast<std::size_t>(pos)].read()[v.index()];
}

const std::vector<graph::Weight>& AnchorAnalysis::length_row(
    VertexId anchor) const {
  const int pos = sets_.domain.index[anchor.index()];
  RELSCHED_CHECK(pos >= 0 && !length_from_.empty(),
                 "length_row() queried for a non-anchor");
  return length_from_[static_cast<std::size_t>(pos)].read();
}

void AnchorAnalysis::corrupt_length_row_for_testing(VertexId anchor,
                                                    int keep_prefix) {
  const int pos = sets_.domain.index[anchor.index()];
  if (pos < 0 || length_from_.empty()) return;
  std::vector<graph::Weight>& row =
      length_from_[static_cast<std::size_t>(pos)].write();
  for (std::size_t v = static_cast<std::size_t>(std::max(keep_prefix, 0));
       v < row.size(); ++v) {
    row[v] = graph::kNegInf;
  }
}

int AnchorAnalysis::rows_shared() const {
  int shared = 0;
  for (const Row& row : length_from_) shared += row.shared() ? 1 : 0;
  for (const Row& row : defining_from_) shared += row.shared() ? 1 : 0;
  return shared;
}

std::size_t AnchorAnalysis::total_anchor_set_size(AnchorMode mode) const {
  const base::BitMatrix* m = &sets_.matrix;
  if (mode == AnchorMode::kRelevant) m = &relevant_;
  if (mode == AnchorMode::kIrredundant) m = &irredundant_;
  std::size_t total = 0;
  for (int r = 0; r < m->rows(); ++r) {
    total += static_cast<std::size_t>(m->row_popcount(r));
  }
  return total;
}

namespace {

/// Deterministic parallel-for over [0, count). The body runs for every
/// index exactly once; contiguous index chunks are sharded across the
/// pool's threads (several chunks per thread, so drawing chunks from
/// the pool's shared counter evens out cost imbalance between e.g. a
/// whole-graph anchor cone and a leaf).
/// Ownership is the determinism argument: every output slot is written
/// by the one task that owns its index, as a pure function of inputs
/// that no task mutates, so the result is bit-identical to the
/// sequential loop at any thread count. Falls back to the inline loop
/// when there is no pool, the pool has width 1, or the pool is busy
/// with a job further up this call stack (an explorer candidate's
/// in-resolve analysis, say) -- try_run() declines instead of nesting.
void parallel_for(base::ThreadPool* pool, std::size_t count,
                  const std::function<void(std::size_t)>& body) {
  if (pool != nullptr && count > 1 && pool->thread_count() > 1) {
    const std::size_t chunks =
        std::min(count, static_cast<std::size_t>(pool->thread_count()) * 8);
    const std::function<void(int)> run_chunk = [&](int c) {
      const std::size_t begin = count * static_cast<std::size_t>(c) / chunks;
      const std::size_t end =
          count * (static_cast<std::size_t>(c) + 1) / chunks;
      for (std::size_t i = begin; i < end; ++i) body(i);
    };
    if (pool->try_run(static_cast<int>(chunks), run_chunk)) return;
  }
  for (std::size_t i = 0; i < count; ++i) body(i);
}

}  // namespace

AnchorAnalysis AnchorAnalysis::compute_anchor_sets_only(
    const cg::ConstraintGraph& g) {
  AnchorAnalysis a;
  a.sets_ = find_anchor_sets(g);
  a.relevant_.reset(g.vertex_count(), a.sets_.domain.count());
  a.irredundant_.reset(g.vertex_count(), a.sets_.domain.count());
  return a;
}

graph::Weight AnchorAnalysis::maximal_defining_path_length(VertexId anchor,
                                                           VertexId v) const {
  const int pos = sets_.domain.index[anchor.index()];
  RELSCHED_CHECK(pos >= 0, "defining path queried for a non-anchor");
  if (defining_from_.empty()) return graph::kNegInf;
  return defining_from_[static_cast<std::size_t>(pos)].read()[v.index()];
}

namespace {

/// Edges that can continue a defining path from `anchor` (Definition
/// 8): bounded ones, none out of the anchor -- the path starts with one
/// of its unbounded edges and cannot revisit it.
struct DefiningEdge {
  const cg::ConstraintGraph& g;
  VertexId anchor;
  bool operator()(const cg::Edge& e) const {
    return e.from != anchor && !g.weight(e.id).unbounded;
  }
};

/// Edge filter of the anchor's cone: both endpoints in
/// {anchor} union {v : anchor in A(v)}.
struct ConeEdge {
  const AnchorSets& sets;
  VertexId anchor;
  [[nodiscard]] bool contains(VertexId v) const {
    return v == anchor || sets.view(v).contains(anchor);
  }
  bool operator()(const cg::Edge& e) const {
    return contains(e.to) && contains(e.from);
  }
};

/// Longest paths from `anchor` over paths whose only unbounded edge is
/// the first: seeded at the heads of the anchor's unbounded out-edges
/// with distance 0 (delta(a) is excluded from defining-path lengths by
/// Definition 8).
std::vector<graph::Weight> defining_path_lengths(const cg::ConstraintGraph& g,
                                                 VertexId anchor) {
  std::vector<graph::Weight> dist(static_cast<std::size_t>(g.vertex_count()),
                                  graph::kNegInf);
  for (EdgeId eid : g.out_edges(anchor)) {
    if (g.weight(eid).unbounded) dist[g.edge(eid).to.index()] = 0;
  }
  (void)cg::relax_edges(g, g.edges(), DefiningEdge{g, anchor}, dist);
  // A vertex is its own anchor-set member never; the self entry only
  // reflects bounded cycles back into the anchor. Clear it.
  dist[anchor.index()] = graph::kNegInf;
  return dist;
}

/// Re-derives one per-anchor row at the affected vertices (reset and
/// seeded by the caller). Unaffected entries are already correct (a
/// path whose length changed uses an edited edge, so its endpoint is
/// affected) and act as fixed boundary values; a path entering the
/// out-closed affected cone stays inside, so topological sweeps
/// converge after one per backward-edge hop, plus one to confirm.
template <class Keep>
void patch_row(const cg::ConstraintGraph& g, const UpdatePlan& plan,
               Keep keep, std::vector<graph::Weight>& dist) {
  const bool converged = cg::relax_in_order(
      g, plan.affected_topo, keep, dist,
      static_cast<int>(plan.affected_topo.size()) + 1);
  RELSCHED_CHECK(converged, "anchor analysis requires a feasible graph");
}

}  // namespace

std::vector<graph::Weight> cone_longest_paths(const cg::ConstraintGraph& g,
                                              const AnchorSets& anchor_sets,
                                              VertexId anchor,
                                              std::vector<EdgeId>* pred) {
  const ConeEdge in_cone{anchor_sets, anchor};
  std::vector<cg::Edge> cone_edges;
  for (const cg::Edge& e : g.edges()) {
    if (in_cone(e)) cone_edges.push_back(e);
  }
  std::vector<graph::Weight> dist(static_cast<std::size_t>(g.vertex_count()),
                                  graph::kNegInf);
  dist[anchor.index()] = 0;
  if (pred != nullptr) {
    pred->assign(static_cast<std::size_t>(g.vertex_count()), EdgeId::invalid());
  }
  const cg::RelaxResult r =
      cg::relax_edges(g, cone_edges, [](const cg::Edge&) { return true; },
                      dist, {.pred = pred, .probe = true});
  RELSCHED_CHECK(!r.positive_cycle,
                 "anchor analysis requires a feasible graph");
  return dist;
}

/// minimumAnchor (paper §IV-D) at one vertex: x in R(v) is redundant if
/// some relevant anchor r in R(v) with x in A(r) satisfies
///   length(x, v) <= length(x, r) + length(r, v).
void AnchorAnalysis::compute_irredundant_at(VertexId v) {
  const AnchorSetView rel = relevant_set(v);
  irredundant_.clear_row(v.index());
  for (VertexId x : rel) {
    bool redundant = false;
    for (VertexId r : rel) {
      if (r == x) continue;
      if (!anchor_set(r).contains(x)) continue;
      if (length(x, r) == graph::kNegInf || length(r, v) == graph::kNegInf) {
        continue;
      }
      if (length(x, v) <= length(x, r) + length(r, v)) {
        redundant = true;
        break;
      }
    }
    if (!redundant) {
      irredundant_.set(v.index(), sets_.domain.index[x.index()]);
    }
  }
}

AnchorAnalysis AnchorAnalysis::compute(const cg::ConstraintGraph& g,
                                       base::ThreadPool* pool) {
  AnchorAnalysis a = compute_anchor_sets_only(g);
  const std::vector<VertexId>& anchors = a.sets_.domain.anchors;
  const std::size_t num_anchors = anchors.size();
  const int n = g.vertex_count();

  // Maximal defining path lengths (Definition 10). Each anchor's row
  // is a pure function of (g, anchor), written to the slot that anchor
  // owns.
  a.defining_from_.resize(num_anchors);
  parallel_for(pool, num_anchors, [&](std::size_t i) {
    a.defining_from_[i] = Row(defining_path_lengths(g, anchors[i]));
  });

  // R(v): x in R(v) iff a defining path from x reaches v, i.e.
  // defining_from_[x][v] is finite (Definition 9 -- the same
  // equivalence update() patches membership from; the paper's
  // relevantAnchor traversal in §IV-D visits exactly the vertices with
  // a finite entry). Derived per *vertex* so each task owns one bit
  // row: BitMatrix rows occupy disjoint word ranges, so no two tasks
  // ever touch the same word.
  parallel_for(pool, static_cast<std::size_t>(n), [&](std::size_t vi) {
    for (std::size_t i = 0; i < num_anchors; ++i) {
      if (a.defining_from_[i].read()[vi] != graph::kNegInf) {
        a.relevant_.set(static_cast<int>(vi), static_cast<int>(i));
      }
    }
  });

  // Cone-restricted longest paths (see cone_longest_paths): equals the
  // minimum offset sigma_a^min(v) by Theorem 3.
  a.length_from_.resize(num_anchors);
  parallel_for(pool, num_anchors, [&](std::size_t i) {
    a.length_from_[i] = Row(cone_longest_paths(g, a.sets_, anchors[i]));
  });
  a.rows_recomputed_ = static_cast<int>(num_anchors);

  // IR(v) writes only vertex v's bit row and reads state that is
  // immutable from here on.
  parallel_for(pool, static_cast<std::size_t>(n), [&](std::size_t vi) {
    a.compute_irredundant_at(VertexId(static_cast<int>(vi)));
  });
  return a;
}

void AnchorAnalysis::update(const cg::ConstraintGraph& g,
                            const UpdatePlan& plan,
                            base::ThreadPool* pool) {
  RELSCHED_CHECK(plan.affected != nullptr, "update() needs the affected mask");
  const int n = g.vertex_count();
  RELSCHED_CHECK(sets_.matrix.rows() == n, "update() vertex sets out of sync");
  // The anchor population is fixed: structural edits (vertex additions,
  // bounded<->unbounded flips) force a cold compute() upstream.
  const std::vector<VertexId>& anchors = sets_.domain.anchors;
  const std::size_t num_anchors = anchors.size();
  const std::size_t words = sets_.domain.word_count();
  rows_recomputed_ = 0;

  // A(v): only a changed Gf edge set can change anchor sets, and every
  // changed value lies in the affected cone (any new/dead forward path
  // through an edit reaches v only if v is reachable from a seed).
  // Re-derive affected vertices in topological order over the edited
  // graph; unaffected in-neighbours contribute their kept rows. The
  // row-reuse criterion below needs the *pre-edit* sets at the seeds,
  // so save those rows first.
  std::vector<std::uint64_t> prev_seed_rows(plan.seeds.size() * words);
  for (std::size_t si = 0; si < plan.seeds.size(); ++si) {
    const std::uint64_t* row = sets_.matrix.row(plan.seeds[si].index());
    std::copy(row, row + words, prev_seed_rows.data() + si * words);
  }
  if (plan.forward_changed) {
    for (VertexId v : plan.affected_topo) derive_anchor_set(g, sets_, v);
  }

  // Which per-anchor rows (defining-path lengths + cone longest paths)
  // must be recomputed? Anchor x's row can only change if some path
  // counted in it gains/loses/reweighs an edge, i.e. some edit seed s
  // lies on such a path -- then s sits in x's cone or defining region
  // (old or new), detectable from the row values at s. The anchor
  // itself being affected covers cone growth through x (s upstream of
  // x), and s == x covers edits incident to the anchor. Evaluated
  // before any row is overwritten.
  const auto seed_bit = [&](std::size_t si, int col) {
    return ((prev_seed_rows[si * words +
                            static_cast<std::size_t>(col) / base::kBitsPerWord] >>
             (static_cast<unsigned>(col) % base::kBitsPerWord)) &
            1u) != 0;
  };
  std::vector<bool> touched(num_anchors, false);
  for (std::size_t i = 0; i < num_anchors; ++i) {
    const VertexId x = anchors[i];
    if (plan.affected->contains(x)) {
      touched[i] = true;
      continue;
    }
    for (std::size_t si = 0; si < plan.seeds.size(); ++si) {
      const VertexId s = plan.seeds[si];
      if (s == x || anchor_set(s).contains(x) ||
          seed_bit(si, static_cast<int>(i)) ||
          defining_from_[i].read()[s.index()] != graph::kNegInf ||
          length_from_[i].read()[s.index()] != graph::kNegInf) {
        touched[i] = true;
        break;
      }
    }
  }

  // write() unshares a row from any fork parent before patching it;
  // untouched rows stay physically shared. Each touched anchor's pair
  // of rows is patched by exactly one task (disjoint copy-on-write
  // cells, per the cow.hpp contract), so sharding the loop is
  // bit-identical to running it sequentially.
  std::vector<std::size_t> touched_rows;
  for (std::size_t i = 0; i < num_anchors; ++i) {
    if (touched[i]) touched_rows.push_back(i);
  }
  rows_recomputed_ = static_cast<int>(touched_rows.size());
  parallel_for(pool, touched_rows.size(), [&](std::size_t k) {
    const std::size_t i = touched_rows[k];
    const VertexId x = anchors[i];
    std::vector<graph::Weight>& defining = defining_from_[i].write();
    std::vector<graph::Weight>& length = length_from_[i].write();
    for (VertexId v : plan.affected_topo) {
      defining[v.index()] = length[v.index()] = graph::kNegInf;
    }
    for (EdgeId eid : g.out_edges(x)) {
      const VertexId head = g.edge(eid).to;
      if (g.weight(eid).unbounded && plan.affected->contains(head)) {
        defining[head.index()] = 0;
      }
    }
    if (plan.affected->contains(x)) length[x.index()] = 0;
    patch_row(g, plan, DefiningEdge{g, x}, defining);
    defining[x.index()] = graph::kNegInf;
    patch_row(g, plan, ConeEdge{sets_, x}, length);
  });

  // R(v): by construction x in R(v) iff a defining path from x reaches
  // v, i.e. defining_from_[x][v] is finite (the same equivalence
  // compute() derives R from). Patch membership from the fresh rows;
  // only touched anchors' membership at affected vertices can differ.
  // Per-vertex tasks own disjoint bit rows.
  parallel_for(pool, plan.affected_topo.size(), [&](std::size_t k) {
    const VertexId v = plan.affected_topo[k];
    for (std::size_t i = 0; i < num_anchors; ++i) {
      if (!touched[i]) continue;
      if (defining_from_[i].read()[v.index()] != graph::kNegInf) {
        relevant_.set(v.index(), static_cast<int>(i));
      } else {
        relevant_.clear(v.index(), static_cast<int>(i));
      }
    }
  });

  // IR(v): the redundancy test at v reads length(x, v), length(x, r)
  // and length(r, v) for x, r in R(v). Only affected vertices need it:
  // r in R(v) means a path r ~> v, and the cone is out-closed, so an
  // unaffected v has no affected anchor in R(v) and keeps its inputs.
  parallel_for(pool, plan.affected_topo.size(), [&](std::size_t k) {
    compute_irredundant_at(plan.affected_topo[k]);
  });
}

}  // namespace relsched::anchors
