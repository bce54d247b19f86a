// Equivalence property for the incremental synthesis engine: for random
// well-posed graphs and random edit sequences (constraint insertion,
// removal, re-weighting), a SynthesisSession resolved after each edit
// produces *bit-identical* products to a cold recompute of the edited
// graph -- same status and message, same A / R / IR sets, same
// anchor-to-vertex path lengths, same schedule offsets. Edits are free
// to drive the graph infeasible or ill-posed and back; the session must
// agree with the cold pipeline at every step.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "base/thread_pool.hpp"
#include "cg/graph_io.hpp"
#include "engine/session.hpp"
#include "graph/algorithms.hpp"
#include "testutil.hpp"
#include "wellposed/wellposed.hpp"

namespace relsched::engine {
namespace {

/// The cold pipeline the session must match: exactly the sequence
/// cold_resolve() runs, on an independent copy of the graph.
struct ColdProducts {
  sched::ScheduleStatus status = sched::ScheduleStatus::kInvalidGraph;
  std::string message;
  std::optional<anchors::AnchorAnalysis> analysis;
  sched::RelativeSchedule schedule;
};

ColdProducts cold_pipeline(const cg::ConstraintGraph& g,
                           anchors::AnchorMode mode) {
  ColdProducts c;
  if (const auto issues = g.validate(); !issues.empty()) {
    c.status = sched::ScheduleStatus::kInvalidGraph;
    c.message = issues.front().message;
    return c;
  }
  if (!wellposed::is_feasible(g)) {
    c.status = sched::ScheduleStatus::kInfeasible;
    c.message = "positive cycle with unbounded delays set to 0";
    return c;
  }
  c.analysis = anchors::AnchorAnalysis::compute(g);
  const auto wp = wellposed::check(g, c.analysis->anchor_sets());
  if (wp.status == wellposed::Status::kIllPosed) {
    c.status = sched::ScheduleStatus::kIllPosed;
    c.message = wp.message;
    return c;
  }
  sched::ScheduleOptions sopts;
  sopts.mode = mode;
  sopts.prechecks = false;
  auto result = sched::schedule(g, *c.analysis, sopts);
  c.status = result.status;
  c.message = result.message;
  c.schedule = std::move(result.schedule);
  return c;
}

void expect_equivalent(const Products& p, const ColdProducts& c,
                       const cg::ConstraintGraph& g, int step) {
  ASSERT_EQ(p.schedule.status, c.status) << "edit step " << step;
  EXPECT_EQ(p.schedule.message, c.message) << "edit step " << step;
  if (c.analysis.has_value() &&
      p.schedule.status != sched::ScheduleStatus::kInfeasible) {
    const anchors::AnchorAnalysis& cold = *c.analysis;
    const anchors::AnchorAnalysis& warm = p.analysis;
    ASSERT_EQ(warm.anchors(), cold.anchors()) << "edit step " << step;
    for (int vi = 0; vi < g.vertex_count(); ++vi) {
      const VertexId v(vi);
      EXPECT_EQ(warm.anchor_set(v), cold.anchor_set(v))
          << "A(v" << vi << "), edit step " << step;
      EXPECT_EQ(warm.relevant_set(v), cold.relevant_set(v))
          << "R(v" << vi << "), edit step " << step;
      EXPECT_EQ(warm.irredundant_set(v), cold.irredundant_set(v))
          << "IR(v" << vi << "), edit step " << step;
      for (VertexId a : cold.anchors()) {
        EXPECT_EQ(warm.length(a, v), cold.length(a, v))
            << "length(v" << a << ", v" << vi << "), edit step " << step;
        EXPECT_EQ(warm.maximal_defining_path_length(a, v),
                  cold.maximal_defining_path_length(a, v))
            << "|rho*(v" << a << ", v" << vi << ")|, edit step " << step;
      }
    }
  }
  if (p.ok()) {
    for (int vi = 0; vi < g.vertex_count(); ++vi) {
      const VertexId v(vi);
      EXPECT_EQ(p.schedule.schedule.offsets(v), c.schedule.offsets(v))
          << "offsets(v" << vi << "), edit step " << step;
    }
  }
}

/// One concrete edit chosen by the generator, decoupled from any
/// particular session so identical edits can be mirrored onto several
/// sessions (transaction-vs-per-edit equivalence below).
struct EditSpec {
  enum class Kind { kAddMax, kAddMin, kSetBound, kRemove };
  Kind kind = Kind::kSetBound;
  VertexId from = VertexId::invalid();
  VertexId to = VertexId::invalid();
  EdgeId edge = EdgeId::invalid();
  int cycles = 0;
};

void apply_edit(SynthesisSession& session, const EditSpec& e) {
  switch (e.kind) {
    case EditSpec::Kind::kAddMax:
      session.add_max_constraint(e.from, e.to, e.cycles);
      return;
    case EditSpec::Kind::kAddMin:
      session.add_min_constraint(e.from, e.to, e.cycles);
      return;
    case EditSpec::Kind::kSetBound:
      session.set_constraint_bound(e.edge, e.cycles);
      return;
    case EditSpec::Kind::kRemove:
      session.remove_constraint(e.edge);
      return;
  }
}

/// Whether remove_constraint(e) keeps polarity: a min constraint must
/// not be its tail's only forward out-edge or its head's only forward
/// in-edge.
bool removable(const cg::ConstraintGraph& g, const cg::Edge& e) {
  if (e.kind == cg::EdgeKind::kMaxConstraint) return true;
  if (e.kind != cg::EdgeKind::kMinConstraint) return false;
  int tail_out = 0, head_in = 0;
  for (EdgeId oe : g.out_edges(e.from)) {
    if (cg::is_forward(g.edge(oe).kind)) ++tail_out;
  }
  for (EdgeId ie : g.in_edges(e.to)) {
    if (cg::is_forward(g.edge(ie).kind)) ++head_in;
  }
  return tail_out > 1 && head_in > 1;
}

/// Picks one random journaled edit applicable to `g`; nullopt when no
/// applicable edit was found (caller skips the step).
std::optional<EditSpec> pick_random_edit(const cg::ConstraintGraph& g,
                                         std::mt19937& rng) {
  const graph::Digraph forward = g.project_forward();
  EditSpec spec;

  switch (rng() % 4) {
    case 0: {  // add a max constraint between comparable vertices
      const VertexId from(static_cast<int>(
          rng() % static_cast<unsigned>(std::max(1, g.vertex_count() - 1))));
      const auto lp = graph::longest_paths_from(forward, from.value());
      if (lp.positive_cycle) return std::nullopt;
      std::vector<VertexId> reachable;
      for (int vi = 0; vi < g.vertex_count(); ++vi) {
        if (vi != from.value() && lp.dist[static_cast<std::size_t>(vi)] !=
                                      graph::kNegInf) {
          reachable.push_back(VertexId(vi));
        }
      }
      if (reachable.empty()) return std::nullopt;
      spec.kind = EditSpec::Kind::kAddMax;
      spec.from = from;
      spec.to = reachable[rng() % reachable.size()];
      // Slack 0..5 keeps most additions feasible; tightening below
      // drives some of them infeasible.
      spec.cycles = static_cast<int>(lp.dist[spec.to.index()]) +
                    static_cast<int>(rng() % 6);
      return spec;
    }
    case 1: {  // add a min constraint along the topological order
      const auto topo = graph::topological_order(forward);
      if (!topo.has_value() || topo->size() < 2) return std::nullopt;
      const std::size_t i = rng() % (topo->size() - 1);
      const std::size_t j = i + 1 + rng() % (topo->size() - 1 - i);
      // Tail precedes head in a topological order, so the new forward
      // edge cannot close a cycle.
      spec.kind = EditSpec::Kind::kAddMin;
      spec.from = VertexId((*topo)[i]);
      spec.to = VertexId((*topo)[j]);
      spec.cycles = static_cast<int>(rng() % 5);
      return spec;
    }
    case 2: {  // re-weight a constraint edge by +-1
      std::vector<EdgeId> constraints;
      for (const cg::Edge& e : g.edges()) {
        if (e.kind != cg::EdgeKind::kSequencing) constraints.push_back(e.id);
      }
      if (constraints.empty()) return std::nullopt;
      spec.kind = EditSpec::Kind::kSetBound;
      spec.edge = constraints[rng() % constraints.size()];
      const int bound = std::abs(g.edge(spec.edge).fixed_weight);
      spec.cycles = std::max(0, bound + static_cast<int>(rng() % 3) - 1);
      return spec;
    }
    default: {  // remove a constraint edge (respecting polarity guards)
      std::vector<EdgeId> candidates;
      for (const cg::Edge& e : g.edges()) {
        if (removable(g, e)) candidates.push_back(e.id);
      }
      if (candidates.empty()) return std::nullopt;
      spec.kind = EditSpec::Kind::kRemove;
      spec.edge = candidates[rng() % candidates.size()];
      return spec;
    }
  }
}

/// Applies one random journaled edit through the session. Returns false
/// when no applicable edit was found (caller skips the step).
bool random_edit(SynthesisSession& session, std::mt19937& rng) {
  const auto spec = pick_random_edit(session.graph(), rng);
  if (!spec.has_value()) return false;
  apply_edit(session, *spec);
  return true;
}

/// Bit-identical comparison of two sessions' products (transaction
/// commit vs. one-resolve-per-edit). Infeasible and invalid-graph
/// products carry a default-constructed analysis on both paths, so the
/// per-vertex comparisons only run when an analysis was computed.
void expect_sessions_match(const Products& a, const Products& b,
                           const cg::ConstraintGraph& g, int batch) {
  ASSERT_EQ(a.revision, b.revision) << "batch " << batch;
  ASSERT_EQ(a.schedule.status, b.schedule.status) << "batch " << batch;
  EXPECT_EQ(a.schedule.message, b.schedule.message) << "batch " << batch;
  ASSERT_EQ(a.analysis.anchors(), b.analysis.anchors()) << "batch " << batch;
  if (a.schedule.status == sched::ScheduleStatus::kInfeasible ||
      a.schedule.status == sched::ScheduleStatus::kInvalidGraph) {
    return;  // no analysis behind these statuses
  }
  for (int vi = 0; vi < g.vertex_count(); ++vi) {
    const VertexId v(vi);
    EXPECT_EQ(a.analysis.anchor_set(v), b.analysis.anchor_set(v))
        << "A(v" << vi << "), batch " << batch;
    EXPECT_EQ(a.analysis.irredundant_set(v), b.analysis.irredundant_set(v))
        << "IR(v" << vi << "), batch " << batch;
    for (VertexId anchor : a.analysis.anchors()) {
      EXPECT_EQ(a.analysis.length(anchor, v), b.analysis.length(anchor, v))
          << "length(v" << anchor << ", v" << vi << "), batch " << batch;
    }
    if (a.ok() && b.ok()) {
      EXPECT_EQ(a.schedule.schedule.offsets(v), b.schedule.schedule.offsets(v))
          << "offsets(v" << vi << "), batch " << batch;
    }
  }
}

class EngineProperties : public ::testing::TestWithParam<unsigned> {};

TEST_P(EngineProperties, IncrementalResolveMatchesColdRecompute) {
  std::mt19937 rng(GetParam());
  int corpora = 0;
  int warm_total = 0;
  for (int trial = 0; trial < 80; ++trial) {
    relsched::testing::RandomGraphParams params;
    params.vertex_count = 8 + static_cast<int>(rng() % 14);
    params.unbounded_fraction = 0.15 + 0.2 * (rng() % 3);
    params.max_constraints = 1 + static_cast<int>(rng() % 3);
    auto g = relsched::testing::random_constraint_graph(rng, params);
    if (!g.validate().empty()) continue;
    if (wellposed::make_wellposed(g).status != wellposed::Status::kWellPosed) {
      continue;
    }

    const auto mode = static_cast<anchors::AnchorMode>(rng() % 3);
    SessionOptions opts;
    opts.schedule_mode = mode;
    SynthesisSession session(std::move(g), opts);
    if (!session.resolve().ok()) continue;
    ++corpora;

    for (int step = 0; step < 10; ++step) {
      if (!random_edit(session, rng)) continue;
      const Products& products = session.resolve();
      const ColdProducts cold = cold_pipeline(session.graph(), mode);
      expect_equivalent(products, cold, session.graph(), step);
      if (::testing::Test::HasFatalFailure()) return;
    }
    warm_total += session.stats().warm_resolves;
  }
  EXPECT_GT(corpora, 5) << "corpus too thin for seed " << GetParam();
  EXPECT_GT(warm_total, 10) << "edit sequences never exercised the warm path";
}

TEST_P(EngineProperties, ResolveIsIdempotentAndCached) {
  std::mt19937 rng(GetParam());
  relsched::testing::RandomGraphParams params;
  std::optional<cg::ConstraintGraph> graph;
  for (int trial = 0; trial < 40 && !graph.has_value(); ++trial) {
    auto g = relsched::testing::random_constraint_graph(rng, params);
    if (g.validate().empty() && wellposed::make_wellposed(g).status ==
                                    wellposed::Status::kWellPosed) {
      graph = std::move(g);
    }
  }
  ASSERT_TRUE(graph.has_value()) << "no well-posed graph in 40 trials";
  SynthesisSession session(std::move(*graph), {});
  const Products& first = session.resolve();
  const std::uint64_t revision = first.revision;
  const int colds = session.stats().cold_resolves;
  // No edits: resolve() must be a cached no-op.
  const Products& second = session.resolve();
  EXPECT_EQ(second.revision, revision);
  EXPECT_EQ(session.stats().cold_resolves, colds);
  EXPECT_EQ(session.stats().warm_resolves, 0);
}

// A session committing whole transactions must be bit-identical to a
// session resolving after every single edit, at every commit boundary
// -- even when the edits inside a batch pass through infeasible or
// ill-posed intermediate states that the per-edit session materializes
// and the transaction never does. Also checks the cone-coalescing
// accounting: the merged cone never exceeds the sum of the per-edit
// cones, with equality for single-edit (trivially disjoint) batches.
TEST_P(EngineProperties, TransactionsMatchPerEditResolves) {
  std::mt19937 rng(GetParam() * 7919u + 17u);
  int corpora = 0;
  int commits = 0;
  int overlapping = 0;
  for (int trial = 0; trial < 40; ++trial) {
    relsched::testing::RandomGraphParams params;
    params.vertex_count = 8 + static_cast<int>(rng() % 14);
    params.max_constraints = 1 + static_cast<int>(rng() % 3);
    auto g = relsched::testing::random_constraint_graph(rng, params);
    if (!g.validate().empty()) continue;
    if (wellposed::make_wellposed(g).status != wellposed::Status::kWellPosed) {
      continue;
    }
    const auto mode = static_cast<anchors::AnchorMode>(rng() % 3);
    SessionOptions opts;
    opts.schedule_mode = mode;
    cg::ConstraintGraph mirror = g;  // identical copy, identical edge ids
    SynthesisSession txn(std::move(g), opts);
    SynthesisSession step(std::move(mirror), opts);
    if (!txn.resolve().ok()) continue;
    step.resolve();
    ++corpora;

    for (int batch = 0; batch < 6; ++batch) {
      const int want = 1 + static_cast<int>(rng() % 4);
      txn.begin_txn();
      ASSERT_TRUE(txn.in_txn());
      int applied = 0;
      for (int j = 0; j < want; ++j) {
        // Both graphs are identical at every point, so a spec picked on
        // the transaction's graph applies verbatim to the mirror.
        const auto spec = pick_random_edit(txn.graph(), rng);
        if (!spec.has_value()) continue;
        apply_edit(txn, *spec);
        apply_edit(step, *spec);
        step.resolve();  // materializes every intermediate state
        ++applied;
      }
      const Products& committed = txn.commit();
      ++commits;

      const SessionStats stats = txn.stats();
      EXPECT_EQ(stats.last_txn_edits, applied);
      EXPECT_LE(stats.last_merged_cone_vertices, stats.last_cone_vertices_sum);
      if (applied == 1) {
        EXPECT_EQ(stats.last_merged_cone_vertices,
                  stats.last_cone_vertices_sum);
      }
      if (stats.last_merged_cone_vertices < stats.last_cone_vertices_sum) {
        ++overlapping;
      }

      expect_sessions_match(committed, step.products(), txn.graph(), batch);
      expect_equivalent(committed, cold_pipeline(txn.graph(), mode),
                        txn.graph(), batch);
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_EQ(txn.stats().transactions, 6);
  }
  EXPECT_GT(corpora, 3) << "corpus too thin for seed " << GetParam();
  EXPECT_GT(commits, 18) << "too few transactions committed";
  EXPECT_GT(overlapping, 0) << "no batch ever coalesced overlapping cones";
}

// Parallel anchor analysis must be bit-identical to sequential at any
// thread count -- including when an armed fault corrupts the warm
// state mid-resolve and certification rejects it. Three sessions (1
// thread, a 2-worker pool, an 8-worker pool) receive identical edit
// sequences and identical armed faults drawn from the whole
// FaultInjector matrix; their products must match after every resolve,
// and the certifier must catch the same faults on every path.
TEST_P(EngineProperties, ParallelResolveMatchesSequentialUnderFaults) {
  std::mt19937 rng(GetParam() * 2654435761u + 9u);
  const FaultInjector::Kind kinds[] = {
      FaultInjector::Kind::kNone,
      FaultInjector::Kind::kCorruptPotential,
      FaultInjector::Kind::kFlipDirtyBit,
      FaultInjector::Kind::kDropJournalEntry,
      FaultInjector::Kind::kTruncateAnchorRow,
  };
  const auto pool2 = std::make_shared<base::ThreadPool>(2);
  const auto pool8 = std::make_shared<base::ThreadPool>(8);

  int corpora = 0;
  long long caught = 0;
  for (int trial = 0; trial < 80; ++trial) {
    relsched::testing::RandomGraphParams params;
    params.vertex_count = 10 + static_cast<int>(rng() % 14);
    params.unbounded_fraction = 0.15 + 0.2 * (rng() % 3);
    params.max_constraints = 1 + static_cast<int>(rng() % 3);
    auto g = relsched::testing::random_constraint_graph(rng, params);
    if (!g.validate().empty()) continue;
    if (wellposed::make_wellposed(g).status != wellposed::Status::kWellPosed) {
      continue;
    }

    SessionOptions opts;
    opts.certify = true;  // a fired fault must be caught, not propagated
    opts.threads = 1;
    cg::ConstraintGraph copy2 = g, copy8 = g;
    SynthesisSession seq(std::move(g), opts);
    opts.threads = 0;
    opts.pool = pool2;
    SynthesisSession par2(std::move(copy2), opts);
    opts.pool = pool8;
    SynthesisSession par8(std::move(copy8), opts);
    if (!seq.resolve().ok()) continue;
    par2.resolve();
    par8.resolve();
    ++corpora;

    for (int step = 0; step < 12; ++step) {
      const auto spec = pick_random_edit(seq.graph(), rng);
      if (!spec.has_value()) continue;
      apply_edit(seq, *spec);
      apply_edit(par2, *spec);
      apply_edit(par8, *spec);

      FaultInjector fault;
      fault.kind = kinds[rng() % (sizeof kinds / sizeof kinds[0])];
      fault.seed = rng();
      seq.arm_fault(fault);
      par2.arm_fault(fault);
      par8.arm_fault(fault);

      seq.resolve();
      par2.resolve();
      par8.resolve();
      expect_sessions_match(seq.products(), par2.products(), seq.graph(),
                            step);
      expect_sessions_match(seq.products(), par8.products(), seq.graph(),
                            step);
      if (::testing::Test::HasFatalFailure()) return;
    }
    // The certifier's verdicts are part of the determinism contract:
    // every thread count catches exactly the same injected faults.
    EXPECT_EQ(seq.stats().certificate_failures,
              par2.stats().certificate_failures);
    EXPECT_EQ(seq.stats().certificate_failures,
              par8.stats().certificate_failures);
    caught += seq.stats().certificate_failures;
  }
  EXPECT_GT(corpora, 3) << "corpus too thin for seed " << GetParam();
  EXPECT_GT(caught, 0) << "no injected fault was ever caught";
}

/// One vertex's products, copied out by value so that the next warm
/// resolve's in-place patch cannot alias them.
struct VertexProducts {
  std::vector<VertexId> anchor_set, relevant_set, irredundant_set;
  /// length(a, v) and |rho*(a, v)| per anchor, in anchors() order.
  std::vector<graph::Weight> length, defining;
  sched::OffsetMap offsets;
};

/// Offsets are copied only from ok() products; failure statuses carry
/// no schedule.
std::vector<VertexProducts> snapshot(const Products& p,
                                     const cg::ConstraintGraph& g) {
  std::vector<VertexProducts> out(static_cast<std::size_t>(g.vertex_count()));
  for (int vi = 0; vi < g.vertex_count(); ++vi) {
    const VertexId v(vi);
    VertexProducts& s = out[v.index()];
    for (const VertexId a : p.analysis.anchor_set(v)) s.anchor_set.push_back(a);
    for (const VertexId a : p.analysis.relevant_set(v)) {
      s.relevant_set.push_back(a);
    }
    for (const VertexId a : p.analysis.irredundant_set(v)) {
      s.irredundant_set.push_back(a);
    }
    for (const VertexId a : p.analysis.anchors()) {
      s.length.push_back(p.analysis.length(a, v));
      s.defining.push_back(p.analysis.maximal_defining_path_length(a, v));
    }
    if (p.ok()) s.offsets = p.schedule.schedule.offsets(v);
  }
  return out;
}

// The dirty-cone contract behind SynthesisSession::last_dirty_cone():
// after a warm resolve or a warm commit, every vertex outside the
// published cone keeps its products bit-for-bit -- A, R and IR sets,
// length and defining rows, and kFull offsets. The anchor patch relies
// on it too: it re-derives IR only inside the cone.
TEST_P(EngineProperties, NothingOutsideTheDirtyConeChanges) {
  std::mt19937 rng(GetParam() * 40503u + 3u);
  int warm_checks = 0;
  long long outside = 0;
  for (int trial = 0; trial < 150; ++trial) {
    relsched::testing::RandomGraphParams params;
    params.vertex_count = 10 + static_cast<int>(rng() % 14);
    params.unbounded_fraction = 0.15 + 0.2 * (rng() % 3);
    params.max_constraints = 1 + static_cast<int>(rng() % 3);
    auto g = relsched::testing::random_constraint_graph(rng, params);
    if (!g.validate().empty()) continue;
    if (wellposed::make_wellposed(g).status != wellposed::Status::kWellPosed) {
      continue;
    }
    SessionOptions opts;
    opts.schedule_mode = anchors::AnchorMode::kFull;
    SynthesisSession session(std::move(g), opts);
    if (!session.resolve().ok()) continue;

    for (int step = 0; step < 12; ++step) {
      // The warm path only starts from ok() products; anything else
      // resolves cold and publishes no cone.
      const bool was_ok = session.products().ok();
      const std::vector<VertexId> anchors_before =
          session.products().analysis.anchors();
      const std::vector<VertexProducts> before =
          was_ok ? snapshot(session.products(), session.graph())
                 : std::vector<VertexProducts>{};
      // Every third step commits a multi-edit transaction (one merged
      // cone); the rest resolve a single edit.
      int applied = 0;
      if (step % 3 == 2) {
        session.begin_txn();
        for (int j = 0; j < 3; ++j) {
          applied += random_edit(session, rng) ? 1 : 0;
        }
        session.commit();
      } else {
        applied = random_edit(session, rng) ? 1 : 0;
        session.resolve();
      }
      const Products& p = session.products();
      if (applied == 0 || !was_ok || !session.last_resolve_was_warm() ||
          p.schedule.status == sched::ScheduleStatus::kInfeasible ||
          p.schedule.status == sched::ScheduleStatus::kInvalidGraph) {
        continue;
      }
      ++warm_checks;
      ASSERT_EQ(p.analysis.anchors(), anchors_before) << "step " << step;
      const std::vector<VertexProducts> after = snapshot(p, session.graph());
      std::vector<bool> in_cone(after.size(), false);
      for (const VertexId v : session.last_dirty_cone()) {
        in_cone[v.index()] = true;
      }
      for (std::size_t vi = 0; vi < after.size(); ++vi) {
        if (in_cone[vi]) continue;
        ++outside;
        const VertexProducts& b = before[vi];
        const VertexProducts& a = after[vi];
        EXPECT_EQ(a.anchor_set, b.anchor_set) << "A(v" << vi << ")";
        EXPECT_EQ(a.relevant_set, b.relevant_set) << "R(v" << vi << ")";
        EXPECT_EQ(a.irredundant_set, b.irredundant_set) << "IR(v" << vi << ")";
        EXPECT_EQ(a.length, b.length) << "length rows at v" << vi;
        EXPECT_EQ(a.defining, b.defining) << "defining rows at v" << vi;
        if (p.ok()) {
          EXPECT_EQ(a.offsets, b.offsets) << "offsets(v" << vi << ")";
        }
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
  EXPECT_GT(warm_checks, 40) << "too few warm resolves for seed " << GetParam();
  EXPECT_GT(outside, 0) << "every cone covered the whole graph";
}

/// True when a forward path leads from `from` to `to` in `g`.
bool forward_reaches(const cg::ConstraintGraph& g, VertexId from,
                     VertexId to) {
  std::vector<bool> seen(static_cast<std::size_t>(g.vertex_count()), false);
  std::vector<VertexId> stack = {from};
  seen[from.index()] = true;
  while (!stack.empty()) {
    const VertexId v = stack.back();
    stack.pop_back();
    if (v == to) return true;
    for (EdgeId eid : g.out_edges(v)) {
      const cg::Edge& e = g.edge(eid);
      if (cg::is_forward(e.kind) && !seen[e.to.index()]) {
        seen[e.to.index()] = true;
        stack.push_back(e.to);
      }
    }
  }
  return false;
}

/// `order` is a permutation of g's vertices under which every forward
/// edge points forward.
::testing::AssertionResult is_forward_order(const cg::ConstraintGraph& g,
                                            const std::vector<int>& order) {
  const std::size_t n = static_cast<std::size_t>(g.vertex_count());
  if (order.size() != n) {
    return ::testing::AssertionFailure()
           << "order lists " << order.size() << " of " << n << " vertices";
  }
  std::vector<int> pos(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    const int v = order[i];
    if (v < 0 || static_cast<std::size_t>(v) >= n ||
        pos[static_cast<std::size_t>(v)] != -1) {
      return ::testing::AssertionFailure()
             << "not a permutation at position " << i;
    }
    pos[static_cast<std::size_t>(v)] = static_cast<int>(i);
  }
  for (const cg::Edge& e : g.edges()) {
    if (cg::is_forward(e.kind) && pos[e.from.index()] >= pos[e.to.index()]) {
      return ::testing::AssertionFailure()
             << "forward edge v" << e.from << " -> v" << e.to
             << " points backward";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Removes one min constraint from -> to, if one exists and polarity
/// allows it. Edge ids shift under swap-pop removal, so the edge is
/// found by its endpoints.
bool remove_min(SynthesisSession& session, VertexId from, VertexId to) {
  const cg::ConstraintGraph& g = session.graph();
  for (const cg::Edge& e : g.edges()) {
    if (e.kind == cg::EdgeKind::kMinConstraint && e.from == from &&
        e.to == to && removable(g, e)) {
      session.remove_constraint(e.id);
      return true;
    }
  }
  return false;
}

// The session's forward order under multi-edit transactions that stress
// the Pearce-Kelly patch: a min constraint added and removed again in
// one journal suffix, insertions against the order of the last resolve
// (forcing a reorder), and cycle-closing insertions that are undone
// later in the same transaction -- or left in place, so the commit
// sees a forward cycle. After every commit the order must be a
// topological order of the committed graph's Gf, the products must
// match a cold recompute, and the commit must yield kInvalidGraph
// exactly when validate() reports kForwardCycle.
TEST_P(EngineProperties, OrderStaysTopologicalUnderMultiEditTransactions) {
  std::mt19937 rng(GetParam() * 40503u + 3u);
  int corpora = 0;
  int against_order = 0;
  int undone_cycles = 0;
  int cyclic_commits = 0;
  int warm_reorders = 0;
  for (int trial = 0; trial < 80; ++trial) {
    relsched::testing::RandomGraphParams params;
    params.vertex_count = 8 + static_cast<int>(rng() % 14);
    params.max_constraints = 1 + static_cast<int>(rng() % 3);
    auto g = relsched::testing::random_constraint_graph(rng, params);
    if (!g.validate().empty()) continue;
    if (wellposed::make_wellposed(g).status != wellposed::Status::kWellPosed) {
      continue;
    }
    const auto mode = static_cast<anchors::AnchorMode>(rng() % 3);
    SessionOptions opts;
    opts.schedule_mode = mode;
    SynthesisSession session(std::move(g), opts);
    if (!session.resolve().ok()) continue;
    ++corpora;
    const VertexId source = session.graph().source();
    const VertexId sink = session.graph().sink();
    // Min constraints this test added and means to remove again; `keep`
    // ones stay in until the next transaction.
    struct Added {
      VertexId from, to;
      bool cycle = false;
      bool keep = false;
    };
    std::vector<Added> added;
    const auto undo = [&](std::size_t k) {
      if (!remove_min(session, added[k].from, added[k].to)) return;
      if (added[k].cycle) ++undone_cycles;
      added.erase(added.begin() + static_cast<std::ptrdiff_t>(k));
    };

    for (int batch = 0; batch < 10; ++batch) {
      // The order of the last resolve: edits inside the transaction
      // leave it alone until commit() patches it.
      const std::vector<int> order = session.topo_order().order();
      session.begin_txn();
      for (std::size_t k = added.size(); k-- > 0;) undo(k);
      bool reorders = false;
      const int want = 2 + static_cast<int>(rng() % 5);
      for (int j = 0; j < want; ++j) {
        const unsigned kind = rng() % 4;
        if (kind == 0 && !added.empty()) {
          undo(rng() % added.size());  // undone mid-transaction
          continue;
        }
        if (kind == 1 || order.size() < 3) {
          random_edit(session, rng);
          continue;
        }
        // An arc u -> v with v ordered before u: against the order, and
        // cycle-closing when v already reaches u.
        const std::size_t i = rng() % (order.size() - 1);
        const std::size_t k = i + 1 + rng() % (order.size() - 1 - i);
        const VertexId v(order[i]);
        const VertexId u(order[k]);
        if (u == sink || v == source) continue;  // would break polarity
        Added arc{u, v, forward_reaches(session.graph(), v, u)};
        session.add_min_constraint(u, v, static_cast<int>(rng() % 2));
        if (!arc.cycle) {
          ++against_order;
          reorders = true;
        }
        // Cycles are always undone, one time in four only after the
        // commit; other arcs are sometimes removed again.
        arc.keep = arc.cycle && rng() % 4 == 0;
        if (arc.cycle || kind == 2) added.push_back(arc);
      }
      for (std::size_t k = added.size(); k-- > 0;) {
        if (!added[k].keep) undo(k);
      }
      const Products& committed = session.commit();
      if (reorders && session.last_resolve_was_warm()) ++warm_reorders;

      const cg::ConstraintGraph& graph = session.graph();
      const auto issues = graph.validate();
      const bool cyclic =
          !issues.empty() &&
          issues.front().kind == cg::ValidationIssue::Kind::kForwardCycle;
      if (cyclic) ++cyclic_commits;
      EXPECT_EQ(committed.schedule.status == sched::ScheduleStatus::kInvalidGraph,
                cyclic)
          << "batch " << batch << ": " << committed.schedule.message;
      if (cyclic) {
        EXPECT_FALSE(session.topo_order().valid()) << "batch " << batch;
      } else {
        EXPECT_TRUE(is_forward_order(graph, session.topo_order().order()))
            << "batch " << batch;
      }
      expect_equivalent(committed, cold_pipeline(graph, mode), graph, batch);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GT(corpora, 3) << "corpus too thin for seed " << GetParam();
  EXPECT_GT(against_order, 0) << "no insertion ever went against the order";
  EXPECT_GT(undone_cycles, 0) << "no cycle-closing insertion was undone";
  EXPECT_GT(cyclic_commits, 0) << "no commit ever saw a forward cycle";
  EXPECT_GT(warm_reorders, 0) << "no reordering commit took the warm path";
}

// The cold resolve seeds its order from ConstraintGraph::forward_topo_order.
// On the committed generated corpus that is exactly the Kahn order of
// the forward Digraph projection the seed used to be computed from.
TEST(EngineOrder, ColdSeedMatchesDigraphKahnOrderOnGeneratedCorpus) {
  for (const char* name :
       {"gen_s11_v200.cg", "gen_s22_v500.cg", "gen_s33_v1000.cg"}) {
    std::ifstream in(std::string(RELSCHED_TEST_DATA_DIR) + "/" + name);
    ASSERT_TRUE(in) << name;
    std::stringstream text;
    text << in.rdbuf();
    cg::ParseResult parsed = cg::from_text(text.str());
    ASSERT_TRUE(parsed.ok()) << name << ": " << parsed.error;
    SynthesisSession session(std::move(*parsed.graph), {});
    ASSERT_TRUE(session.resolve().ok()) << name;
    const auto kahn =
        graph::topological_order(session.graph().project_forward());
    ASSERT_TRUE(kahn.has_value()) << name;
    EXPECT_EQ(session.topo_order().order(), *kahn) << name;
  }
}

// Deterministic excursions: a transaction may pass through an
// infeasible configuration (max bound tightened to 0) as long as the
// committed graph resolves; the intermediate state is never
// materialized.
TEST(EngineTransactions, InfeasibleExcursionInsideTxn) {
  relsched::testing::Fig2Graph fig;
  EdgeId max_edge = EdgeId::invalid();
  for (const cg::Edge& e : fig.g.edges()) {
    if (e.kind == cg::EdgeKind::kMaxConstraint) max_edge = e.id;
  }
  SynthesisSession session(std::move(fig.g), {});
  ASSERT_TRUE(session.resolve().ok());
  std::vector<sched::OffsetMap> before;
  for (int vi = 0; vi < session.graph().vertex_count(); ++vi) {
    before.push_back(session.products().schedule.schedule.offsets(VertexId(vi)));
  }

  session.begin_txn();
  session.set_constraint_bound(max_edge, 0);  // infeasible if materialized
  session.set_constraint_bound(max_edge, 2);  // restored inside the txn
  const Products& committed = session.commit();
  EXPECT_TRUE(committed.ok());
  for (int vi = 0; vi < session.graph().vertex_count(); ++vi) {
    EXPECT_EQ(committed.schedule.schedule.offsets(VertexId(vi)),
              before[static_cast<std::size_t>(vi)]);
  }
  // Two edits on the same edge flood the same cone: merged is exactly
  // half of the sum, and strictly below it (overlap, not disjoint).
  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.last_txn_edits, 2);
  EXPECT_GT(stats.last_merged_cone_vertices, 0);
  EXPECT_EQ(2LL * stats.last_merged_cone_vertices,
            stats.last_cone_vertices_sum);

  // Sanity: the excursion really is infeasible when materialized.
  session.set_constraint_bound(max_edge, 0);
  EXPECT_EQ(session.resolve().schedule.status,
            sched::ScheduleStatus::kInfeasible);
  session.set_constraint_bound(max_edge, 2);
  EXPECT_TRUE(session.resolve().ok());
}

// Same shape for ill-posedness: a max constraint spanning the unbounded
// anchor `a` (the Fig. 3(a) pattern) is added and removed inside one
// transaction; the commit never sees the ill-posed configuration.
TEST(EngineTransactions, IllPosedExcursionInsideTxn) {
  relsched::testing::Fig2Graph fig;
  const VertexId v0 = fig.v0, v3 = fig.v3;
  SynthesisSession session(std::move(fig.g), {});
  ASSERT_TRUE(session.resolve().ok());
  std::vector<sched::OffsetMap> before;
  for (int vi = 0; vi < session.graph().vertex_count(); ++vi) {
    before.push_back(session.products().schedule.schedule.offsets(VertexId(vi)));
  }

  session.begin_txn();
  const EdgeId bad = session.add_max_constraint(v0, v3, 10);
  session.remove_constraint(bad);
  const Products& committed = session.commit();
  EXPECT_TRUE(committed.ok());
  for (int vi = 0; vi < session.graph().vertex_count(); ++vi) {
    EXPECT_EQ(committed.schedule.schedule.offsets(VertexId(vi)),
              before[static_cast<std::size_t>(vi)]);
  }

  // Sanity: materialized step-by-step, the excursion is ill-posed.
  const EdgeId bad2 = session.add_max_constraint(v0, v3, 10);
  EXPECT_EQ(session.resolve().schedule.status,
            sched::ScheduleStatus::kIllPosed);
  session.remove_constraint(bad2);
  EXPECT_TRUE(session.resolve().ok());
}

// Transaction API preconditions: no nesting, no resolve() or fork()
// with a transaction open, no commit() without begin_txn(). An empty
// transaction commits as a no-op.
TEST(EngineTransactions, ApiPreconditions) {
  relsched::testing::Fig2Graph fig;
  SynthesisSession session(std::move(fig.g), {});
  ASSERT_TRUE(session.resolve().ok());

  session.begin_txn();
  EXPECT_THROW(session.begin_txn(), ApiError);
  EXPECT_THROW(session.resolve(), ApiError);
  EXPECT_THROW((void)session.fork(), ApiError);
  EXPECT_TRUE(session.commit().ok());  // empty batch: cached products
  EXPECT_EQ(session.stats().last_txn_edits, 0);
  EXPECT_THROW(session.commit(), ApiError);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineProperties,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u));

}  // namespace
}  // namespace relsched::engine
