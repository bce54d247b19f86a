// SessionStats observability: transaction counters and cone-coalescing
// accounting, fork counters and copy-on-write row sharing, fork
// isolation, warm-path phase timings, the fork() preconditions, and the
// two accepted SessionOptions::threads values.
#include <gtest/gtest.h>

#include <vector>

#include "base/error.hpp"
#include "engine/session.hpp"
#include "testutil.hpp"

namespace relsched::engine {
namespace {

EdgeId find_max_edge(const cg::ConstraintGraph& g) {
  for (const cg::Edge& e : g.edges()) {
    if (e.kind == cg::EdgeKind::kMaxConstraint) return e.id;
  }
  ADD_FAILURE() << "graph has no max constraint";
  return EdgeId::invalid();
}

std::vector<sched::OffsetMap> snapshot_offsets(const SynthesisSession& s) {
  std::vector<sched::OffsetMap> out;
  for (int vi = 0; vi < s.graph().vertex_count(); ++vi) {
    out.push_back(s.products().schedule.schedule.offsets(VertexId(vi)));
  }
  return out;
}

TEST(SessionStatsTest, TransactionCountersAndConeAccounting) {
  relsched::testing::Fig2Graph fig;
  SynthesisSession session(std::move(fig.g), {});
  ASSERT_TRUE(session.resolve().ok());
  const EdgeId max_edge = find_max_edge(session.graph());

  SessionStats st = session.stats();
  EXPECT_EQ(st.transactions, 0);
  EXPECT_EQ(st.edits_coalesced, 0);

  // Single-edit batch: the merged cone IS the edit's cone.
  session.begin_txn();
  session.set_constraint_bound(max_edge, 3);
  ASSERT_TRUE(session.commit().ok());
  st = session.stats();
  EXPECT_EQ(st.transactions, 1);
  EXPECT_EQ(st.last_txn_edits, 1);
  EXPECT_EQ(st.edits_coalesced, 1);
  EXPECT_GT(st.last_merged_cone_vertices, 0);
  EXPECT_EQ(st.last_merged_cone_vertices, st.last_cone_vertices_sum);

  // Two edits on the same edge: identical cones, so the merged cone is
  // exactly half the sum -- coalescing pays for the union, not the sum.
  session.begin_txn();
  session.set_constraint_bound(max_edge, 4);
  session.set_constraint_bound(max_edge, 2);
  ASSERT_TRUE(session.commit().ok());
  st = session.stats();
  EXPECT_EQ(st.transactions, 2);
  EXPECT_EQ(st.last_txn_edits, 2);
  EXPECT_EQ(st.edits_coalesced, 3);
  EXPECT_LT(st.last_merged_cone_vertices, st.last_cone_vertices_sum);
  EXPECT_EQ(2LL * st.last_merged_cone_vertices, st.last_cone_vertices_sum);
}

TEST(SessionStatsTest, ForkCountersAndCopyOnWriteRows) {
  relsched::testing::Fig2Graph fig;
  const VertexId v1 = fig.v1, v3 = fig.v3;
  SynthesisSession parent(std::move(fig.g), {});
  ASSERT_TRUE(parent.resolve().ok());
  EXPECT_EQ(parent.stats().forks_taken, 0);
  EXPECT_EQ(parent.stats().anchor_rows_shared, 0);

  // Two matrices (path lengths, maximal defining-path lengths), one row
  // per anchor each.
  const int total_rows =
      2 * static_cast<int>(parent.products().analysis.anchors().size());
  ASSERT_GT(total_rows, 0);
  const std::vector<sched::OffsetMap> before = snapshot_offsets(parent);

  {
    SynthesisSession f1 = parent.fork();
    SynthesisSession f2 = parent.fork();
    EXPECT_EQ(parent.stats().forks_taken, 2);
    // The fork's own counter starts at zero; it counts forks *served*.
    EXPECT_EQ(f1.stats().forks_taken, 0);
    // Right after forking every row is physically shared.
    EXPECT_EQ(parent.stats().anchor_rows_shared, total_rows);
    EXPECT_EQ(f1.stats().anchor_rows_shared, total_rows);

    // A warm resolve in one fork patches only that fork's copies: a new
    // forward constraint changes anchor path lengths, so at least one
    // row detaches from the shared baseline.
    f1.add_min_constraint(v1, v3, 6);
    ASSERT_TRUE(f1.resolve().ok());
    EXPECT_GE(f1.stats().warm_resolves, 1);
    EXPECT_LT(f1.stats().anchor_rows_shared, total_rows);
    // The parent still shares every row with f2, and its products are
    // untouched by f1's edit.
    EXPECT_EQ(parent.stats().anchor_rows_shared, total_rows);
    const std::vector<sched::OffsetMap> after = snapshot_offsets(parent);
    for (std::size_t vi = 0; vi < before.size(); ++vi) {
      EXPECT_EQ(after[vi], before[vi]) << "v" << vi;
    }
  }
  // Forks gone: nothing left to share with.
  EXPECT_EQ(parent.stats().anchor_rows_shared, 0);
  EXPECT_EQ(parent.stats().forks_taken, 2);
}

TEST(SessionStatsTest, ForkRequiresCurrentResolve) {
  relsched::testing::Fig2Graph fig;
  SynthesisSession session(std::move(fig.g), {});
  // Never resolved: no baseline to share.
  EXPECT_THROW((void)session.fork(), ApiError);
  ASSERT_TRUE(session.resolve().ok());
  const EdgeId max_edge = find_max_edge(session.graph());
  session.set_constraint_bound(max_edge, 3);
  // Pending journal entries: the fork would be stale.
  EXPECT_THROW((void)session.fork(), ApiError);
  ASSERT_TRUE(session.resolve().ok());
  SynthesisSession fork = session.fork();
  EXPECT_TRUE(fork.products().ok());
  EXPECT_EQ(fork.products().revision, fork.graph().revision());
}

// threads is 0 (the shared pool) or 1 (sequential); a wider pool is
// passed explicitly through SessionOptions::pool.
TEST(SessionStatsTest, ThreadsOptionIsSharedPoolOrSequential) {
  for (const int threads : {0, 1}) {
    relsched::testing::Fig2Graph fig;
    SessionOptions options;
    options.threads = threads;
    SynthesisSession session(std::move(fig.g), options);
    EXPECT_TRUE(session.resolve().ok()) << "threads = " << threads;
  }
  for (const int threads : {-1, 2, 8}) {
    relsched::testing::Fig2Graph fig;
    SessionOptions options;
    options.threads = threads;
    EXPECT_THROW(SynthesisSession(std::move(fig.g), options), ApiError)
        << "threads = " << threads;
  }
}

TEST(SessionStatsTest, ForkIsIndependentlyEditable) {
  relsched::testing::Fig2Graph fig;
  SynthesisSession parent(std::move(fig.g), {});
  ASSERT_TRUE(parent.resolve().ok());
  SynthesisSession fork = parent.fork();

  // The fork starts at a branch point with nothing pending: resolving
  // it is a cached no-op, not a recompute of the parent's history.
  EXPECT_EQ(fork.graph().revision(), parent.graph().revision());
  fork.resolve();
  const SessionStats stats = fork.stats();
  EXPECT_EQ(stats.cold_resolves + stats.warm_resolves +
                stats.cancelled_resolves,
            0);

  // Forks fork: a fork is a full session.
  const EdgeId max_edge = find_max_edge(fork.graph());
  fork.begin_txn();
  fork.set_constraint_bound(max_edge, 5);
  ASSERT_TRUE(fork.commit().ok());
  // The commit folds the fork's own edit and nothing of the parent's.
  EXPECT_EQ(fork.stats().last_txn_edits, 1);
  EXPECT_TRUE(fork.last_resolve_was_warm());
  SynthesisSession grandchild = fork.fork();
  EXPECT_TRUE(grandchild.products().ok());
  EXPECT_EQ(fork.stats().forks_taken, 1);
  EXPECT_EQ(parent.stats().forks_taken, 1);
}

TEST(SessionStatsTest, WarmPhaseTimingsAccumulate) {
  relsched::testing::Fig2Graph fig;
  SynthesisSession session(std::move(fig.g), {});
  ASSERT_TRUE(session.resolve().ok());
  const EdgeId max_edge = find_max_edge(session.graph());

  SessionStats st = session.stats();
  EXPECT_EQ(st.warm_topo_us + st.warm_spfa_us + st.warm_anchor_us +
                st.warm_resched_us,
            0.0);

  for (int i = 0; i < 5; ++i) {
    session.set_constraint_bound(max_edge, 2 + i % 2);
    ASSERT_TRUE(session.resolve().ok());
  }
  st = session.stats();
  EXPECT_EQ(st.warm_resolves, 5);
  EXPECT_GE(st.warm_topo_us, 0.0);
  EXPECT_GE(st.warm_spfa_us, 0.0);
  EXPECT_GE(st.warm_anchor_us, 0.0);
  EXPECT_GE(st.warm_resched_us, 0.0);
  EXPECT_GT(st.warm_topo_us + st.warm_spfa_us + st.warm_anchor_us +
                st.warm_resched_us,
            0.0);
}

}  // namespace
}  // namespace relsched::engine
