// The session's edit log: what each edit wrapper dirties and how
// resolve() acts on it. set_delay is the one edit whose effect depends
// on the graph's state before the edit (a bounded<->unbounded flip
// changes the anchor set and forces a cold resolve, a bounded->bounded
// change is a weight edit seeded at the vertex), so it is pinned here
// against a cold recompute and against WAL replay. Also pins the
// revision counter's construction semantics, which WAL records,
// snapshots and serve replies are keyed by.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "cg/graph_io.hpp"
#include "engine/session.hpp"
#include "persist/serialize.hpp"
#include "persist/wal.hpp"
#include "testutil.hpp"

namespace relsched::engine {
namespace {

/// Bit-identical products: status, anchors, anchor sets, path lengths
/// and offsets.
void expect_same_products(const Products& a, const Products& b,
                          const cg::ConstraintGraph& g) {
  ASSERT_EQ(a.schedule.status, b.schedule.status);
  EXPECT_EQ(a.schedule.message, b.schedule.message);
  ASSERT_EQ(a.analysis.anchors(), b.analysis.anchors());
  for (int vi = 0; vi < g.vertex_count(); ++vi) {
    const VertexId v(vi);
    EXPECT_EQ(a.analysis.anchor_set(v), b.analysis.anchor_set(v)) << "v" << vi;
    for (VertexId anchor : a.analysis.anchors()) {
      EXPECT_EQ(a.analysis.length(anchor, v), b.analysis.length(anchor, v))
          << "length(v" << anchor << ", v" << vi << ")";
    }
    if (a.ok()) {
      EXPECT_EQ(a.schedule.schedule.offsets(v), b.schedule.schedule.offsets(v))
          << "offsets(v" << vi << ")";
    }
  }
}

/// A fresh session on a copy of the session's current graph: the cold
/// products the warm path must reproduce.
void expect_matches_cold(const SynthesisSession& session) {
  SessionOptions options;
  options.threads = 1;
  SynthesisSession cold(session.graph(), options);
  ASSERT_TRUE(cold.resolve().ok() || !session.products().ok());
  EXPECT_EQ(cold.stats().cold_resolves, 1);
  expect_same_products(session.products(), cold.products(), session.graph());
}

TEST(EngineSetDelay, BoundedToBoundedResolvesWarmSeededAtVertex) {
  relsched::testing::Fig2Graph fig;
  const VertexId v2 = fig.v2;
  SynthesisSession session(std::move(fig.g), {});
  ASSERT_TRUE(session.resolve().ok());
  const std::uint64_t before = session.graph().revision();

  // delta(v2): 1 -> 3. A weight change on v2's out-edge only.
  session.set_delay(v2, cg::Delay::bounded(3));
  EXPECT_EQ(session.graph().revision(), before + 1);
  ASSERT_TRUE(session.resolve().ok());
  EXPECT_TRUE(session.last_resolve_was_warm());
  EXPECT_EQ(session.stats().cold_resolves, 1);
  EXPECT_EQ(session.stats().warm_resolves, 1);
  // The cone is flooded from v2 alone: v2 first, then what it reaches.
  const std::vector<VertexId>& cone = session.last_dirty_cone();
  ASSERT_FALSE(cone.empty());
  EXPECT_EQ(cone.front(), v2);
  EXPECT_EQ(session.stats().last_affected_vertices,
            static_cast<int>(cone.size()));
  EXPECT_LT(static_cast<int>(cone.size()), session.graph().vertex_count());
  expect_matches_cold(session);
}

TEST(EngineSetDelay, AnchorFlipsResolveColdBothWays) {
  relsched::testing::Fig2Graph fig;
  const VertexId v2 = fig.v2, a = fig.a;
  SynthesisSession session(std::move(fig.g), {});
  ASSERT_TRUE(session.resolve().ok());

  // bounded -> unbounded: v2 becomes an anchor.
  session.set_delay(v2, cg::Delay::unbounded());
  session.resolve();
  EXPECT_FALSE(session.last_resolve_was_warm());
  EXPECT_EQ(session.stats().cold_resolves, 2);
  EXPECT_EQ(session.stats().warm_resolves, 0);
  EXPECT_TRUE(session.graph().is_anchor(v2));
  expect_matches_cold(session);

  // unbounded -> bounded: v2 and a stop being anchors, in one batch.
  session.begin_txn();
  session.set_delay(v2, cg::Delay::bounded(1));
  session.set_delay(a, cg::Delay::bounded(2));
  session.commit();
  EXPECT_FALSE(session.last_resolve_was_warm());
  EXPECT_EQ(session.stats().cold_resolves, 3);
  EXPECT_EQ(session.stats().warm_resolves, 0);
  EXPECT_FALSE(session.graph().is_anchor(a));
  // A cold batch floods no cone.
  EXPECT_EQ(session.stats().last_merged_cone_vertices, 0);
  expect_matches_cold(session);

  // A flip followed by a plain weight edit in the same batch: still cold.
  session.begin_txn();
  session.set_delay(a, cg::Delay::unbounded());
  session.set_delay(v2, cg::Delay::bounded(2));
  session.commit();
  EXPECT_FALSE(session.last_resolve_was_warm());
  EXPECT_EQ(session.stats().cold_resolves, 4);
  expect_matches_cold(session);
}

TEST(EngineSetDelay, WalReplayMatchesLiveSession) {
  const std::string dir = ::testing::TempDir() + "relsched_set_delay_wal";
  ASSERT_TRUE(persist::ensure_dir(dir).ok());
  const std::string wal = persist::wal_path(dir);
  std::remove(wal.c_str());

  relsched::testing::Fig2Graph fig;
  const cg::ConstraintGraph base = fig.g;
  const VertexId v2 = fig.v2, a = fig.a;
  SynthesisSession live(std::move(fig.g), {});
  ASSERT_TRUE(live.resolve().ok());
  persist::WalOptions sync;
  sync.sync = persist::WalOptions::Sync::kAlways;
  ASSERT_TRUE(live.attach_wal(wal, sync).ok());
  live.set_delay(v2, cg::Delay::bounded(3));  // warm
  ASSERT_TRUE(live.resolve().ok());
  live.set_delay(a, cg::Delay::bounded(2));  // flip: cold
  ASSERT_TRUE(live.resolve().ok());
  live.set_delay(v2, cg::Delay::unbounded());  // flip, left unresolved
  live.flush_wal();

  SynthesisSession replayed(base, {});
  ASSERT_TRUE(replayed.resolve().ok());
  SynthesisSession::RestoreReport report;
  ASSERT_TRUE(replayed.replay_wal(wal, &report).ok());
  EXPECT_EQ(report.replayed_edits, 3);
  EXPECT_EQ(report.replayed_resolves, 2);
  EXPECT_EQ(replayed.graph().revision(), live.graph().revision());
  live.resolve();
  replayed.resolve();
  EXPECT_EQ(replayed.products().revision, live.products().revision);
  EXPECT_EQ(replayed.stats().warm_resolves, live.stats().warm_resolves);
  expect_same_products(replayed.products(), live.products(), live.graph());
}

TEST(EngineFork, ForkResolvesItsOwnEditsWarmAndLeavesParentAlone) {
  relsched::testing::Fig2Graph fig;
  const VertexId v2 = fig.v2;
  SynthesisSession parent(std::move(fig.g), {});
  ASSERT_TRUE(parent.resolve().ok());
  SynthesisSession fork = parent.fork();
  EXPECT_EQ(fork.graph().revision(), parent.graph().revision());
  // Nothing pending on the fork: resolving it again is a cached no-op.
  fork.resolve();
  const SessionStats stats = fork.stats();
  EXPECT_EQ(stats.cold_resolves + stats.warm_resolves +
                stats.cancelled_resolves,
            0);

  // Only the fork's own edit is folded into its first resolve.
  fork.set_delay(v2, cg::Delay::bounded(3));
  ASSERT_TRUE(fork.resolve().ok());
  EXPECT_TRUE(fork.last_resolve_was_warm());
  EXPECT_EQ(fork.last_dirty_cone().front(), v2);
  expect_matches_cold(fork);
  EXPECT_EQ(parent.graph().revision() + 1, fork.graph().revision());
  EXPECT_EQ(parent.graph().vertex(v2).delay, cg::Delay::bounded(1));
}

// Every construction call bumps the revision, so a parsed graph's
// revision counts its vertices plus its edges. Snapshots, WAL records
// and serve replies are keyed by these values; they must not drift.
TEST(GraphRevision, ParsedFixtureRevisionIsPinned) {
  std::string text;
  ASSERT_TRUE(persist::read_file(
                  std::string(RELSCHED_TEST_DATA_DIR) + "/gen_s11_v200.cg",
                  &text)
                  .ok());
  const cg::ParseResult parsed = cg::from_text(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const cg::ConstraintGraph& g = *parsed.graph;
  EXPECT_EQ(g.revision(), static_cast<std::uint64_t>(g.vertex_count() +
                                                     g.edge_count()));
  EXPECT_EQ(g.revision(), 494u);  // 200 vertices + 294 edges
}

}  // namespace
}  // namespace relsched::engine
