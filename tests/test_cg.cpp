#include "cg/constraint_graph.hpp"

#include <gtest/gtest.h>

#include "base/error.hpp"
#include "testutil.hpp"

namespace relsched::cg {
namespace {

using relsched::testing::Fig2Graph;

TEST(Delay, BoundedAndUnbounded) {
  EXPECT_TRUE(Delay::unbounded().is_unbounded());
  EXPECT_FALSE(Delay::bounded(3).is_unbounded());
  EXPECT_EQ(Delay::bounded(3).cycles(), 3);
  EXPECT_EQ(Delay::unbounded().cycles_or_zero(), 0);
  EXPECT_EQ(Delay::bounded(7).cycles_or_zero(), 7);
  EXPECT_THROW(Delay::bounded(-1), ApiError);
  EXPECT_THROW((void)Delay::unbounded().cycles(), ApiError);
}

TEST(ConstraintGraph, SourceIsFirstVertexAndAlwaysAnchor) {
  ConstraintGraph g;
  const VertexId v0 = g.add_vertex("v0", Delay::bounded(0));
  const VertexId v1 = g.add_vertex("v1", Delay::bounded(2));
  g.add_sequencing_edge(v0, v1);
  EXPECT_EQ(g.source(), v0);
  EXPECT_TRUE(g.is_anchor(v0));
  EXPECT_FALSE(g.is_anchor(v1));
  // Outgoing sequencing edges of the source carry unbounded weight.
  EXPECT_TRUE(g.weight(*g.out_edges(v0).begin()).unbounded);
}

TEST(ConstraintGraph, SequencingWeightIsTailDelay) {
  ConstraintGraph g;
  const VertexId v0 = g.add_vertex("v0", Delay::bounded(0));
  const VertexId v1 = g.add_vertex("v1", Delay::bounded(3));
  const VertexId v2 = g.add_vertex("v2", Delay::bounded(0));
  g.add_sequencing_edge(v0, v1);
  const EdgeId e12 = g.add_sequencing_edge(v1, v2);
  EXPECT_EQ(g.weight(e12).value, 3);
  EXPECT_FALSE(g.weight(e12).unbounded);
  // set_delay must be visible through existing edges (no stale weights).
  g.set_delay(v1, Delay::bounded(9));
  EXPECT_EQ(g.weight(e12).value, 9);
  g.set_delay(v1, Delay::unbounded());
  EXPECT_TRUE(g.weight(e12).unbounded);
  EXPECT_TRUE(g.is_anchor(v1));
}

TEST(ConstraintGraph, MaxConstraintBecomesBackwardEdge) {
  ConstraintGraph g;
  const VertexId v0 = g.add_vertex("v0", Delay::bounded(0));
  const VertexId v1 = g.add_vertex("v1", Delay::bounded(1));
  g.add_sequencing_edge(v0, v1);
  const EdgeId e = g.add_max_constraint(v0, v1, 5);
  EXPECT_EQ(g.edge(e).from, v1);  // backward: (to, from)
  EXPECT_EQ(g.edge(e).to, v0);
  EXPECT_EQ(g.weight(e).value, -5);
  EXPECT_EQ(g.backward_edge_count(), 1);
}

TEST(ConstraintGraph, MinConstraintIsForwardFixedWeight) {
  ConstraintGraph g;
  const VertexId v0 = g.add_vertex("v0", Delay::bounded(0));
  const VertexId v1 = g.add_vertex("v1", Delay::bounded(1));
  g.add_sequencing_edge(v0, v1);
  const EdgeId e = g.add_min_constraint(v0, v1, 4);
  EXPECT_EQ(g.edge(e).from, v0);
  EXPECT_EQ(g.weight(e).value, 4);
  EXPECT_TRUE(is_forward(g.edge(e).kind));
}

TEST(ConstraintGraph, RejectsNegativeConstraintsAndSelfLoops) {
  ConstraintGraph g;
  const VertexId v0 = g.add_vertex("v0", Delay::bounded(0));
  const VertexId v1 = g.add_vertex("v1", Delay::bounded(1));
  EXPECT_THROW(g.add_min_constraint(v0, v1, -1), ApiError);
  EXPECT_THROW(g.add_max_constraint(v0, v1, -1), ApiError);
  EXPECT_THROW(g.add_sequencing_edge(v0, v0), ApiError);
}

TEST(ConstraintGraph, SinkDetection) {
  Fig2Graph f;
  EXPECT_EQ(f.g.sink(), f.v4);
}

TEST(ConstraintGraph, ValidateAcceptsPaperExample) {
  Fig2Graph f;
  EXPECT_TRUE(f.g.validate().empty());
}

TEST(ConstraintGraph, ValidateRejectsForwardCycle) {
  ConstraintGraph g;
  const VertexId v0 = g.add_vertex("v0", Delay::bounded(0));
  const VertexId v1 = g.add_vertex("v1", Delay::bounded(1));
  const VertexId v2 = g.add_vertex("v2", Delay::bounded(1));
  g.add_sequencing_edge(v0, v1);
  g.add_sequencing_edge(v1, v2);
  g.add_sequencing_edge(v2, v1);
  const auto issues = g.validate();
  ASSERT_FALSE(issues.empty());
  EXPECT_EQ(issues.front().kind, ValidationIssue::Kind::kForwardCycle);
}

TEST(ConstraintGraph, ValidateRejectsDisconnectedVertex) {
  ConstraintGraph g;
  const VertexId v0 = g.add_vertex("v0", Delay::bounded(0));
  const VertexId v1 = g.add_vertex("v1", Delay::bounded(1));
  g.add_vertex("stranded", Delay::bounded(1));
  g.add_sequencing_edge(v0, v1);
  const auto issues = g.validate();
  // Two sinks (v1 and stranded) -> polarity failure.
  ASSERT_FALSE(issues.empty());
}

TEST(ConstraintGraph, VertexWithoutSinkPathIsRejectedAsMultipleSinks) {
  // `dead` has no forward path to the sink; its only out-edge is the
  // backward edge of a max constraint. On an acyclic Gf such a vertex
  // is always a second vertex without forward out-edges.
  ConstraintGraph g;
  const VertexId v0 = g.add_vertex("v0", Delay::bounded(0));
  const VertexId v1 = g.add_vertex("v1", Delay::bounded(1));
  const VertexId dead = g.add_vertex("dead", Delay::bounded(1));
  const VertexId sink = g.add_vertex("sink", Delay::bounded(0));
  g.add_sequencing_edge(v0, v1);
  g.add_sequencing_edge(v1, sink);
  g.add_sequencing_edge(v0, dead);
  g.add_max_constraint(v1, dead, 3);
  const auto issues = g.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues.front().kind, ValidationIssue::Kind::kMultipleSinks);
}

TEST(ConstraintGraph, AnchorsAreSourcePlusUnbounded) {
  Fig2Graph f;
  const auto anchors = f.g.anchors();
  ASSERT_EQ(anchors.size(), 2u);
  EXPECT_EQ(anchors[0], f.v0);
  EXPECT_EQ(anchors[1], f.a);
}

TEST(ConstraintGraph, ProjectionsPreserveStructure) {
  Fig2Graph f;
  const auto full = f.g.project_full();
  const auto forward = f.g.project_forward();
  EXPECT_EQ(full.node_count(), f.g.vertex_count());
  EXPECT_EQ(full.arc_count(), f.g.edge_count());
  EXPECT_EQ(forward.arc_count(), f.g.edge_count() - 1);  // one backward edge
  EXPECT_TRUE(graph::is_acyclic(forward));
  // The backward edge makes the full graph cyclic (v1 -> v2 -> v1).
  EXPECT_FALSE(graph::is_acyclic(full));
}

TEST(ConstraintGraph, DotExportMentionsAllVertices) {
  Fig2Graph f;
  const std::string dot = f.g.to_dot();
  for (const auto& v : f.g.vertices()) {
    EXPECT_NE(dot.find(v.name), std::string::npos) << v.name;
  }
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);  // backward edge
}

}  // namespace
}  // namespace relsched::cg
