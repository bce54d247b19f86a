// Single-constraint slack evaluation shared between analyze::analyze()
// and analyze::IncrementalAnalyzer. One implementation, so the
// cone-scoped incremental path cannot drift from the full pass (their
// equality is property-tested in tests/property_analyze.cpp).
//
// Internal to src/analyze; not installed, not part of the analyze API.
#pragma once

#include <span>
#include <vector>

#include "analyze/analyze.hpp"
#include "anchors/anchor_analysis.hpp"
#include "cg/constraint_graph.hpp"

namespace relsched::analyze::detail {

/// Zero-profile start times off the anchor analysis, via the Theorem 3
/// identity sigma_a^min(v) = length(a, v):
///   T0(v) = max(0, max_{a in A(v)} T0(a) + d0(a) + length(a, v)),
/// evaluated in forward topological order (T0(source) = 0). Identical
/// to the certifier's recursion over the minimum schedule's offsets.
[[nodiscard]] std::vector<graph::Weight> zero_profile_start_times(
    const cg::ConstraintGraph& g, const anchors::AnchorAnalysis& analysis,
    const std::vector<int>& topo);

/// Patches `t0` in place at `cone_topo` (dirty-cone vertices in forward
/// topological order) only. Sound because the cone is out-closed: a
/// vertex outside it has all A(v) members outside it too (anchors are
/// Gf ancestors), so its T0 inputs -- and with them T0(v) -- are
/// unchanged.
void patch_zero_profile_start_times(const cg::ConstraintGraph& g,
                                    const anchors::AnchorAnalysis& analysis,
                                    std::span<const VertexId> cone_topo,
                                    std::vector<graph::Weight>& t0);

/// Slack record of constraint edge `eid` (min or max; never call on a
/// sequencing edge). Preconditions: valid + feasible + well-posed
/// graph, `t0` current zero-profile start times.
[[nodiscard]] ConstraintSlack constraint_slack(
    const cg::ConstraintGraph& g, const anchors::AnchorAnalysis& analysis,
    const std::vector<graph::Weight>& t0, EdgeId eid);

/// Criticality ranking in place: slack ascending, tight_frames
/// descending, EdgeId ascending (deterministic total order).
void rank(std::vector<ConstraintSlack>& slacks);

}  // namespace relsched::analyze::detail
