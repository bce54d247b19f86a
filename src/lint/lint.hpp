// Static design analyzer over constraint graphs (lint).
//
// The paper's central verdicts -- feasibility (Theorem 1) and
// well-posedness (Theorem 2) -- are static properties of the constraint
// graph, decidable before any scheduling runs. This library turns them,
// plus a catalog of design-quality rules, into a structured report a
// front end can act on:
//
//   invalid-graph            the graph breaks the paper's structural
//                            assumptions (polarity, acyclic Gf)
//   unsat-core               infeasible, with an *irreducible* core of
//                            max constraints extracted by a deletion
//                            filter (relax any one of them); the
//                            reduced core is re-proved infeasible by an
//                            independent certify::verify_witness replay
//   ill-posed-constraint     every backward edge violating anchor-set
//                            containment (not just the first), each
//                            with its counterexample anchor and
//                            defining-path witness
//   redundant-min-constraint a min constraint implied by the remaining
//   redundant-max-constraint graph; removal provably leaves the
//                            minimum relative schedule bit-identical
//                            (see edge_redundant's cone reroute check)
//   never-binding-max        a max constraint whose slack is strictly
//                            positive for every delay profile
//   dead-anchor              an anchor irrelevant for the sink: its
//                            activation time never affects completion
//
// analyze() reports *independent* verdicts (each edge judged against
// the rest of the graph); strip_redundant() re-verifies sequentially
// while removing, so mutually-implied duplicates cannot both be
// stripped. Linting never mutates the graph (strip_redundant is the
// explicit exception) and never crashes on hostile input: every rule
// degrades to a reported finding or to silence, fuzz-tested against
// the engine's fault-injection graphs.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "anchors/anchor_analysis.hpp"
#include "certify/certify.hpp"
#include "cg/constraint_graph.hpp"

namespace relsched::lint {

enum class Severity { kInfo, kWarning, kError };

[[nodiscard]] const char* to_string(Severity severity);

/// Rule catalog. Ids (rule_id) are stable machine-readable strings:
/// never renamed, only appended.
enum class Rule {
  kInvalidGraph,
  kUnsatCore,
  kIllPosedConstraint,
  kRedundantMinConstraint,
  kRedundantMaxConstraint,
  kNeverBindingMax,
  kDeadAnchor,
};

/// Stable kebab-case rule id (e.g. "unsat-core").
[[nodiscard]] const char* rule_id(Rule rule);

/// Fixed severity of a rule.
[[nodiscard]] Severity severity(Rule rule);

/// One diagnostic: rule + severity + locations + suggested edit.
struct Finding {
  Rule rule = Rule::kInvalidGraph;
  Severity severity = Severity::kError;
  /// One-line human explanation (names, bounds; no edge ids, so the
  /// text stays valid across edge-id churn).
  std::string message;
  /// Suggested edit, when the rule has one ("remove the constraint",
  /// "relax one of ..."); may be empty.
  std::string suggestion;
  /// Graph locations. Edge ids refer to the graph the report was made
  /// for; they are invalidated by remove_constraint's swap-pop like any
  /// other EdgeId.
  std::vector<VertexId> vertices;
  std::vector<EdgeId> edges;
  /// Replayable witness for error findings (positive cycle /
  /// containment counterexample); code kNone otherwise.
  certify::Diag diag;
};

struct Report {
  std::vector<Finding> findings;

  [[nodiscard]] bool clean() const { return findings.empty(); }
  [[nodiscard]] std::optional<Severity> max_severity() const;
  [[nodiscard]] int count(Rule rule) const;
  [[nodiscard]] int count(Severity s) const;
};

/// Runs every rule. Safe on arbitrary graphs: structural invalidity
/// and infeasibility short-circuit into their own findings (the
/// downstream rules' preconditions fail, so they are skipped).
/// `analysis`, when given, is a caller-owned anchor analysis computed
/// for exactly `g` (e.g. the engine's cached products) and is reused
/// instead of recomputing one.
[[nodiscard]] Report analyze(
    const cg::ConstraintGraph& g,
    const anchors::AnchorAnalysis* analysis = nullptr);

// ---- Unsat-core extraction (deletion filter) ------------------------------

/// An irreducible infeasible subgraph, described by the backward (max
/// constraint) edges that must stay to keep the graph infeasible. Gf is
/// acyclic, so every positive cycle crosses a backward edge; the max
/// constraints are therefore the complete set of relaxation candidates.
struct UnsatCore {
  /// Backward edges of the original graph forming an irreducible
  /// infeasible subgraph, in edge-id order: with only these max
  /// constraints present the graph is still infeasible, and relaxing
  /// ANY single one makes that reduced core graph feasible. (The full
  /// design may hold further independent cores the filter discarded,
  /// so it can stay infeasible after a removal -- rerun after fixing.)
  std::vector<EdgeId> core;
  /// Irreducibility, re-verified explicitly after the filter against
  /// the reduced core graph (see `core`).
  bool minimal = false;
  /// Positive-cycle witness found in the *reduced* core graph
  /// (core_graph(g, core)); its edge ids refer to that graph.
  certify::Diag witness;
  /// Empty when certify::verify_witness accepted `witness` against the
  /// reduced core graph; the replay's rejection reason otherwise.
  std::string verification_error;

  [[nodiscard]] bool verified() const {
    return verification_error.empty() && !core.empty();
  }
};

/// Deletion filter over the backward edges: drop each in turn, keep it
/// only if the remainder goes feasible without it. Feasibility is
/// monotone under constraint removal, so one pass yields an irreducible
/// core. O(|Eb|) feasibility checks, each O(|V| * |E|). Precondition:
/// g.validate() is clean; returns an empty, unverified core when `g` is
/// feasible.
[[nodiscard]] UnsatCore unsat_core(const cg::ConstraintGraph& g);

/// The reduced core graph: all vertices, all forward edges, and only
/// the `core` backward edges (freshly numbered). This is the object the
/// unsat core's witness is verified against.
[[nodiscard]] cg::ConstraintGraph core_graph(const cg::ConstraintGraph& g,
                                             const std::vector<EdgeId>& core);

// ---- Redundant-constraint detection ---------------------------------------

struct RedundantEdge {
  EdgeId edge;
  /// Resolved weight of the strongest implying path that avoids `edge`
  /// (>= the edge's own weight, which is what makes it redundant).
  graph::Weight implied = 0;
};

/// Constraint edges whose removal provably leaves the minimum relative
/// schedule bit-identical (each judged independently against the rest
/// of the graph). A min edge must be implied by a forward-only path
/// (preserving anchor sets and graph polarity); both kinds must be
/// reroutable *within every anchor cone containing them* (preserving
/// every length(a, .) row, hence every offset). Precondition: valid +
/// feasible graph (the overloads without `analysis` check and return
/// empty otherwise).
[[nodiscard]] std::vector<RedundantEdge> redundant_constraints(
    const cg::ConstraintGraph& g);
[[nodiscard]] std::vector<RedundantEdge> redundant_constraints(
    const cg::ConstraintGraph& g, const anchors::AnchorAnalysis& analysis);

/// One removed constraint, in user orientation (for a max constraint
/// `from`/`to`/`bound` are the arguments add_max_constraint was called
/// with, not the stored backward edge).
struct StrippedEdge {
  cg::EdgeKind kind = cg::EdgeKind::kMinConstraint;
  VertexId from = VertexId::invalid();
  VertexId to = VertexId::invalid();
  int bound = 0;
};

/// Removes redundant constraints from `g`, re-verifying each candidate
/// against the partially stripped graph before removing it (so of two
/// mutually-implied duplicates exactly one survives). The stripped
/// graph has the bit-identical minimum relative schedule
/// (property-tested over randomized graphs). No-op on invalid or
/// infeasible graphs.
std::vector<StrippedEdge> strip_redundant(cg::ConstraintGraph& g);

// ---- Rendering / exit codes -----------------------------------------------

[[nodiscard]] std::string render_text(const Report& report,
                                      const cg::ConstraintGraph& g);

/// Stable JSON: {"graph", "findings": [{rule, severity, message,
/// suggestion, vertices: [{id, name}], edges: [{id, kind, from, to,
/// bound}]}], "counts": {errors, warnings, infos}}.
[[nodiscard]] std::string to_json(const Report& report,
                                  const cg::ConstraintGraph& g);

/// Severity gate for driver exit codes.
enum class FailOn { kError, kWarning, kInfo, kNever };

/// 0 when no finding reaches the gate; otherwise 3 / 4 / 5 for a
/// maximum severity of error / warning / info.
[[nodiscard]] int exit_code(const Report& report, FailOn fail_on);

}  // namespace relsched::lint
