// Incremental re-lint on top of engine::SynthesisSession.
//
// After a warm resolve the engine publishes the dirty cone -- the set
// of vertices whose derived PER-VERTEX products (anchor sets, path
// rows, offsets) may have changed (SynthesisSession::last_dirty_cone).
// That contract gives two rules a cone footprint:
//
//   never-binding of edge e    reads length(a, .) and A(.) at both
//                              endpoints: stable while both stay
//                              outside the cone;
//   dead-anchor                reads R(sink): stable while the sink
//                              stays outside the cone.
//
// Redundancy has NO such footprint: whether edge e is implied is a
// whole-graph path query, and a constraint edit can create or break an
// implying walk without changing any per-vertex product (a redundant,
// never-binding edge leaves offsets and anchor rows untouched).
// Redundancy verdicts are therefore recomputed on every relint.
//
// relint() recomputes the findings whose footprint intersects the cone
// (plus all redundancy verdicts) and carries the rest over from the
// cached report, matched by constraint signature (kind, endpoints,
// bound) -- never by EdgeId, which remove_constraint's swap-pop
// invalidates.
// Cold resolves, failure verdicts, and the first call fall back to a
// full analyze(). The result is property-tested identical to a fresh
// analyze() of the current graph (tests/property_lint.cpp).
#pragma once

#include <tuple>

#include "engine/carry_over.hpp"
#include "engine/session.hpp"
#include "lint/lint.hpp"

namespace relsched::lint {

class IncrementalLinter {
 public:
  explicit IncrementalLinter(Options options = {}) : options_(options) {}

  /// Resolves the session (if needed) and returns the lint report for
  /// its current graph, reusing cached findings outside the dirty cone
  /// after warm resolves. The reference stays valid until the next
  /// relint() call.
  const Report& relint(engine::SynthesisSession& session);

  /// How often relint() ran a full analyze() vs. a cone-scoped one.
  [[nodiscard]] int full_lints() const { return full_lints_; }
  [[nodiscard]] int cone_lints() const { return cone_lints_; }

  /// Constraint signature of a cached finding: (rule, kind, from, to,
  /// fixed_weight) for edge findings, (rule, vertex, -1, -1, -1) for
  /// vertex-only ones.
  using Sig = std::tuple<int, int, int, int, int>;

 private:
  Options options_;
  Report report_;
  /// Gate and per-finding signatures of report_.
  engine::CarryOver<Sig> carry_;
  int full_lints_ = 0;
  int cone_lints_ = 0;
};

}  // namespace relsched::lint
