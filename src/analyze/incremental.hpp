// Incremental slack re-analysis on top of engine::SynthesisSession.
//
// A slack record of constraint edge (t -> h) reads per-vertex products
// at its endpoints only: A(t), length(a, t), length(a, h), and the
// zero-profile start times T0(t), T0(h). After a warm resolve the
// engine's dirty cone bounds every vertex whose per-vertex products may
// have changed (SynthesisSession::last_dirty_cone), and T0 itself can
// be patched inside the cone alone -- the cone is out-closed, so every
// anchor of an out-of-cone vertex is out-of-cone too and its T0 inputs
// are untouched (detail::patch_zero_profile_start_times).
//
// reanalyze() therefore recomputes only the slacks of constraints with
// an endpoint in the cone and carries the rest from the cached report,
// matched by constraint signature (kind, endpoints, bound) -- never by
// EdgeId, which remove_constraint's swap-pop invalidates. Cold
// resolves, failure verdicts, and the first call fall back to a full
// analyze(). The result is property-tested identical to a fresh
// analyze() of the current graph (tests/property_analyze.cpp).
#pragma once

#include <tuple>
#include <vector>

#include "analyze/analyze.hpp"
#include "engine/carry_over.hpp"
#include "engine/session.hpp"

namespace relsched::analyze {

class IncrementalAnalyzer {
 public:
  IncrementalAnalyzer() = default;

  /// Resolves the session (if needed) and returns the slack report for
  /// its current graph, reusing cached out-of-cone records after warm
  /// resolves. The reference stays valid until the next reanalyze().
  const Report& reanalyze(engine::SynthesisSession& session);

  /// How often reanalyze() ran a full analyze() vs. a cone-scoped one.
  [[nodiscard]] int full_analyses() const { return full_analyses_; }
  [[nodiscard]] int cone_analyses() const { return cone_analyses_; }

  /// Stored-orientation signature (kind, from, to, fixed_weight) of a
  /// cached slack record.
  using Sig = std::tuple<int, int, int, int>;

 private:
  Report report_;
  /// Gate and per-record signatures of report_.
  engine::CarryOver<Sig> carry_;
  /// Zero-profile start times the cached report was computed with;
  /// patched in place inside the dirty cone on the cone path.
  std::vector<graph::Weight> t0_;
  int full_analyses_ = 0;
  int cone_analyses_ = 0;
};

}  // namespace relsched::analyze
