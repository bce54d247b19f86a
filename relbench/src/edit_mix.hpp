// Seeded stream of constraint edits that keeps a design schedulable.
//
// Every edit either perturbs the design away from its base state or
// undoes an earlier perturbation (FIFO, at most kDepth outstanding):
//   - loosen a max bound (u -> u + d), later restore it;
//   - move a min bound: down by up to its value, or up by at most the
//     analyzer's slack for it (the minimum schedule stays identical),
//     later restore it;
//   - add a min or max constraint parallel to an existing one and
//     dominated by it (min weight <= the twin's, max bound > the
//     twin's), later remove it.
// Feasibility holds at every step: the base design with every
// tightening applied is feasible with the base schedule (each stays
// within a slack that no other tightening changes, because none of them
// moves the schedule), and every other perturbation only relaxes that
// graph. Well-posedness holds because no edit adds an edge between new
// endpoints. At most one added constraint is outstanding, so it is
// always the graph's last edge and its removal swap-pops nothing else.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "analyze/analyze.hpp"
#include "cg/constraint_graph.hpp"
#include "engine/session.hpp"

namespace relbench {

struct EditCmd {
  enum class Kind { kSetBound, kAddMin, kAddMax, kRemove };
  Kind kind = Kind::kSetBound;
  int a = 0;  // edge (kSetBound, kRemove) or from vertex (kAdd*)
  int b = 0;  // to vertex (kAdd*)
  int cycles = 0;
};

/// Applies `e` to `session` through its journaled edit calls.
void apply(relsched::engine::SynthesisSession& session, const EditCmd& e);

class EditMix {
 public:
  /// `slack` (may be null) is analyze::analyze of `base`; without it no
  /// min bound is raised.
  EditMix(const relsched::cg::ConstraintGraph& base,
          const relsched::analyze::Report* slack, std::uint64_t seed);

  /// The next edit of the stream. With `allow_add` false it adds no
  /// constraint (a caller that validates a whole batch against the
  /// pre-batch graph cannot remove an edge added in the same batch).
  [[nodiscard]] EditCmd next(bool allow_add = true);

  /// The undo of the oldest outstanding perturbation, or nullopt when
  /// none is outstanding: calling it until nullopt returns the design
  /// to its base state.
  [[nodiscard]] std::optional<EditCmd> undo_next();

 private:
  struct Bound {
    int edge = 0;
    int from = 0;  // user orientation
    int to = 0;
    int bound = 0;
    int slack = 0;  // min constraints: analyzer slack (0 if unknown)
  };
  static constexpr std::size_t kDepth = 4;

  [[nodiscard]] std::uint64_t draw();
  [[nodiscard]] EditCmd pop_undo();
  [[nodiscard]] const Bound* pick(const std::vector<Bound>& pool);

  std::vector<Bound> max_bounds_;
  std::vector<Bound> min_bounds_;
  std::vector<std::uint8_t> busy_;  // edge id -> perturbed or twinned
  std::deque<EditCmd> undo_;
  std::deque<int> undo_edge_;  // edge freed when undo_ entry runs (-1: none)
  int edges_ = 0;
  bool add_outstanding_ = false;
  std::uint64_t state_ = 0;
};

}  // namespace relbench
