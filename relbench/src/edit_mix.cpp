#include "edit_mix.hpp"

#include <algorithm>
#include <stdexcept>

#include "common.hpp"

namespace relbench {

using relsched::cg::EdgeKind;

void apply(relsched::engine::SynthesisSession& session, const EditCmd& e) {
  using relsched::EdgeId;
  using relsched::VertexId;
  switch (e.kind) {
    case EditCmd::Kind::kSetBound:
      session.set_constraint_bound(EdgeId(e.a), e.cycles);
      break;
    case EditCmd::Kind::kAddMin:
      session.add_min_constraint(VertexId(e.a), VertexId(e.b), e.cycles);
      break;
    case EditCmd::Kind::kAddMax:
      session.add_max_constraint(VertexId(e.a), VertexId(e.b), e.cycles);
      break;
    case EditCmd::Kind::kRemove:
      session.remove_constraint(EdgeId(e.a));
      break;
  }
}

EditMix::EditMix(const relsched::cg::ConstraintGraph& base,
                 const relsched::analyze::Report* slack, std::uint64_t seed)
    : busy_(static_cast<std::size_t>(base.edge_count()), 0),
      edges_(base.edge_count()),
      state_(seed) {
  std::vector<int> slack_of(static_cast<std::size_t>(base.edge_count()), 0);
  if (slack != nullptr && slack->ok()) {
    for (const relsched::analyze::ConstraintSlack& s : slack->slacks) {
      slack_of[s.edge.index()] =
          static_cast<int>(std::min<relsched::graph::Weight>(s.slack, 1 << 20));
    }
  }
  for (const relsched::cg::Edge& e : base.edges()) {
    if (e.kind == EdgeKind::kMaxConstraint) {
      // Stored backward: add_max_constraint(from, to, u) is edge to->from.
      max_bounds_.push_back({e.id.value(), e.to.value(), e.from.value(),
                             -e.fixed_weight, 0});
    } else if (e.kind == EdgeKind::kMinConstraint) {
      min_bounds_.push_back({e.id.value(), e.from.value(), e.to.value(),
                             e.fixed_weight, slack_of[e.id.index()]});
    }
  }
}

std::uint64_t EditMix::draw() {
  state_ = mix64(state_);
  return state_;
}

const EditMix::Bound* EditMix::pick(const std::vector<Bound>& pool) {
  if (pool.empty()) return nullptr;
  for (int attempt = 0; attempt < 8; ++attempt) {
    const Bound& b = pool[draw() % pool.size()];
    if (busy_[static_cast<std::size_t>(b.edge)] == 0) return &b;
  }
  return nullptr;
}

EditCmd EditMix::pop_undo() {
  EditCmd cmd = undo_.front();
  undo_.pop_front();
  const int freed = undo_edge_.front();
  undo_edge_.pop_front();
  if (freed >= 0) busy_[static_cast<std::size_t>(freed)] = 0;
  if (cmd.kind == EditCmd::Kind::kRemove) {
    add_outstanding_ = false;
    --edges_;
  }
  return cmd;
}

std::optional<EditCmd> EditMix::undo_next() {
  if (undo_.empty()) return std::nullopt;
  return pop_undo();
}

EditCmd EditMix::next(bool allow_add) {
  for (int attempt = 0;; ++attempt) {
    if (undo_.empty() && attempt > 1000) {
      throw std::runtime_error("EditMix: the design has no editable constraint");
    }
    if (undo_.size() >= kDepth ||
        (!undo_.empty() && (attempt > 16 || draw() % 2 == 0))) {
      return pop_undo();
    }
    const std::uint64_t r = draw();
    const int d = 1 + static_cast<int>((r >> 16) % 8);
    switch (r % 4) {
      case 0: {  // loosen a max bound
        const Bound* b = pick(max_bounds_);
        if (b == nullptr) continue;
        busy_[static_cast<std::size_t>(b->edge)] = 1;
        undo_.push_back({EditCmd::Kind::kSetBound, b->edge, 0, b->bound});
        undo_edge_.push_back(b->edge);
        return {EditCmd::Kind::kSetBound, b->edge, 0, b->bound + d};
      }
      case 1: {  // move a min bound down, or up within its slack
        const Bound* b = pick(min_bounds_);
        if (b == nullptr) continue;
        int to = b->bound;
        if (b->slack > 0 && (r >> 8) % 2 == 0) {
          to = b->bound + 1 + static_cast<int>((r >> 24) % std::min(b->slack, 8));
        } else if (b->bound > 0) {
          to = b->bound - 1 - static_cast<int>((r >> 24) % std::min(b->bound, 8));
        } else {
          continue;
        }
        busy_[static_cast<std::size_t>(b->edge)] = 1;
        undo_.push_back({EditCmd::Kind::kSetBound, b->edge, 0, b->bound});
        undo_edge_.push_back(b->edge);
        return {EditCmd::Kind::kSetBound, b->edge, 0, to};
      }
      default: {  // add a dominated twin of a min or max constraint
        if (add_outstanding_ || !allow_add) continue;
        const bool is_min = r % 4 == 2;
        const Bound* b = pick(is_min ? min_bounds_ : max_bounds_);
        if (b == nullptr) continue;
        // The twin pins its original: neither is touched until removal.
        busy_[static_cast<std::size_t>(b->edge)] = 1;
        add_outstanding_ = true;
        undo_.push_back({EditCmd::Kind::kRemove, edges_, 0, 0});
        undo_edge_.push_back(b->edge);
        ++edges_;
        if (is_min) {
          return {EditCmd::Kind::kAddMin, b->from, b->to,
                  static_cast<int>((r >> 24) % static_cast<unsigned>(b->bound + 1))};
        }
        return {EditCmd::Kind::kAddMax, b->from, b->to, b->bound + d};
      }
    }
  }
}

}  // namespace relbench
