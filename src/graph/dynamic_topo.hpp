// DynamicTopoOrder: a topological order maintained under arc insertion
// (Pearce–Kelly, "A Dynamic Topological Sort Algorithm for Directed
// Acyclic Graphs", JEA 2006).
//
// This is the graph-kernel piece of the incremental synthesis engine:
// the forward constraint graph Gf changes by one edge per design edit,
// and recomputing Kahn's order from scratch on every edit would make
// each warm reschedule pay O(V+E) before it even starts. An insertion
// (x, y) with ord[x] < ord[y] costs O(1); otherwise only the "affected
// region" — nodes ordered between y and x — is visited and reordered.
// Deletions need no call at all: removing an arc never invalidates a
// topological order of the remaining graph.
//
// The object holds the order and its inverse only. The arcs stay with
// the caller's graph, which add_arc() reads through callbacks.
#pragma once

#include <optional>
#include <vector>

#include "base/error.hpp"
#include "base/ids.hpp"
#include "base/vertex_mask.hpp"
#include "graph/digraph.hpp"

namespace relsched::graph {

class DynamicTopoOrder {
 public:
  DynamicTopoOrder() = default;

  /// Adopts Kahn's order of `g`. Returns false (and leaves the object
  /// invalid) when `g` is cyclic.
  bool reset(const Digraph& g);

  /// Adopts `order` verbatim. Pearce–Kelly orders are path-dependent
  /// (they record the history of insertions), so restoring a
  /// checkpointed session bit-identically requires restoring the exact
  /// order, not an equivalent one. Returns false (object invalid, order
  /// empty) for nullopt -- a cyclic graph has no order -- or unless
  /// `order` is a permutation of 0..order.size()-1; that every arc of
  /// the caller's graph points forward under it is the caller's check.
  bool adopt(std::optional<std::vector<int>> order);

  [[nodiscard]] bool valid() const { return valid_; }
  [[nodiscard]] int node_count() const { return static_cast<int>(order_.size()); }

  /// Topological order (node indices) / inverse (node -> position).
  [[nodiscard]] const std::vector<int>& order() const { return order_; }
  [[nodiscard]] int position(int node) const {
    return pos_[static_cast<std::size_t>(node)];
  }

  /// Inserts arc (from, to), locally reordering the affected region.
  /// `successors(v, visit)` must call `visit(w)` for each arc (v, w) of
  /// the caller's graph, `predecessors(v, visit)` `visit(u)` for each
  /// arc (u, v). The search follows only arcs that already point
  /// forward in the current order, so the callbacks may list arcs whose
  /// own insertion is still to come (they are ordered when it runs) and
  /// may omit arcs removed since: every arc that pointed forward before
  /// the call still does after it. Returns false and leaves the order
  /// unchanged when the arc would close a cycle through such arcs.
  template <class Successors, class Predecessors>
  bool add_arc(int from, int to, Successors&& successors,
               Predecessors&& predecessors) {
    RELSCHED_CHECK(valid_, "DynamicTopoOrder used before a successful reset");
    RELSCHED_CHECK(from >= 0 && from < node_count(), "arc tail out of range");
    RELSCHED_CHECK(to >= 0 && to < node_count(), "arc head out of range");
    if (from == to) return false;  // self loop is a cycle

    const int lo = position(to);
    const int hi = position(from);
    if (lo > hi) return true;  // already consistent with the order

    // Affected region: nodes with lo <= pos <= hi. Forward discovery
    // from `to` finds delta_f; reaching `from` proves the new arc closes
    // a cycle. Backward discovery from `from` finds delta_b.
    seen_.reset(node_count());
    delta_f_.clear();
    delta_b_.clear();
    discover(to, successors, delta_f_, [&](int v, int w) {
      return position(w) > position(v) && position(w) <= hi;
    });
    if (seen_.contains(VertexId(from))) return false;  // nothing modified yet
    discover(from, predecessors, delta_b_, [&](int v, int u) {
      return position(u) < position(v) && position(u) >= lo;
    });
    reorder();
    return true;
  }

 private:
  /// Depth-first search from `start` over the `neighbors` arcs (v, w)
  /// that `follow(v, w)` admits, appending every node found to `delta`.
  template <class Neighbors, class Follow>
  void discover(int start, Neighbors& neighbors, std::vector<int>& delta,
                Follow follow) {
    stack_.assign(1, start);
    seen_.insert(VertexId(start));
    while (!stack_.empty()) {
      const int v = stack_.back();
      stack_.pop_back();
      delta.push_back(v);
      neighbors(v, [&](int w) {
        if (follow(v, w) && !seen_.contains(VertexId(w))) {
          seen_.insert(VertexId(w));
          stack_.push_back(w);
        }
      });
    }
  }

  /// Packs delta_b_ (keeping its internal order), then delta_f_, into
  /// the union of their old positions, ascending.
  void reorder();

  bool valid_ = false;
  std::vector<int> order_;  // position -> node
  std::vector<int> pos_;    // node -> position
  // ---- Pooled add_arc scratch: a reordering insert touches only its
  // affected region, never O(V) allocations.
  base::VertexMask seen_;
  std::vector<int> delta_f_, delta_b_, stack_, slots_;
};

}  // namespace relsched::graph
