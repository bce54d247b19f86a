#include "graph/dynamic_topo.hpp"

#include <algorithm>

#include "graph/algorithms.hpp"

namespace relsched::graph {

bool DynamicTopoOrder::reset(const Digraph& g) {
  return adopt(topological_order(g));
}

bool DynamicTopoOrder::adopt(std::optional<std::vector<int>> order) {
  valid_ = false;
  order_.clear();
  pos_.clear();
  if (!order.has_value()) return false;
  const std::size_t n = order->size();
  pos_.assign(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    const int v = (*order)[i];
    if (v < 0 || static_cast<std::size_t>(v) >= n ||
        pos_[static_cast<std::size_t>(v)] != -1) {
      pos_.clear();
      return false;  // not a permutation
    }
    pos_[static_cast<std::size_t>(v)] = static_cast<int>(i);
  }
  order_ = std::move(*order);
  valid_ = true;
  return true;
}

void DynamicTopoOrder::reorder() {
  const auto by_pos = [this](int a, int b) { return position(a) < position(b); };
  std::sort(delta_b_.begin(), delta_b_.end(), by_pos);
  std::sort(delta_f_.begin(), delta_f_.end(), by_pos);
  slots_.clear();
  for (int v : delta_b_) slots_.push_back(position(v));
  for (int v : delta_f_) slots_.push_back(position(v));
  std::sort(slots_.begin(), slots_.end());
  std::size_t slot = 0;
  for (const std::vector<int>* delta : {&delta_b_, &delta_f_}) {
    for (int v : *delta) {
      pos_[static_cast<std::size_t>(v)] = slots_[slot];
      order_[static_cast<std::size_t>(slots_[slot++])] = v;
    }
  }
}

}  // namespace relsched::graph
