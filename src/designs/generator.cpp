#include "designs/generator.hpp"

#include <algorithm>
#include <ranges>
#include <vector>

#include "anchors/anchor_analysis.hpp"
#include "base/strings.hpp"
#include "cg/longest_paths.hpp"
#include "graph/algorithms.hpp"

namespace relsched::designs {

namespace {

/// splitmix64 (Steele, Lea, Flood 2014): the standard 64-bit mixer.
/// Chosen over <random> engines because its output is pinned by the
/// reference algorithm, not by a library implementation -- the
/// determinism guarantee must hold across standard libraries.
struct SplitMix64 {
  std::uint64_t state;

  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform draw from [0, bound); bound >= 1. Modulo bias is
  /// irrelevant here (shape parameters, not cryptography), and modulo
  /// keeps the draw a single deterministic integer op.
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
};

}  // namespace

cg::ConstraintGraph generate(const GeneratorParams& params) {
  const int n = std::max(params.vertices, 3);
  const int width = std::max(params.width, 1);
  const int max_delay = std::max(params.max_delay, 1);
  // Mix a constant into the seed so seed 0 still yields a lively
  // stream (splitmix64 starting at 0 begins with small outputs).
  SplitMix64 rng{params.seed ^ 0x0123456789abcdefULL};

  cg::ConstraintGraph g(cat(params.name, "_s", params.seed));

  // ---- Vertices. Ids 0..n-1; id order doubles as a topological order
  // because every forward edge below points id-upward.
  g.add_vertex("src", cg::Delay::bounded(0));
  int anchors_placed = 0;
  for (int v = 1; v < n - 1; ++v) {
    // The max_anchors cap is checked before the density draw, so a
    // capped-out build consumes no anchor draws for the remaining
    // vertices; with the cap disabled (0) the draw sequence is
    // byte-identical to builds that predate the knob.
    const bool anchor =
        params.anchor_density > 0 &&
        (params.max_anchors <= 0 || anchors_placed < params.max_anchors) &&
        rng.below(10000) < static_cast<std::uint64_t>(params.anchor_density);
    if (anchor) ++anchors_placed;
    g.add_vertex(cat("v", v),
                 anchor ? cg::Delay::unbounded()
                        : cg::Delay::bounded(1 + static_cast<int>(
                                                     rng.below(max_delay))));
  }
  g.add_vertex("snk", cg::Delay::bounded(0));
  const VertexId sink(n - 1);

  // ---- Skeleton: one sequencing parent per vertex. Continuing the
  // immediately preceding vertex builds deep chains (nested loops when
  // anchors land on them); forking off a uniformly random earlier
  // vertex opens parallel blocks. Every vertex is reachable from the
  // source through its parent chain.
  std::vector<int> forward_out(static_cast<std::size_t>(n), 0);
  for (int v = 1; v < n - 1; ++v) {
    int parent = v - 1;
    if (v > 1 && rng.below(static_cast<std::uint64_t>(width)) == 0) {
      parent = static_cast<int>(rng.below(static_cast<std::uint64_t>(v)));
    }
    g.add_sequencing_edge(VertexId(parent), VertexId(v));
    ++forward_out[static_cast<std::size_t>(parent)];
  }
  // Polar closure: every dangling branch end joins the sink, so the
  // sink is the unique forward-out-degree-0 vertex.
  for (int v = 0; v < n - 1; ++v) {
    if (forward_out[static_cast<std::size_t>(v)] == 0) {
      g.add_sequencing_edge(VertexId(v), sink);
    }
  }

  // ---- Min-constraint web: extra forward edges (id-increasing, so Gf
  // stays acyclic) with small bounds, thickening the longest-path
  // structure the scheduler and anchor analysis traverse.
  const long long min_edges =
      static_cast<long long>(n) * std::max(params.min_density, 0) / 10000;
  for (long long i = 0; i < min_edges; ++i) {
    const int from = static_cast<int>(rng.below(static_cast<std::uint64_t>(n - 1)));
    const int span = 1 + static_cast<int>(rng.below(
                             static_cast<std::uint64_t>(n - 1 - from)));
    const int to = from + span;
    g.add_min_constraint(VertexId(from), VertexId(to),
                         static_cast<int>(rng.below(
                             static_cast<std::uint64_t>(2 * max_delay + 1))));
  }

  // ---- Longest paths from the source in G0 (unbounded weights 0).
  // Ids are a topological order of Gf, which at this point is the
  // whole graph, so one id-order sweep suffices. dist becomes the
  // potential function certifying feasibility of the max web below.
  std::vector<graph::Weight> dist(static_cast<std::size_t>(n), 0);
  (void)cg::relax_in_order(g, std::views::iota(0, n),
                           [](const cg::Edge&) { return true; }, dist,
                           /*max_passes=*/1);

  // ---- Max-constraint web. A window h => t (h before t) is placed
  // only where A(t) subset-of A(h) -- no anchor feeds the window, so
  // the constraint is well-posed (Theorem 2) -- with bound
  // u = max(0, dist(t) - dist(h)) + slack, which dist satisfies as a
  // potential (feasible, Theorem 1). Windows are drawn locally
  // (geometric-ish spans) so the bounds stay binding rather than
  // degenerating into never-taut long-range constraints.
  const anchors::AnchorSets sets = anchors::find_anchor_sets(g);
  const long long max_attempts =
      static_cast<long long>(n) * std::max(params.max_density, 0) / 10000;
  for (long long i = 0; i < max_attempts; ++i) {
    const int h = static_cast<int>(rng.below(static_cast<std::uint64_t>(n - 1)));
    const int span = 1 + static_cast<int>(rng.below(64));
    const int t = std::min(n - 1, h + span);
    // Draw the slack unconditionally so a rejected window consumes the
    // same number of stream values as an accepted one: acceptance
    // depends on the graph, and the stream must not.
    const int slack = static_cast<int>(rng.below(4));
    if (!sets.view(VertexId(t)).is_subset_of(sets.view(VertexId(h)))) continue;
    const graph::Weight gap = dist[static_cast<std::size_t>(t)] -
                              dist[static_cast<std::size_t>(h)];
    const graph::Weight u = std::max<graph::Weight>(gap, 0) + slack;
    g.add_max_constraint(VertexId(h), VertexId(t), static_cast<int>(u));
  }

  return g;
}

}  // namespace relsched::designs
