#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>

namespace relbench {

void Result::fail_op(const std::string& why) {
  ++failed;
  correct = false;
  std::fprintf(stderr, "relbench: op failed: %s\n", why.c_str());
}

void Result::fail_gate(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "relbench: correctness gate failed: %s\n", why.c_str());
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0 || values[hi] == values[lo]) return values[lo];
  if (std::isinf(values[hi])) return values[hi];  // a miss in the tail
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double self_peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void report_end_to_end(Result& result, const std::vector<Window>& windows,
                       double setup_s, double peak_rss_mb) {
  std::vector<double> pooled;
  std::vector<double> throughput;  // per window: kvertex/s = vertex/ms
  std::size_t smallest = windows.empty() ? 0 : SIZE_MAX;
  for (const Window& w : windows) {
    pooled.insert(pooled.end(), w.op_ms.begin(), w.op_ms.end());
    smallest = std::min(smallest, w.op_ms.size());
    double total_ms = 0;
    for (const double ms : w.op_ms) total_ms += ms;
    if (total_ms > 0) throughput.push_back(w.vertices / total_ms);
  }
  for (const auto& [name, q] : {std::pair{"op_ms.p50", 0.50},
                                std::pair{"op_ms.p90", 0.90},
                                std::pair{"op_ms.p99", 0.99}}) {
    const bool per_window = static_cast<double>(smallest) * (1 - q) >= 10;
    std::vector<double> values;
    if (per_window) {
      for (const Window& w : windows) values.push_back(quantile(w.op_ms, q));
    }
    result.metric(name, per_window ? median(values) : quantile(pooled, q));
  }
  result.metric("kvertices_per_s", median(throughput));
  result.metric("setup_s", setup_s);
  result.metric("peak_rss_mb", peak_rss_mb);
}

Window per_design_window(const std::vector<std::vector<double>>& design_ms,
                         const std::vector<double>& design_vertices) {
  Window w;
  for (std::size_t d = 0; d < design_ms.size(); ++d) {
    if (design_ms[d].empty()) continue;
    w.op_ms.push_back(median(design_ms[d]));
    w.vertices += design_vertices[d];
  }
  return w;
}

void report_span(Result& result, const Trace& trace, const std::string& span,
                 const std::string& metric, double scale) {
  result.metric(metric, median(trace.self_ms(span)) * scale);
}

void report_overhead(Result& result, const std::vector<double>& traced_ms,
                     const std::vector<double>& untraced_ms) {
  const double base = median(untraced_ms);
  result.metric("trace.overhead_ratio",
                base > 0 ? median(traced_ms) / base : 0);
}

std::vector<int> seeded_order(std::size_t n, std::uint64_t seed) {
  std::vector<int> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<int>(i);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[mix64(seed ^ i) % i]);
  }
  return order;
}

relsched::designs::GeneratorParams design_params(std::uint64_t seed,
                                                 int vertices, int anchors,
                                                 const std::string& name) {
  relsched::designs::GeneratorParams p;
  p.seed = seed;
  p.vertices = vertices;
  // Draw anchors at 1.5x the target rate and cap at the target, so the
  // count lands on it while the anchors still spread over most of the
  // design.
  p.anchor_density =
      std::max(1, static_cast<int>(15000.0 * anchors / std::max(vertices, 1)));
  p.max_anchors = anchors;
  p.name = name;
  return p;
}

std::vector<relsched::designs::GeneratorParams> corpus_params(
    std::uint64_t seed, int count, double lo_log10, double hi_log10,
    int anchors_lo, int anchors_hi, const std::string& name) {
  std::vector<relsched::designs::GeneratorParams> out;
  for (int i = 0; i < count; ++i) {
    const std::uint64_t r = mix64(seed * 0x100000001b3ULL + static_cast<std::uint64_t>(i));
    const double u = (i + 0.4 + 0.2 * unit_double(r)) / count;
    const int vertices = static_cast<int>(
        std::lround(std::pow(10.0, lo_log10 + (hi_log10 - lo_log10) * u)));
    const int anchors = static_cast<int>(std::lround(
        anchors_lo * std::pow(static_cast<double>(anchors_hi) / anchors_lo, u)));
    out.push_back(design_params(mix64(r), vertices, anchors, name));
  }
  return out;
}

}  // namespace relbench
