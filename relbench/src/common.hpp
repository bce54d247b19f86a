// Shared plumbing of the relbench workloads: arguments, the result
// record printed as the last line of a run, seeded design corpora,
// percentiles and process metrics.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cg/constraint_graph.hpp"
#include "designs/generator.hpp"
#include "trace.hpp"

namespace relbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Smoke size: tiny designs and short phases, for the self-test.
  bool smoke = false;
  /// Directory for the Chrome trace and the server's state.
  std::string out_dir = ".";
  /// relsched_serve executable (serve_mix traffic only).
  std::string serve_bin;
  /// serve_mix offered-rate ladder (req/s), rungs run in order.
  std::vector<double> ladder;
  /// serve_mix p99 latency limit per rung.
  double slo_ms = 0;
};

/// One run's outcome: op counts, correctness, and metric values by
/// name. run.py attaches units and checks the names against
/// BENCHMARK.json.
struct Result {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::pair<std::string, double>> metrics;

  void metric(std::string name, double value) {
    metrics.emplace_back(std::move(name), value);
  }
  /// Records one failed op (counted against attempts) with its reason.
  void fail_op(const std::string& why);
  /// A correctness gate outside any single op failed.
  void fail_gate(const std::string& why);
};

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set of this process, MB.
[[nodiscard]] double self_peak_rss_mb();

/// Splitmix64 step: the benchmark's only entropy source besides --seed.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x);

/// Uniform double in [0, 1) from a 64-bit draw.
[[nodiscard]] inline double unit_double(std::uint64_t r) {
  return static_cast<double>(r >> 11) * (1.0 / 9007199254740992.0);
}

/// Generator seed of the workloads' fixed design sets. The designs are
/// data, the same in every run; --seed draws the order they are visited
/// in and the traffic on them. With per-seed designs a workload's
/// figures moved by 25-40% between seeds, as a property of the one
/// design (or the one largest design) the seed happened to draw.
inline constexpr std::uint64_t kCorpusSeed = 90;

/// Seeded corpus of `count` designs whose vertex counts are log-uniform
/// over [10^lo_log10, 10^hi_log10], stratified: design i sits inside
/// the i-th of `count` equal log-width strata (at a seeded position in
/// the stratum's middle fifth), so every seed draws the same size mix
/// and two runs differ only in graph structure. Anchor counts grow
/// with size, log-uniformly over [anchors_lo, anchors_hi].
[[nodiscard]] std::vector<relsched::designs::GeneratorParams> corpus_params(
    std::uint64_t seed, int count, double lo_log10, double hi_log10,
    int anchors_lo, int anchors_hi, const std::string& name);

/// A seeded permutation of 0 .. n-1: the order a corpus is visited in.
[[nodiscard]] std::vector<int> seeded_order(std::size_t n, std::uint64_t seed);

/// Generator parameters for one design with ~`anchors` anchors.
[[nodiscard]] relsched::designs::GeneratorParams design_params(
    std::uint64_t seed, int vertices, int anchors, const std::string& name);

/// Median of `repeats` timed set-ups; the last one's products are kept
/// by the caller through `setup`.
template <typename F>
double timed_setup(int repeats, F&& setup) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    setup();
    times.push_back(ms_since(t0) / 1000.0);
  }
  return median(times);
}

/// Ops of one measurement window: the whole run with one latency per
/// design.
struct Window {
  std::vector<double> op_ms;
  double vertices = 0;  // design vertices the window's ops completed
};

/// The corpus workloads' window: each design's median latency over the
/// passes (one noisy pass then moves nothing) and its vertex count.
[[nodiscard]] Window per_design_window(
    const std::vector<std::vector<double>>& design_ms,
    const std::vector<double>& design_vertices);

/// The end-to-end metrics every workload reports: op latency
/// percentiles and design vertices completed per second of op time,
/// plus set-up time and peak RSS. A percentile is the median of its
/// per-window values when every window holds at least ten samples
/// beyond it -- a host hiccup then moves one window, not the figure --
/// and is taken over all windows' ops pooled otherwise. Throughput is
/// the median of the windows' own.
void report_end_to_end(Result& result, const std::vector<Window>& windows,
                       double setup_s, double peak_rss_mb);

/// Per-layer metric `metric` = median self time of the spans named
/// `span`, in ms times `scale`.
void report_span(Result& result, const Trace& trace, const std::string& span,
                 const std::string& metric, double scale = 1);

/// trace.overhead_ratio: median traced op over median untraced op.
void report_overhead(Result& result, const std::vector<double>& traced_ms,
                     const std::vector<double>& untraced_ms);

/// Runs whole passes over a corpus while the next pass is predicted
/// (from the slowest so far) to end within `seconds`, and at least
/// `min_passes` times. Whole passes keep every run's op mix identical.
template <typename F>
void run_passes(double seconds, int min_passes, F&& pass) {
  const Clock::time_point t0 = Clock::now();
  double slowest_s = 0;
  for (int i = 0;; ++i) {
    const double elapsed_s = ms_since(t0) / 1000.0;
    if (i >= min_passes && elapsed_s + slowest_s > seconds) break;
    const Clock::time_point p0 = Clock::now();
    pass();
    slowest_s = std::max(slowest_s, ms_since(p0) / 1000.0);
  }
}

/// Set-up repetitions per run (setup_s is their median).
inline constexpr int kSetupRepeats = 7;

// Workload entry points. Each fills `result` with its metrics (the
// end-to-end set untraced, the per-layer set traced) and returns after
// about args.seconds of measurement.
void run_cold_corpus(const Args& args, Trace& trace, Result& result);
void run_lint_corpus(const Args& args, Trace& trace, Result& result);
/// The edit_stream phase, for about args.seconds: adds the warm-path
/// per-layer metrics. Run in cold_corpus's traced run (see
/// edit_stream.cpp).
void run_edit_stream(const Args& args, Trace& trace, Result& result);
/// The serve_mix traffic against a relsched_serve child, for about
/// args.seconds: adds the serve and persist per-layer metrics. Run in
/// lint_corpus's traced run (see serve_mix.cpp).
void run_serve_mix(const Args& args, Trace& trace, Result& result);

}  // namespace relbench
