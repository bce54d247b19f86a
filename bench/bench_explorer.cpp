// E13: parallel design-space exploration throughput.
//
// Takes a generated 10^4-vertex corpus design (designs::generate, the
// same parameters as bench_scale's 10^4 tier -- the paper suite's
// largest graph is 26 vertices, far too small for per-candidate
// resolve costs to dominate the fork overhead), builds a batch of
// bound-perturbation candidates around one resolved base session, and
// runs the same batch through explore::Explorer twice: sequentially
// (width 1) and in parallel (width 4). Every candidate is an
// independent copy-on-write fork resolving one transaction, so the
// parallel run must return bit-identical per-candidate products and
// the same winner -- that equivalence is checked unconditionally and is
// a hard failure.
//
// The >= 3x speedup gate only makes sense with real cores underneath;
// on machines with fewer than 4 hardware threads the gate is reported
// as SKIPPED and the binary exits 0 (CI runs this on 4-vCPU runners,
// where the gate is enforced). Emits BENCH_explorer.json either way.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "base/table.hpp"
#include "bench_json.hpp"
#include "designs/generator.hpp"
#include "engine/session.hpp"
#include "explore/explorer.hpp"

using namespace relsched;

namespace {

using Clock = std::chrono::steady_clock;

double median_us(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n == 0 ? 0.0
                : (n % 2 == 1 ? samples[n / 2]
                              : 0.5 * (samples[n / 2 - 1] + samples[n / 2]));
}

std::string fmt(double v, int precision = 1) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

struct Run {
  double us = 0;
  explore::ExplorationResult result;
  long long forks = 0;
};

}  // namespace

int main(int argc, char** argv) {
  // --check-only: enforce the bit-identical equivalence but skip the
  // speedup gate (used under ThreadSanitizer, whose instrumentation
  // distorts the timing comparison).
  // --advisory-speedup: measure and report the speedup gate but never
  // fail on it (used in CI, where shared noisy runners make a hard
  // timing gate flake-prone); bit-identity remains a hard failure.
  bool check_only = false;
  bool advisory = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--check-only") check_only = true;
    if (arg == "--advisory-speedup") advisory = true;
  }
  constexpr int kCandidateTarget = 64;
  constexpr int kRepeats = 7;
  constexpr int kParallelThreads = 4;
  constexpr double kRequiredSpeedup = 3.0;

  // The corpus design: a generated 10^4-vertex graph, the same shape
  // parameters as bench_scale's 10^4 tier. Candidate resolves on it
  // are dirty-cone-sized warm patches expensive enough for the pool to
  // matter; the paper suite's graphs resolve in microseconds and only
  // measure fork overhead.
  designs::GeneratorParams corpus;
  corpus.seed = 90;
  corpus.vertices = 10000;
  corpus.anchor_density = 32;  // ~32 anchors, matching the scale ladder
  corpus.name = "explorer";
  cg::ConstraintGraph graph = designs::generate(corpus);
  const std::string design_name = graph.name();

  // Editable max constraints: generated designs place a dense web of
  // them by construction.
  std::vector<EdgeId> max_edges;
  for (const cg::Edge& e : graph.edges()) {
    if (e.kind == cg::EdgeKind::kMaxConstraint) max_edges.push_back(e.id);
  }
  if (max_edges.empty()) {
    std::cerr << design_name << ": no editable max constraint found\n";
    return EXIT_FAILURE;
  }

  // Candidate batch: per max constraint, loosen the bound by 1..8
  // cycles -- every candidate stays feasible and floods that
  // constraint's dirty cone. Two-edit candidates (loosen, then settle
  // one cycle lower) exercise the transaction coalescing path.
  std::vector<explore::Candidate> candidates;
  for (int i = 0; candidates.size() < static_cast<std::size_t>(kCandidateTarget);
       ++i) {
    const EdgeId edge = max_edges[static_cast<std::size_t>(i) % max_edges.size()];
    const int bound = std::abs(graph.edge(edge).fixed_weight);
    const int delta = 1 + (i / static_cast<int>(max_edges.size())) % 8;
    explore::Candidate c;
    c.label = "e" + std::to_string(edge.value()) + "+" + std::to_string(delta);
    c.edits.push_back(explore::EditOp::set_bound(edge, bound + delta + 1));
    c.edits.push_back(explore::EditOp::set_bound(edge, bound + delta));
    candidates.push_back(std::move(c));
  }

  const explore::Objective objective = explore::min_latency();
  const auto run_with = [&](int threads, bool certify) {
    explore::ExplorerOptions opts;
    opts.threads = threads;
    engine::SessionOptions sopts;
    sopts.certify = certify;
    explore::Explorer explorer(engine::SynthesisSession(graph, sopts), opts);
    (void)explorer.explore(candidates, objective);  // warm-up
    std::vector<double> samples;
    Run run;
    for (int i = 0; i < kRepeats; ++i) {
      const auto t0 = Clock::now();
      run.result = explorer.explore(candidates, objective);
      samples.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    }
    run.us = median_us(samples);
    run.forks = explorer.base().stats().forks_taken;
    return run;
  };

  const Run sequential = run_with(1, false);
  const Run parallel = run_with(kParallelThreads, false);
  // Certification on: every candidate product is validated against its
  // edited graph by certify::check_products, and the results must still
  // be bit-identical to the uncertified runs (the certifier observes,
  // it must never perturb).
  const Run certified = run_with(kParallelThreads, true);

  // Hard requirement at ANY thread count, with or without the
  // certifier: same winner, bit-identical per-candidate products.
  const auto compare_runs = [&](const Run& lhs, const Run& rhs,
                                const char* what) {
    bool same = lhs.result.winner == rhs.result.winner;
    for (std::size_t i = 0; same && i < candidates.size(); ++i) {
      const explore::CandidateResult& a = lhs.result.candidates[i];
      const explore::CandidateResult& b = rhs.result.candidates[i];
      same = a.feasible == b.feasible && a.score == b.score &&
             a.products.schedule.status == b.products.schedule.status;
      for (int vi = 0; same && vi < graph.vertex_count(); ++vi) {
        same = a.products.schedule.schedule.offsets(VertexId(vi)) ==
               b.products.schedule.schedule.offsets(VertexId(vi));
      }
      if (!same) {
        std::cerr << "candidate " << a.label << ": " << what << "\n";
      }
    }
    return same;
  };
  const bool identical = compare_runs(sequential, parallel,
                                      "parallel result diverges from "
                                      "sequential");
  const bool certified_identical = compare_runs(
      parallel, certified, "certified result diverges from uncertified");
  long long certificate_failures = 0;
  for (const explore::CandidateResult& c : certified.result.candidates) {
    certificate_failures += c.stats.certificate_failures;
  }
  if (certificate_failures != 0) {
    std::cerr << "certifier tripped " << certificate_failures
              << " time(s) on a clean exploration\n";
  }

  const double speedup = parallel.us > 0 ? sequential.us / parallel.us : 0.0;
  const unsigned hardware = std::thread::hardware_concurrency();

  std::cout << "E13: parallel design-space exploration, " << candidates.size()
            << " candidates on " << design_name << " (|V|="
            << graph.vertex_count() << ", |E|=" << graph.edge_count() << ")\n\n";
  TextTable table;
  table.set_header({"mode", "threads", "explore (us)", "us/candidate", "forks"});
  table.add_row({"sequential", "1", fmt(sequential.us),
                 fmt(sequential.us / static_cast<double>(candidates.size())),
                 cat(sequential.forks)});
  table.add_row({"parallel", cat(kParallelThreads), fmt(parallel.us),
                 fmt(parallel.us / static_cast<double>(candidates.size())),
                 cat(parallel.forks)});
  table.add_row({"certified", cat(kParallelThreads), fmt(certified.us),
                 fmt(certified.us / static_cast<double>(candidates.size())),
                 cat(certified.forks)});
  table.print(std::cout);
  std::cout << "\nwinner: "
            << (parallel.result.winner >= 0 ? parallel.result.best().label
                                            : std::string("<none>"))
            << "; per-candidate results bit-identical across thread counts: "
            << (identical ? "yes" : "NO")
            << "; with certification on: "
            << (certified_identical ? "yes" : "NO") << "\n";

  const bool gate_applies =
      !check_only && hardware >= static_cast<unsigned>(kParallelThreads);
  const std::string gate = !gate_applies          ? "SKIPPED"
                           : speedup >= kRequiredSpeedup
                               ? "HOLDS"
                               : (advisory ? "FAILS (advisory)" : "FAILS");

  benchio::Json scores = benchio::Json::array();
  for (const explore::CandidateResult& c : parallel.result.candidates) {
    scores.element(c.feasible ? c.score : -1.0);
  }
  benchio::Json::object()
      .field("bench", "explorer")
      .field("design", design_name)
      .field("corpus",
             benchio::Json::object()
                 .field("generator", "designs::generate")
                 .field("seed", static_cast<long long>(corpus.seed))
                 .field("vertices", corpus.vertices)
                 .field("anchor_density", corpus.anchor_density))
      .field("vertices", graph.vertex_count())
      .field("edges", graph.edge_count())
      .field("candidates", static_cast<int>(candidates.size()))
      .field("repeats", kRepeats)
      .field("parallel_threads", kParallelThreads)
      .field("hardware_concurrency", static_cast<int>(hardware))
      .field("sequential_us", sequential.us)
      .field("parallel_us", parallel.us)
      .field("speedup", speedup)
      .field("identical", identical)
      .field("certified_us", certified.us)
      .field("certified_identical", certified_identical)
      .field("certificate_failures", certificate_failures)
      .field("required_speedup", kRequiredSpeedup)
      .field("gate", gate)
      .field("gate_mode", check_only  ? std::string("skipped")
                          : advisory  ? std::string("advisory")
                                      : std::string("enforced"))
      .field("winner",
             parallel.result.winner >= 0 ? parallel.result.best().label
                                         : std::string("<none>"))
      .field("scores", scores)
      .write("BENCH_explorer.json");
  std::cout << "wrote BENCH_explorer.json\n";

  if (!identical || !certified_identical || certificate_failures != 0) {
    return EXIT_FAILURE;
  }
  std::cout << "\n" << kParallelThreads << "-thread speedup: " << fmt(speedup, 2)
            << "x (required: >= " << fmt(kRequiredSpeedup) << "x, "
            << "hardware threads: " << hardware << "): " << gate << "\n";
  if (!gate_applies) {
    std::cout << (check_only ? "--check-only: speedup gate skipped\n"
                             : "fewer than 4 hardware threads: speedup gate "
                               "skipped\n");
    return EXIT_SUCCESS;
  }
  if (speedup < kRequiredSpeedup && advisory) {
    std::cout << "--advisory-speedup: gate miss reported, not enforced\n";
    return EXIT_SUCCESS;
  }
  return speedup >= kRequiredSpeedup ? EXIT_SUCCESS : EXIT_FAILURE;
}
