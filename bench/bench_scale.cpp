// E14: scaling the core structures -- the data-oriented engine at
// 10^3 / 10^4 / 10^5 / 10^6-vertex synthetic designs.
//
// The paper's suite tops out at a few hundred operations; this harness
// drives the generated mega-designs (designs::generate) through the
// certified incremental engine and reports, per size:
//
//   cold     - a fresh certified SynthesisSession::resolve();
//   warm     - a >= 100-edit sequence (alternately loosening and
//              restoring max-constraint bounds spread across the
//              design), every resolve certified and required to take
//              the warm path;
//   phase    - the warm-path breakdown (topo patch / SPFA repair /
//              anchor patch / reschedule), averaged per warm resolve;
//   parallel - the anchor-analysis phase timed sequentially vs sharded
//              across a thread pool (cold per-anchor rows, and
//              the whole warm edit sequence re-run on a pooled
//              session).
//
// Gates:
//   hard     - warm products after the edit sequence are bit-identical
//              to a cold recompute of the edited graph (anchor sets,
//              irredundant sets, path rows, offsets), no certificate
//              failures, every edit served warm; AND every parallel
//              run (cold anchor analysis, pooled warm sequence) is
//              bit-identical to its sequential twin -- determinism is
//              a correctness property, enforced at every tier and
//              thread count;
//   timing   - the parallel anchor phase is >= 2x faster than
//              sequential at 4 threads on the 10^5 tier. Enforced only
//              where it is meaningful: >= 4 hardware threads, not
//              --check-only, not --advisory-speedup (else reported as
//              SKIPPED / FAILS (advisory) and the exit stays 0);
//   advisory - the anchor patch is not the dominant warm-phase cost at
//              the largest size (printed, reported in the JSON, never
//              the exit code).
//
// The 10^6 tier additionally round-trips the design through the
// streamed binary graph format (cg::write_binary_file /
// read_binary_file) and requires the loaded graph to be identical --
// the scale path `relsched_cli gen --binary` feeds the driver.
//
// Emits BENCH_scale.json (committed CI artifact).
//
// Flags:
//   --vertices N         run one size instead of the built-in ladder
//   --edits N            warm-sequence length (default 120; the 10^6
//                        tier clamps it to 40)
//   --seed N             generator seed (default 90)
//   --threads N          pool width for the parallel runs (default 4)
//   --advisory-speedup   report the anchor-phase speedup gate but
//                        never fail on it (noisy shared CI runners)
//   --check-only         sanitizer-CI mode: one size (default 10^4), a
//                        short edit sequence, every bit-identity gate
//                        (parallel runs included) plus the binary
//                        round-trip and an explorer batch; no timing
//                        repeats, no JSON
//   --out FILE           JSON path (default BENCH_scale.json)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/table.hpp"
#include "base/thread_pool.hpp"
#include "bench_json.hpp"
#include "cg/graph_io.hpp"
#include "designs/generator.hpp"
#include "engine/session.hpp"
#include "explore/explorer.hpp"

using namespace relsched;

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kRequiredAnchorSpeedup = 2.0;

double median_us(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n == 0 ? 0.0
               : (n % 2 == 1 ? samples[n / 2]
                             : 0.5 * (samples[n / 2 - 1] + samples[n / 2]));
}

template <typename Fn>
double timed_us(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  const auto t1 = Clock::now();
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

/// Bit-identical comparison of warm products against a cold recompute.
/// Returns false (after printing the first divergence) on any mismatch.
bool products_match(const engine::Products& warm, const engine::Products& cold,
                    const cg::ConstraintGraph& g, const char* what) {
  if (warm.schedule.status != cold.schedule.status) {
    std::cerr << what << ": status diverged\n";
    return false;
  }
  if (!(warm.analysis.anchors() == cold.analysis.anchors())) {
    std::cerr << what << ": anchor lists diverged\n";
    return false;
  }
  for (int vi = 0; vi < g.vertex_count(); ++vi) {
    const VertexId v(vi);
    if (!(warm.analysis.anchor_set(v) == cold.analysis.anchor_set(v))) {
      std::cerr << what << ": A(v" << vi << ") diverged\n";
      return false;
    }
    if (!(warm.analysis.irredundant_set(v) ==
          cold.analysis.irredundant_set(v))) {
      std::cerr << what << ": IR(v" << vi << ") diverged\n";
      return false;
    }
    for (VertexId anchor : warm.analysis.anchors()) {
      if (warm.analysis.length(anchor, v) != cold.analysis.length(anchor, v)) {
        std::cerr << what << ": length(v" << anchor.value() << ", v" << vi
                  << ") diverged\n";
        return false;
      }
    }
    if (!(warm.schedule.schedule.offsets(v) ==
          cold.schedule.schedule.offsets(v))) {
      std::cerr << what << ": offsets(v" << vi << ") diverged\n";
      return false;
    }
  }
  return true;
}

/// Bit-identical comparison of two standalone anchor analyses (the
/// sequential and pool-sharded cold computes).
bool analyses_match(const anchors::AnchorAnalysis& a,
                    const anchors::AnchorAnalysis& b,
                    const cg::ConstraintGraph& g) {
  if (!(a.anchors() == b.anchors())) {
    std::cerr << "anchor analysis: anchor lists diverged\n";
    return false;
  }
  for (int vi = 0; vi < g.vertex_count(); ++vi) {
    const VertexId v(vi);
    if (!(a.anchor_set(v) == b.anchor_set(v)) ||
        !(a.irredundant_set(v) == b.irredundant_set(v))) {
      std::cerr << "anchor analysis: sets for v" << vi << " diverged\n";
      return false;
    }
    for (VertexId anchor : a.anchors()) {
      if (a.length(anchor, v) != b.length(anchor, v)) {
        std::cerr << "anchor analysis: length(v" << anchor.value() << ", v"
                  << vi << ") diverged\n";
        return false;
      }
    }
  }
  return true;
}

/// Structural equality of two graphs (vertex names/delays, edge
/// kinds/endpoints/bounds) without materializing either as text --
/// the binary round-trip check at 10^6 vertices must not allocate the
/// strings the binary format exists to avoid.
bool graphs_equal(const cg::ConstraintGraph& a, const cg::ConstraintGraph& b) {
  if (a.name() != b.name() || a.vertex_count() != b.vertex_count() ||
      a.edge_count() != b.edge_count()) {
    std::cerr << "binary round-trip: shape diverged\n";
    return false;
  }
  for (int vi = 0; vi < a.vertex_count(); ++vi) {
    const cg::Vertex& va = a.vertex(VertexId(vi));
    const cg::Vertex& vb = b.vertex(VertexId(vi));
    if (va.name != vb.name ||
        va.delay.is_unbounded() != vb.delay.is_unbounded() ||
        (!va.delay.is_unbounded() && va.delay.cycles() != vb.delay.cycles())) {
      std::cerr << "binary round-trip: vertex " << vi << " diverged\n";
      return false;
    }
  }
  for (int ei = 0; ei < a.edge_count(); ++ei) {
    const cg::Edge& ea = a.edge(EdgeId(ei));
    const cg::Edge& eb = b.edge(EdgeId(ei));
    if (ea.kind != eb.kind || ea.from != eb.from || ea.to != eb.to ||
        ea.fixed_weight != eb.fixed_weight) {
      std::cerr << "binary round-trip: edge " << ei << " diverged\n";
      return false;
    }
  }
  return true;
}

/// Max-constraint edges spread evenly through the design: the edit
/// sequence toggles their bounds round-robin so consecutive warm
/// resolves exercise different dirty cones.
std::vector<EdgeId> edit_targets(const cg::ConstraintGraph& g, int want) {
  std::vector<EdgeId> all;
  for (const cg::Edge& e : g.edges()) {
    if (e.kind == cg::EdgeKind::kMaxConstraint) all.push_back(e.id);
  }
  if (static_cast<int>(all.size()) <= want) return all;
  std::vector<EdgeId> picked;
  const std::size_t stride = all.size() / static_cast<std::size_t>(want);
  for (int i = 0; i < want; ++i) picked.push_back(all[i * stride]);
  return picked;
}

designs::GeneratorParams params_for(int vertices, std::uint64_t seed) {
  designs::GeneratorParams p;
  p.seed = seed;
  p.vertices = vertices;
  // Hold the anchor count near ~32 across the ladder (real designs
  // carry a handful of data-dependent loops regardless of size); the
  // per-anchor structures then scale in |V|, which is the axis under
  // test, instead of |A|*|V|.
  p.anchor_density = std::max(1, 320000 / std::max(vertices, 1));
  // The density floor of 1/10000 over-delivers at 10^6 vertices
  // (~100 anchors); the cap keeps the row footprint (two 8-byte Weight
  // rows per anchor per vertex) near half a gigabyte per analysis.
  if (vertices >= 1000000) p.max_anchors = 32;
  p.name = "scale";
  return p;
}

struct Row {
  int vertices = 0;
  int edges = 0;
  int anchors = 0;
  int edits = 0;
  double cold_us = 0;
  double warm_us = 0;
  int dirty_cone = 0;
  double topo_us = 0;
  double spfa_us = 0;
  double anchor_us = 0;
  double resched_us = 0;
  bool anchor_dominant = false;
  // Parallel twins (pool of width `threads`) of the cold
  // anchor-analysis phase and the warm edit sequence.
  double anchor_seq_us = 0;
  double anchor_par_us = 0;
  double warm_par_us = 0;
  // Streamed binary format round-trip (10^6 tier and --check-only).
  bool binary_checked = false;
  double binary_write_us = 0;
  double binary_read_us = 0;

  [[nodiscard]] double speedup() const {
    return warm_us > 0 ? cold_us / warm_us : 0.0;
  }
  [[nodiscard]] double anchor_speedup() const {
    return anchor_par_us > 0 ? anchor_seq_us / anchor_par_us : 0.0;
  }
  [[nodiscard]] double warm_parallel_speedup() const {
    return warm_par_us > 0 ? warm_us / warm_par_us : 0.0;
  }
};

std::string fmt(double v, int precision = 1) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

/// Runs the warm edit sequence on `session` (already resolved once);
/// returns false on any hard-gate failure. Fills `median_out` with the
/// median per-resolve time and enforces the warm-path/certifier gates.
bool run_edit_sequence(engine::SynthesisSession& session,
                       const std::vector<EdgeId>& targets,
                       const std::vector<int>& bounds, int edits,
                       const char* what, double* median_out) {
  std::vector<double> samples;
  for (int i = 0; i < edits; ++i) {
    const std::size_t t = static_cast<std::size_t>(i) % targets.size();
    const bool loosen = (i / targets.size()) % 2 == 0;
    session.set_constraint_bound(targets[t],
                                 loosen ? bounds[t] + 1 : bounds[t]);
    samples.push_back(timed_us([&] { session.resolve(); }));
    if (!session.products().ok()) {
      std::cerr << what << ": warm resolve " << i << " failed: "
                << session.products().schedule.message << "\n";
      return false;
    }
  }
  const engine::SessionStats stats = session.stats();
  if (stats.warm_resolves < edits) {
    std::cerr << what << ": only " << stats.warm_resolves << "/" << edits
              << " resolves took the warm path\n";
    return false;
  }
  if (stats.certificate_failures != 0) {
    std::cerr << what << ": certifier tripped on a clean run\n";
    return false;
  }
  *median_out = median_us(samples);
  return true;
}

/// One size of the ladder: cold timing, the sequential and pooled warm
/// edit sequences, the anchor-phase parallel comparison, and every
/// bit-identity gate. Returns false on a hard-gate failure.
bool run_size(int vertices, int edits, std::uint64_t seed, bool timing,
              const std::shared_ptr<base::ThreadPool>& pool, Row* out) {
  cg::ConstraintGraph graph = designs::generate(params_for(vertices, seed));
  Row row;
  row.vertices = graph.vertex_count();
  row.edges = graph.edge_count();
  row.anchors = static_cast<int>(graph.anchors().size());
  row.edits = edits;

  const std::vector<EdgeId> targets = edit_targets(graph, 16);
  if (targets.empty()) {
    std::cerr << vertices << ": generated design has no max constraints\n";
    return false;
  }
  std::vector<int> bounds;
  for (EdgeId e : targets) {
    bounds.push_back(std::abs(graph.edge(e).fixed_weight));
  }

  // Cold anchor-analysis phase, sequential vs sharded across the pool.
  // Identity is a hard gate; the timings feed the speedup columns.
  {
    const int repeats = !timing ? 1 : (vertices >= 1000000 ? 1 : 3);
    std::vector<double> seq_samples, par_samples;
    anchors::AnchorAnalysis seq_analysis, par_analysis;
    for (int i = 0; i < repeats; ++i) {
      seq_samples.push_back(timed_us([&] {
        seq_analysis = anchors::AnchorAnalysis::compute(graph, nullptr);
      }));
      par_samples.push_back(timed_us([&] {
        par_analysis = anchors::AnchorAnalysis::compute(graph, pool.get());
      }));
    }
    if (!analyses_match(seq_analysis, par_analysis, graph)) {
      std::cerr << vertices
                << ": pooled anchor analysis diverged from sequential\n";
      return false;
    }
    row.anchor_seq_us = median_us(seq_samples);
    row.anchor_par_us = median_us(par_samples);
  }

  // Streamed binary round-trip: the scale path the 10^6 tier rides
  // (gen --binary -> driver). Checked on the largest tier always, and
  // in --check-only so the sanitizer legs cover the chunked I/O.
  if (vertices >= 1000000 || !timing) {
    namespace fs = std::filesystem;
    const std::string path =
        (fs::temp_directory_path() / cat("relsched_scale_", vertices, ".cgb"))
            .string();
    std::string io_error;
    row.binary_write_us =
        timed_us([&] { io_error = cg::write_binary_file(graph, path); });
    if (!io_error.empty()) {
      std::cerr << vertices << ": binary write failed: " << io_error << "\n";
      return false;
    }
    cg::ParseResult loaded;
    row.binary_read_us =
        timed_us([&] { loaded = cg::read_binary_file(path); });
    std::error_code ec;
    fs::remove(path, ec);
    if (!loaded.ok()) {
      std::cerr << vertices << ": binary read failed: " << loaded.error
                << "\n";
      return false;
    }
    if (!graphs_equal(graph, *loaded.graph)) {
      std::cerr << vertices << ": binary round-trip diverged\n";
      return false;
    }
    row.binary_checked = true;
  }

  engine::SessionOptions seq_opts;
  seq_opts.certify = true;
  seq_opts.threads = 1;  // resolve strictly sequentially

  // Cold baseline: fresh certified sequential sessions over the
  // pristine graph.
  const int cold_repeats =
      !timing ? 1 : (vertices >= 1000000 ? 1 : (vertices >= 100000 ? 3 : 7));
  std::vector<double> cold_samples;
  for (int i = 0; i < cold_repeats; ++i) {
    engine::SynthesisSession fresh(graph, seq_opts);
    cold_samples.push_back(timed_us([&] { fresh.resolve(); }));
    if (!fresh.products().ok()) {
      std::cerr << vertices << ": cold resolve failed: "
                << fresh.products().schedule.message << "\n";
      return false;
    }
  }
  row.cold_us = median_us(cold_samples);

  // Warm sequence, sequential: round-robin over the targets,
  // alternately loosening and restoring each bound. Constraint-only
  // edits, so every resolve must take the warm path.
  engine::SynthesisSession session(graph, seq_opts);
  if (!session.resolve().ok()) {
    std::cerr << vertices << ": initial resolve failed\n";
    return false;
  }
  if (!run_edit_sequence(session, targets, bounds, edits, "sequential",
                         &row.warm_us)) {
    return false;
  }

  const engine::SessionStats stats = session.stats();
  row.dirty_cone = stats.last_affected_vertices;
  const double resolves = std::max(1, stats.warm_resolves);
  row.topo_us = stats.warm_topo_us / resolves;
  row.spfa_us = stats.warm_spfa_us / resolves;
  row.anchor_us = stats.warm_anchor_us / resolves;
  row.resched_us = stats.warm_resched_us / resolves;
  row.anchor_dominant =
      row.anchor_us > row.topo_us && row.anchor_us > row.spfa_us &&
      row.anchor_us > row.resched_us;

  // Warm sequence, pooled: the same edits on a session whose anchor
  // patching shards across the pool. End products must be
  // bit-identical to the sequential session's -- the determinism gate.
  {
    engine::SessionOptions par_opts;
    par_opts.certify = true;
    par_opts.pool = pool;
    engine::SynthesisSession par_session(std::move(graph), par_opts);
    if (!par_session.resolve().ok()) {
      std::cerr << vertices << ": parallel initial resolve failed\n";
      return false;
    }
    if (!run_edit_sequence(par_session, targets, bounds, edits, "parallel",
                           &row.warm_par_us)) {
      return false;
    }
    if (!products_match(par_session.products(), session.products(),
                        par_session.graph(),
                        "parallel bit-identity (warm pooled vs warm seq)")) {
      std::cerr << vertices
                << ": pooled warm products diverged from sequential\n";
      return false;
    }
  }

  // Hard gate: the warm-path end state is bit-identical to a cold
  // recompute of the edited graph.
  engine::SynthesisSession reference(session.graph(), seq_opts);
  reference.resolve();
  if (!reference.products().ok()) {
    std::cerr << vertices << ": reference cold resolve failed\n";
    return false;
  }
  if (!products_match(session.products(), reference.products(),
                      session.graph(), "bit-identity (warm vs cold)")) {
    std::cerr << vertices << ": warm products diverged from cold recompute\n";
    return false;
  }

  *out = row;
  return true;
}

/// Sanitizer-CI extra: a small explorer batch over the generated
/// design (fork-per-candidate, transactional edits, parallel resolve),
/// run twice to confirm the winner and scores are thread-invariant.
bool run_explorer_check(int vertices, std::uint64_t seed) {
  cg::ConstraintGraph graph = designs::generate(params_for(vertices, seed));
  const std::vector<EdgeId> targets = edit_targets(graph, 8);
  if (targets.empty()) return false;

  std::vector<explore::Candidate> candidates;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    explore::Candidate c;
    c.label = cat("loosen_", i);
    const int bound = std::abs(graph.edge(targets[i]).fixed_weight);
    c.edits.push_back(explore::EditOp::set_bound(
        targets[i], bound + 1 + static_cast<int>(i % 3)));
    candidates.push_back(std::move(c));
  }

  engine::SessionOptions sopts;
  sopts.certify = true;
  explore::ExplorerOptions xopts;
  explore::Explorer explorer(engine::SynthesisSession(graph, sopts), xopts);
  const explore::ExplorationResult first =
      explorer.explore(candidates, explore::min_latency());
  const explore::ExplorationResult second =
      explorer.explore(candidates, explore::min_latency());
  if (first.winner < 0) {
    std::cerr << "explorer: every candidate infeasible\n";
    return false;
  }
  if (first.winner != second.winner) {
    std::cerr << "explorer: winner not deterministic\n";
    return false;
  }
  for (std::size_t i = 0; i < first.candidates.size(); ++i) {
    if (first.candidates[i].feasible != second.candidates[i].feasible ||
        first.candidates[i].score != second.candidates[i].score) {
      std::cerr << "explorer: candidate " << i << " not deterministic\n";
      return false;
    }
  }
  std::cout << "explorer check: " << candidates.size()
            << " candidates, winner " << first.best().label << " (score "
            << first.best().score << "), deterministic\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  int single_vertices = 0;
  int edits = 120;
  int threads = 4;
  std::uint64_t seed = 90;
  bool check_only = false;
  bool advisory = false;
  std::string out_path = "BENCH_scale.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--check-only") {
      check_only = true;
    } else if (arg == "--advisory-speedup") {
      advisory = true;
    } else if (arg == "--vertices" && value != nullptr) {
      single_vertices = std::atoi(value);
      ++i;
    } else if (arg == "--edits" && value != nullptr) {
      edits = std::atoi(value);
      ++i;
    } else if (arg == "--threads" && value != nullptr) {
      threads = std::atoi(value);
      if (threads < 1 || threads > 512) {
        std::cerr << "--threads expects an integer in [1, 512]\n";
        return EXIT_FAILURE;
      }
      ++i;
    } else if (arg == "--seed" && value != nullptr) {
      seed = std::strtoull(value, nullptr, 10);
      ++i;
    } else if (arg == "--out" && value != nullptr) {
      out_path = value;
      ++i;
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return EXIT_FAILURE;
    }
  }

  // One dedicated pool for every parallel run in this process: width
  // `threads` regardless of the machine, so the reported speedups are
  // against a known width.
  const auto pool = std::make_shared<base::ThreadPool>(threads);
  const unsigned hardware = std::thread::hardware_concurrency();

  if (check_only) {
    // Sanitizer mode: correctness gates only, sized so ASan/TSan
    // finish in minutes. One generated design through the certified
    // session (sequential, pooled, and binary-round-trip bit-identity
    // included) plus the explorer batch.
    const int vertices = single_vertices > 0 ? single_vertices : 10000;
    const int check_edits = std::min(edits, 24);
    Row row;
    if (!run_size(vertices, check_edits, seed, /*timing=*/false, pool, &row)) {
      return EXIT_FAILURE;
    }
    std::cout << "session check: " << row.vertices << " vertices, "
              << row.anchors << " anchors, " << check_edits
              << " certified warm edits, bit-identical to cold and across "
              << threads << "-thread pool, binary round-trip OK\n";
    if (!run_explorer_check(vertices, seed)) return EXIT_FAILURE;
    std::cout << "check-only: PASS\n";
    return EXIT_SUCCESS;
  }

  std::vector<int> sizes;
  if (single_vertices > 0) {
    sizes.push_back(single_vertices);
  } else {
    sizes = {1000, 10000, 100000, 1000000};
  }

  std::vector<Row> rows;
  for (int size : sizes) {
    // The 10^6 tier is cold-dominated; a short edit sequence keeps the
    // wall clock sane without weakening any gate.
    const int size_edits = size >= 1000000 ? std::min(edits, 40) : edits;
    Row row;
    if (!run_size(size, size_edits, seed, /*timing=*/true, pool, &row)) {
      return EXIT_FAILURE;
    }
    rows.push_back(row);
  }

  std::cout << "E14: certified cold vs warm resolve on generated designs\n\n";
  TextTable table;
  table.set_header({"|V|", "|E|", "|A|", "cold (us)", "warm (us)", "speedup",
                    "dirty cone"});
  for (const Row& row : rows) {
    table.add_row({cat(row.vertices), cat(row.edges), cat(row.anchors),
                   fmt(row.cold_us), fmt(row.warm_us),
                   cat(fmt(row.speedup()), "x"),
                   cat(row.dirty_cone, "/", row.vertices)});
  }
  table.print(std::cout);

  std::cout << "\nwarm-path phase breakdown (us per warm resolve)\n\n";
  TextTable phases;
  phases.set_header(
      {"|V|", "topo patch", "SPFA repair", "anchor patch", "reschedule"});
  for (const Row& row : rows) {
    phases.add_row({cat(row.vertices), fmt(row.topo_us, 2),
                    fmt(row.spfa_us, 2), fmt(row.anchor_us, 2),
                    fmt(row.resched_us, 2)});
  }
  phases.print(std::cout);

  std::cout << "\nparallel speedups, sequential vs " << threads
            << "-thread pool (bit-identity enforced)\n\n";
  TextTable par;
  par.set_header({"|V|", "anchor seq (us)", "anchor par (us)", "speedup",
                  "warm seq (us)", "warm par (us)", "speedup"});
  for (const Row& row : rows) {
    par.add_row({cat(row.vertices), fmt(row.anchor_seq_us),
                 fmt(row.anchor_par_us), cat(fmt(row.anchor_speedup(), 2), "x"),
                 fmt(row.warm_us), fmt(row.warm_par_us),
                 cat(fmt(row.warm_parallel_speedup(), 2), "x")});
  }
  par.print(std::cout);

  // The anchor-phase speedup gate reads the 10^5 tier: large enough
  // for per-anchor sharding to dominate the fork/join overhead, small
  // enough that every run of the ladder reaches it.
  const Row* gate_row = nullptr;
  for (const Row& row : rows) {
    if (row.vertices == 100000) gate_row = &row;
  }
  const bool gate_applies = gate_row != nullptr &&
                            hardware >= static_cast<unsigned>(threads) &&
                            threads >= 4;
  const double gate_speedup = gate_row != nullptr ? gate_row->anchor_speedup()
                                                  : 0.0;
  const std::string gate = !gate_applies ? "SKIPPED"
                           : gate_speedup >= kRequiredAnchorSpeedup
                               ? "HOLDS"
                               : (advisory ? "FAILS (advisory)" : "FAILS");

  const Row& largest = rows.back();
  benchio::Json sizes_json = benchio::Json::array();
  for (const Row& row : rows) {
    benchio::Json entry = benchio::Json::object()
                              .field("vertices", row.vertices)
                              .field("edges", row.edges)
                              .field("anchors", row.anchors)
                              .field("edits", row.edits)
                              .field("cold_us", row.cold_us)
                              .field("warm_us", row.warm_us)
                              .field("speedup", row.speedup())
                              .field("dirty_cone_vertices", row.dirty_cone)
                              .field("warm_topo_us", row.topo_us)
                              .field("warm_spfa_us", row.spfa_us)
                              .field("warm_anchor_us", row.anchor_us)
                              .field("warm_resched_us", row.resched_us)
                              .field("anchor_patch_dominant",
                                     row.anchor_dominant)
                              .field("anchor_seq_us", row.anchor_seq_us)
                              .field("anchor_par_us", row.anchor_par_us)
                              .field("anchor_parallel_speedup",
                                     row.anchor_speedup())
                              .field("warm_par_us", row.warm_par_us)
                              .field("warm_parallel_speedup",
                                     row.warm_parallel_speedup())
                              .field("binary_round_trip", row.binary_checked);
    if (row.binary_checked) {
      entry.field("binary_write_us", row.binary_write_us)
          .field("binary_read_us", row.binary_read_us);
    }
    sizes_json.element(std::move(entry));
  }
  benchio::Json::object()
      .field("bench", "scale")
      .field("seed", static_cast<long long>(seed))
      .field("threads", threads)
      .field("hardware_concurrency", static_cast<int>(hardware))
      .field("bit_identity", true)
      .field("parallel_bit_identity", true)
      .field("largest_vertices", largest.vertices)
      .field("largest_speedup", largest.speedup())
      .field("largest_anchor_patch_dominant", largest.anchor_dominant)
      .field("required_anchor_speedup", kRequiredAnchorSpeedup)
      .field("anchor_speedup_gate", gate)
      .field("anchor_speedup_gate_mode", !gate_applies
                                             ? std::string("skipped")
                                         : advisory ? std::string("advisory")
                                                    : std::string("enforced"))
      .field("sizes", sizes_json)
      .write(out_path);
  std::cout << "\nwrote " << out_path << "\n";

  // Hard gates (bit-identity -- warm vs cold AND pooled vs sequential
  // -- certification, warm-path coverage, binary round-trip) all
  // passed inside run_size. The anchor-phase speedup gate is timing:
  // enforced only with real cores underneath and no advisory flag.
  std::cout << "\nbit-identity (warm vs cold, pooled vs sequential, all "
               "sizes): HOLDS\n";
  std::cout << "anchor patch dominant at " << largest.vertices
            << " vertices: " << (largest.anchor_dominant ? "YES" : "no")
            << " (advisory; bitset rows should keep this off the top)\n";
  std::cout << "anchor-phase speedup at 10^5 vertices, " << threads
            << " threads: " << fmt(gate_speedup, 2) << "x (required: >= "
            << fmt(kRequiredAnchorSpeedup) << "x, hardware threads: "
            << hardware << "): " << gate << "\n";
  if (!gate_applies) {
    std::cout << (gate_row == nullptr
                      ? "no 10^5 tier in this run: speedup gate skipped\n"
                      : "fewer hardware threads than the pool: speedup gate "
                        "skipped\n");
    return EXIT_SUCCESS;
  }
  if (gate_speedup < kRequiredAnchorSpeedup && advisory) {
    std::cout << "--advisory-speedup: gate miss reported, not enforced\n";
    return EXIT_SUCCESS;
  }
  return gate_speedup >= kRequiredAnchorSpeedup ? EXIT_SUCCESS : EXIT_FAILURE;
}
