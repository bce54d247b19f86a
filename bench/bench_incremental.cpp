// E12: cold vs warm resolve cost of the incremental synthesis engine.
//
// For every suite design, synthesize it, take its largest constraint
// graph, and compare:
//
//   cold - a fresh SynthesisSession::resolve() (full anchor analysis,
//          feasibility, well-posedness, scheduling from zero offsets);
//   warm - re-resolving the same session after a single constraint
//          edit (alternately loosening and restoring one max-constraint
//          bound), which recomputes only the dirty cone and warm-starts
//          the scheduler from the previous offsets.
//
// Emits a human-readable table plus BENCH_incremental.json, and exits
// nonzero when the warm path is less than 5x faster than cold on the
// largest design (the engine's headline guarantee). Sessions resolve on
// the shared pool, so its width (RELSCHED_THREADS) and the hardware
// thread count go in the JSON and on every verdict line.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "base/table.hpp"
#include "base/thread_pool.hpp"
#include "bench_json.hpp"
#include "designs/designs.hpp"
#include "driver/synthesis.hpp"
#include "engine/session.hpp"
#include "persist/wal.hpp"

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

template <typename Fn>
double timed_us(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  const auto t1 = Clock::now();
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

struct Row {
  std::string design;
  int vertices = 0;
  int edges = 0;
  int anchors = 0;
  double cold_us = 0;
  double warm_us = 0;
  double certified_warm_us = 0;
  double journaled_warm_us = 0;
  double certify_us = 0;
  long long wal_records = 0;
  long long wal_fsyncs = 0;
  int warm_resolves = 0;
  int last_affected = 0;
  // Warm-path phase breakdown, microseconds per warm resolve.
  double topo_us = 0;
  double spfa_us = 0;
  double anchor_us = 0;
  double resched_us = 0;

  [[nodiscard]] double speedup() const {
    return warm_us > 0 ? cold_us / warm_us : 0.0;
  }

  /// Certifier cost per warm resolve as a fraction of a cold resolve:
  /// the certified pipeline must never give back a meaningful slice of
  /// what the incremental engine saves.
  [[nodiscard]] double certify_overhead_pct() const {
    return cold_us > 0 ? 100.0 * (certified_warm_us - warm_us) / cold_us : 0.0;
  }

  /// Write-ahead-journal cost per warm resolve as a fraction of the
  /// warm resolve itself: buffered appends plus group-commit fsyncs
  /// must stay in the noise (the durability gate).
  [[nodiscard]] double journal_overhead_pct() const {
    return warm_us > 0 ? 100.0 * (journaled_warm_us - warm_us) / warm_us : 0.0;
  }
};

std::string fmt(double v, int precision = 1) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

}  // namespace

int main() {
  constexpr int kColdRepeats = 15;
  constexpr int kWarmRepeats = 60;

  std::vector<Row> rows;
  for (const designs::BenchmarkDesign& bench : designs::benchmark_suite()) {
    const std::string& name = bench.name;
    seq::Design design = designs::build(name);
    const auto result = driver::synthesize(design);
    if (!result.ok()) {
      std::cerr << name << ": " << result.message << "\n";
      return EXIT_FAILURE;
    }
    // The design's largest graph dominates its synthesis cost.
    const driver::GraphSynthesis* largest = nullptr;
    for (const auto& gs : result.graphs) {
      if (largest == nullptr || gs.constraint_graph.vertex_count() >
                                    largest->constraint_graph.vertex_count()) {
        largest = &gs;
      }
    }
    cg::ConstraintGraph graph = largest->constraint_graph;

    Row row;
    row.design = name;
    row.vertices = graph.vertex_count();
    row.edges = graph.edge_count();
    row.anchors = static_cast<int>(graph.anchors().size());

    // The edited constraint: an existing max constraint, or one added
    // with generous slack when the graph has none.
    engine::SynthesisSession session(std::move(graph), {});
    EdgeId edited = EdgeId::invalid();
    for (const cg::Edge& e : session.graph().edges()) {
      if (e.kind == cg::EdgeKind::kMaxConstraint) {
        edited = e.id;
        break;
      }
    }
    if (!edited.is_valid()) {
      // Add one along a forward edge whose endpoints share an anchor
      // set: the backward edge then satisfies containment (well-posed)
      // and generous slack keeps it feasible.
      for (const cg::Edge& e : session.graph().edges()) {
        if (!cg::is_forward(e.kind)) continue;
        if (largest->analysis.anchor_set(e.from) !=
            largest->analysis.anchor_set(e.to)) {
          continue;
        }
        const auto lp = graph::longest_paths_from(
            session.graph().project_forward(), e.from.value());
        edited = session.add_max_constraint(
            e.from, e.to, static_cast<int>(lp.dist[e.to.index()]) + 8);
        break;
      }
    }
    if (!edited.is_valid()) {
      std::cerr << name << ": no editable max constraint found\n";
      return EXIT_FAILURE;
    }
    if (!session.resolve().ok()) {
      std::cerr << name << ": session resolve failed: "
                << session.resolve().schedule.message << "\n";
      return EXIT_FAILURE;
    }
    const int bound = std::abs(session.graph().edge(edited).fixed_weight);

    // Cold baseline: a fresh session per repeat.
    std::vector<double> cold;
    for (int i = 0; i < kColdRepeats; ++i) {
      engine::SynthesisSession fresh(session.graph(), {});
      cold.push_back(timed_us([&] { fresh.resolve(); }));
      if (!fresh.products().ok()) return EXIT_FAILURE;
    }
    row.cold_us = median_us(cold);

    // Warm: alternately loosen and restore the bound, one edit per
    // resolve, so every resolve takes the incremental path.
    std::vector<double> warm;
    for (int i = 0; i < kWarmRepeats; ++i) {
      session.set_constraint_bound(edited, i % 2 == 0 ? bound + 1 : bound);
      warm.push_back(timed_us([&] { session.resolve(); }));
      if (!session.products().ok()) return EXIT_FAILURE;
    }
    row.warm_us = median_us(warm);

    // Certified warm: the same edit loop with the independent certifier
    // validating every warm product (schedule + analysis against the
    // graph). Clean runs must not trip it, and its cost is reported as
    // a fraction of a cold resolve.
    engine::SessionOptions certified_opts;
    certified_opts.certify = true;
    engine::SynthesisSession certified(session.graph(), certified_opts);
    if (!certified.resolve().ok()) return EXIT_FAILURE;
    std::vector<double> certified_warm;
    for (int i = 0; i < kWarmRepeats; ++i) {
      certified.set_constraint_bound(edited, i % 2 == 0 ? bound + 1 : bound);
      certified_warm.push_back(timed_us([&] { certified.resolve(); }));
      if (!certified.products().ok()) return EXIT_FAILURE;
    }
    row.certified_warm_us = median_us(certified_warm);
    const engine::SessionStats certified_stats = certified.stats();
    if (certified_stats.certificate_failures != 0) {
      std::cerr << name << ": certifier tripped on a clean warm run\n";
      return EXIT_FAILURE;
    }
    row.certify_us =
        certified_stats.certify_us /
        std::max<long long>(1, certified_stats.certified_resolves);

    // Journaled warm: the same edit loop with a write-ahead log
    // attached under the production group-commit sync policy. Every
    // edit is appended and every resolve writes a durable commit
    // marker; the gate below keeps that within 10% of the bare warm
    // path.
    engine::SynthesisSession journaled(session.graph(), {});
    if (!journaled.resolve().ok()) return EXIT_FAILURE;
    const std::string wal_file = "BENCH_incremental_wal.bin";
    std::remove(wal_file.c_str());
    const persist::WalOptions wal_opts;  // group commit, 50ms interval
    if (const persist::Error e = journaled.attach_wal(wal_file, wal_opts);
        !e.ok()) {
      std::cerr << name << ": attach_wal: " << e.render() << "\n";
      return EXIT_FAILURE;
    }
    std::vector<double> journaled_warm;
    for (int i = 0; i < kWarmRepeats; ++i) {
      journaled.set_constraint_bound(edited, i % 2 == 0 ? bound + 1 : bound);
      journaled_warm.push_back(timed_us([&] { journaled.resolve(); }));
      if (!journaled.products().ok()) return EXIT_FAILURE;
    }
    row.journaled_warm_us = median_us(journaled_warm);
    const engine::SessionStats journaled_stats = journaled.stats();
    row.wal_records = journaled_stats.wal_records;
    row.wal_fsyncs = journaled_stats.wal_fsyncs;
    std::remove(wal_file.c_str());

    const engine::SessionStats stats = session.stats();
    row.warm_resolves = stats.warm_resolves;
    row.last_affected = stats.last_affected_vertices;
    // The session accumulates per-phase wall time across warm resolves;
    // report the per-resolve average next to the end-to-end median.
    const double resolves = std::max(1, stats.warm_resolves);
    row.topo_us = stats.warm_topo_us / resolves;
    row.spfa_us = stats.warm_spfa_us / resolves;
    row.anchor_us = stats.warm_anchor_us / resolves;
    row.resched_us = stats.warm_resched_us / resolves;
    if (row.warm_resolves < kWarmRepeats) {
      std::cerr << name << ": only " << row.warm_resolves << "/" << kWarmRepeats
                << " resolves took the warm path\n";
      return EXIT_FAILURE;
    }
    rows.push_back(std::move(row));
  }

  std::cout << "E12: incremental engine, cold vs warm resolve after one "
               "constraint edit\n\n";
  TextTable table;
  table.set_header({"design", "|V|", "|E|", "|A|", "cold (us)", "warm (us)",
                    "cert warm (us)", "wal warm (us)", "speedup",
                    "cert ovh (%cold)", "wal ovh (%warm)", "dirty cone"});
  for (const Row& row : rows) {
    table.add_row({row.design, cat(row.vertices), cat(row.edges),
                   cat(row.anchors), fmt(row.cold_us), fmt(row.warm_us),
                   fmt(row.certified_warm_us), fmt(row.journaled_warm_us),
                   cat(fmt(row.speedup()), "x"), fmt(row.certify_overhead_pct()),
                   fmt(row.journal_overhead_pct()),
                   cat(row.last_affected, "/", row.vertices)});
  }
  table.print(std::cout);

  std::cout << "\nwarm-path phase breakdown (us per warm resolve)\n\n";
  TextTable phases;
  phases.set_header(
      {"design", "topo patch", "SPFA repair", "anchor patch", "reschedule"});
  for (const Row& row : rows) {
    phases.add_row({row.design, fmt(row.topo_us, 2), fmt(row.spfa_us, 2),
                    fmt(row.anchor_us, 2), fmt(row.resched_us, 2)});
  }
  phases.print(std::cout);

  const Row* largest_row = nullptr;
  for (const Row& row : rows) {
    if (largest_row == nullptr || row.vertices > largest_row->vertices) {
      largest_row = &row;
    }
  }

  benchio::Json designs_json = benchio::Json::array();
  for (const Row& row : rows) {
    designs_json.element(benchio::Json::object()
                             .field("design", row.design)
                             .field("vertices", row.vertices)
                             .field("edges", row.edges)
                             .field("anchors", row.anchors)
                             .field("cold_us", row.cold_us)
                             .field("warm_us", row.warm_us)
                             .field("certified_warm_us", row.certified_warm_us)
                             .field("journaled_warm_us", row.journaled_warm_us)
                             .field("journal_overhead_pct_of_warm",
                                    row.journal_overhead_pct())
                             .field("wal_records", row.wal_records)
                             .field("wal_fsyncs", row.wal_fsyncs)
                             .field("certify_us_per_resolve", row.certify_us)
                             .field("certify_overhead_pct_of_cold",
                                    row.certify_overhead_pct())
                             .field("speedup", row.speedup())
                             .field("dirty_cone_vertices", row.last_affected)
                             .field("warm_topo_us", row.topo_us)
                             .field("warm_spfa_us", row.spfa_us)
                             .field("warm_anchor_us", row.anchor_us)
                             .field("warm_resched_us", row.resched_us));
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  const int pool_threads = base::shared_pool()->thread_count();
  benchio::Json::object()
      .field("bench", "incremental")
      .field("threads", pool_threads)
      .field("hardware_concurrency", static_cast<int>(hardware))
      .field("cold_repeats", kColdRepeats)
      .field("warm_repeats", kWarmRepeats)
      .field("largest_design", largest_row->design)
      .field("largest_speedup", largest_row->speedup())
      .field("largest_certify_overhead_pct",
             largest_row->certify_overhead_pct())
      .field("largest_journal_overhead_pct",
             largest_row->journal_overhead_pct())
      .field("designs", designs_json)
      .write("BENCH_incremental.json");
  std::cout << "\nwrote BENCH_incremental.json\n";

  const bool speedup_holds = largest_row->speedup() >= 5.0;
  const bool overhead_holds = largest_row->certify_overhead_pct() <= 15.0;
  // Durability gate: journaling must cost <= 10% of a warm resolve.
  // The 2us absolute floor keeps sub-microsecond timer noise from
  // failing the gate on designs whose warm resolves are themselves only
  // a few microseconds.
  const bool journal_holds =
      largest_row->journaled_warm_us <= 1.10 * largest_row->warm_us + 2.0;
  const std::string widths =
      cat("pool threads: ", pool_threads, ", hardware threads: ", hardware);
  std::cout << "\nlargest design (" << largest_row->design
            << "): " << fmt(largest_row->speedup())
            << "x warm speedup (required: >= 5x, " << widths << "): "
            << (speedup_holds ? "HOLDS" : "FAILS") << "\n";
  std::cout << "largest design certifier overhead: "
            << fmt(largest_row->certify_overhead_pct())
            << "% of a cold resolve (required: <= 15%, " << widths << "): "
            << (overhead_holds ? "HOLDS" : "FAILS") << "\n";
  std::cout << "largest design journal overhead: "
            << fmt(largest_row->journal_overhead_pct())
            << "% of a warm resolve (required: <= 10%, " << widths << "): "
            << (journal_holds ? "HOLDS" : "FAILS") << "\n";
  return speedup_holds && overhead_holds && journal_holds ? EXIT_SUCCESS
                                                          : EXIT_FAILURE;
}
