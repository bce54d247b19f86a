// relsched_cli: command-line front door to the synthesis pipeline.
//
//   relsched_cli lint [--lint-json] [--strip-redundant]
//                     [--fail-on error|warning|info|never]
//                     (--suite | <design.hwc | graph.cg>)
//     Static design analysis without scheduling: feasibility (with an
//     irreducible unsat core), well-posedness per backward edge,
//     redundant constraints, never-binding max constraints, dead
//     anchors. Exit 0 when no finding reaches the --fail-on gate
//     (default: error), else 3/4/5 for a worst severity of
//     error/warning/info. --strip-redundant (.cg inputs) writes the
//     graph with redundant constraints removed to stdout.
//
//   relsched_cli analyze [--analyze-json] [--extract] [--top <n>]
//                        (--suite | <design.hwc | graph.cg | graph.cgb>)
//     Static slack / criticality analysis without running the
//     scheduler's fixpoint: per-constraint tightening slack, a
//     criticality ranking with defining-path provenance, and (with
//     --extract) a certified critical subgraph -- re-scheduled from
//     scratch and checked bit-for-bit against the full design's
//     offsets. Exit 0 ok, 2 invalid, 3 infeasible, 4 ill-posed;
//     exit 1 when an extraction fails its certification.
//
//   relsched_cli gen [--seed <n>] [--vertices <n>] [--width <n>]
//                    [--anchor-density <per10k>] [--min-density <per10k>]
//                    [--max-density <per10k>] [--max-delay <n>]
//                    [--name <s>] [--out <path>]
//     Emit a seeded synthetic constraint graph (designs::generate) in
//     the graph_io text format -- deterministic: the same flags always
//     produce byte-identical output. Feeds --graph mode, benches, and
//     the scale CI jobs.
//
//   relsched_cli [options] <design.hwc | graph.cg>
//     --report     per-graph synthesis summary (default)
//     --schedule   anchor sets + minimum offsets per graph (Table II style)
//     --stats      Table III / Table IV statistics
//     --verilog    emit control logic (shift-register style) per graph
//     --dot        emit the constraint graph of each graph in Graphviz dot
//     --counter    use counter-based control for --verilog
//     --graph      treat the input as a constraint-graph text file
//                  (see cg/graph_io.hpp) instead of HardwareC
//     --rtl        emit the full structural result: hierarchical
//                  control plus datapath Verilog
//
//   Operating long runs (--graph mode):
//     --checkpoint-dir <dir>  journal edits + snapshot session state into
//                             <dir> (crash-safe: temp+rename, checksummed)
//     --resume                recover from <dir>'s snapshot + WAL tail
//                             instead of starting fresh
//     --deadline-ms <n>       stop synthesis within one watchdog quantum
//                             once the budget elapses; exit code 6 with
//                             the partial state checkpointed
//     --diag-json-out <path>  atomically write the failure diagnostic
//                             JSON to <path> (in addition to --diag-json
//                             on stdout)
//   SIGINT/SIGTERM request cooperative cancellation: the run stops at
//   the next watchdog poll, writes a final checkpoint, and exits 6.
#include <csignal>
#include <limits>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "base/watchdog.hpp"
#include "certify/certify.hpp"
#include "cg/graph_io.hpp"
#include "ctrl/control.hpp"
#include "ctrl/design_control.hpp"
#include "designs/designs.hpp"
#include "designs/generator.hpp"
#include "driver/report.hpp"
#include "driver/stats.hpp"
#include "driver/synthesis.hpp"
#include "engine/session.hpp"
#include "hdl/lower.hpp"
#include "analyze/analyze.hpp"
#include "lint/lint.hpp"
#include "persist/serialize.hpp"
#include "rtl/datapath.hpp"
#include "sched/scheduler.hpp"
#include "wellposed/wellposed.hpp"

using namespace relsched;

namespace {

int usage() {
  std::cerr << "usage: relsched_cli [--report] [--schedule] [--stats] "
               "[--verilog] [--dot] [--counter] [--graph] [--diag-json] "
               "[--diag-json-out <path>] [--checkpoint-dir <dir>] [--resume] "
               "[--deadline-ms <n>] <design.hwc | graph.cg>\n"
               "       relsched_cli lint [--lint-json] [--strip-redundant] "
               "[--fail-on error|warning|info|never] "
               "(--suite | <design.hwc | graph.cg>)\n"
               "       relsched_cli analyze [--analyze-json] [--extract] "
               "[--top <n>] (--suite | <design.hwc | graph.cg | graph.cgb>)\n"
               "       relsched_cli gen [--seed <n>] [--vertices <n>] "
               "[--width <n>] [--anchor-density <per10k>] "
               "[--max-anchors <n>] "
               "[--min-density <per10k>] [--max-density <per10k>] "
               "[--max-delay <n>] [--name <s>] [--binary] "
               "[--out <path>]\n"
               "(gen emits the streamed binary graph format when --binary "
               "is set or --out ends in .cgb; the main command loads "
               "either format)\n";
  return 2;
}

/// Severity-aware combination of lint exit codes (0 clean, 3 errors,
/// 4 warnings, 5 infos): the more severe verdict wins. Plain max()
/// would rank info (5) above warning (4).
int combine_lint_exit(int a, int b) {
  const auto rank = [](int c) {
    switch (c) {
      case 3:
        return 3;
      case 4:
        return 2;
      case 5:
        return 1;
      default:
        return 0;
    }
  };
  return rank(a) >= rank(b) ? a : b;
}

/// Lints every graph of one compiled design through the synthesis
/// pipeline (binding + make_wellposed first, so the analyzer sees the
/// graphs the scheduler would). Returns the combined lint exit code;
/// JSON reports are appended to `jsons` instead of printed when set.
int lint_synthesized(seq::Design& design, lint::FailOn fail_on,
                     std::vector<std::string>* jsons) {
  driver::SynthesisOptions sopts;
  sopts.lint = true;
  const auto result = driver::synthesize(design, sopts);
  int code = 0;
  for (const auto& gs : result.graphs) {
    if (jsons != nullptr) {
      jsons->push_back(lint::to_json(gs.lint_report, gs.constraint_graph));
    } else {
      std::cout << lint::render_text(gs.lint_report, gs.constraint_graph);
    }
    code = combine_lint_exit(code,
                             lint::exit_code(gs.lint_report, fail_on));
  }
  if (!result.ok()) {
    std::cerr << "process '" << design.name()
              << "': " << driver::to_string(result.status) << ": "
              << result.message << "\n";
    code = combine_lint_exit(code, 3);
  }
  return code;
}

int gen_main(int argc, char** argv) {
  designs::GeneratorParams params;
  std::string out_path;
  bool binary = false;
  const auto int_flag = [&](int& i, int argc_, char** argv_, long long lo,
                            long long hi, long long* out) {
    if (++i >= argc_) return false;
    char* end = nullptr;
    const long long v = std::strtoll(argv_[i], &end, 10);
    if (end == argv_[i] || *end != '\0' || v < lo || v > hi) return false;
    *out = v;
    return true;
  };
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    long long v = 0;
    if (arg == "--seed") {
      if (!int_flag(i, argc, argv, 0, std::numeric_limits<long long>::max(),
                    &v)) {
        return usage();
      }
      params.seed = static_cast<std::uint64_t>(v);
    } else if (arg == "--vertices") {
      if (!int_flag(i, argc, argv, 3, 10'000'000, &v)) return usage();
      params.vertices = static_cast<int>(v);
    } else if (arg == "--width") {
      if (!int_flag(i, argc, argv, 1, 1'000'000, &v)) return usage();
      params.width = static_cast<int>(v);
    } else if (arg == "--anchor-density") {
      if (!int_flag(i, argc, argv, 0, 10000, &v)) return usage();
      params.anchor_density = static_cast<int>(v);
    } else if (arg == "--max-anchors") {
      if (!int_flag(i, argc, argv, 0, 10'000'000, &v)) return usage();
      params.max_anchors = static_cast<int>(v);
    } else if (arg == "--min-density") {
      if (!int_flag(i, argc, argv, 0, 100000, &v)) return usage();
      params.min_density = static_cast<int>(v);
    } else if (arg == "--max-density") {
      if (!int_flag(i, argc, argv, 0, 100000, &v)) return usage();
      params.max_density = static_cast<int>(v);
    } else if (arg == "--max-delay") {
      if (!int_flag(i, argc, argv, 1, 1'000'000, &v)) return usage();
      params.max_delay = static_cast<int>(v);
    } else if (arg == "--name") {
      if (++i >= argc) return usage();
      params.name = argv[i];
    } else if (arg == "--out") {
      if (++i >= argc) return usage();
      out_path = argv[i];
    } else if (arg == "--binary") {
      binary = true;
    } else {
      return usage();
    }
  }
  const cg::ConstraintGraph g = designs::generate(params);
  const bool cgb_suffix = out_path.size() >= 4 &&
                          out_path.compare(out_path.size() - 4, 4, ".cgb") == 0;
  if (binary || cgb_suffix) {
    // The binary writer streams; a 10^6-vertex design never exists as
    // one text blob in memory on this path.
    if (out_path.empty()) {
      std::cerr << "gen --binary requires --out (refusing to write the "
                   "binary format to a terminal)\n";
      return 2;
    }
    if (const std::string err = cg::write_binary_file(g, out_path);
        !err.empty()) {
      std::cerr << err << "\n";
      return 1;
    }
    return 0;
  }
  const std::string text = cg::to_text(g);
  if (out_path.empty()) {
    std::cout << text;
    return 0;
  }
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  out << text;
  out.flush();
  if (!out) {
    std::cerr << "failed to write '" << out_path << "'\n";
    return 1;
  }
  return 0;
}

int lint_main(int argc, char** argv) {
  bool json = false, strip = false, suite = false;
  lint::FailOn fail_on = lint::FailOn::kError;
  std::string path;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--lint-json") {
      json = true;
    } else if (arg == "--strip-redundant") {
      strip = true;
    } else if (arg == "--suite") {
      suite = true;
    } else if (arg == "--fail-on") {
      if (++i >= argc) return usage();
      const std::string v = argv[i];
      if (v == "error") {
        fail_on = lint::FailOn::kError;
      } else if (v == "warning") {
        fail_on = lint::FailOn::kWarning;
      } else if (v == "info") {
        fail_on = lint::FailOn::kInfo;
      } else if (v == "never") {
        fail_on = lint::FailOn::kNever;
      } else {
        return usage();
      }
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      path = arg;
    }
  }
  if (suite ? !path.empty() : path.empty()) return usage();

  const auto flush_json = [&](std::vector<std::string>& jsons) {
    std::cout << "[";
    for (std::size_t i = 0; i < jsons.size(); ++i) {
      if (i > 0) std::cout << ", ";
      std::cout << jsons[i];
    }
    std::cout << "]\n";
  };

  if (suite) {
    if (strip) {
      std::cerr << "--strip-redundant applies to .cg inputs only\n";
      return 2;
    }
    int code = 0;
    std::vector<std::string> jsons;
    for (const auto& bd : designs::benchmark_suite()) {
      seq::Design design = designs::build(bd.name);
      code = combine_lint_exit(
          code, lint_synthesized(design, fail_on, json ? &jsons : nullptr));
    }
    if (json) flush_json(jsons);
    return code;
  }

  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open '" << path << "'\n";
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();

  const bool is_cg =
      path.size() > 3 && path.substr(path.size() - 3) == ".cg";
  if (!is_cg) {
    if (strip) {
      std::cerr << "--strip-redundant applies to .cg inputs only\n";
      return 2;
    }
    auto compiled = hdl::compile(buffer.str());
    if (!compiled.ok()) {
      std::cerr << path << ":\n" << compiled.diagnostics.to_string();
      return 1;
    }
    int code = 0;
    std::vector<std::string> jsons;
    for (seq::Design& design : compiled.designs) {
      code = combine_lint_exit(
          code, lint_synthesized(design, fail_on, json ? &jsons : nullptr));
    }
    if (json) flush_json(jsons);
    return code;
  }

  // Raw constraint graph: lint exactly what was written, with no
  // make_wellposed repair in between -- reporting ill-posedness (and
  // how to fix it) is the analyzer's job here.
  auto parsed = cg::from_text(buffer.str());
  if (!parsed.ok()) {
    std::cerr << parsed.error << "\n";
    return 1;
  }
  cg::ConstraintGraph& g = *parsed.graph;
  const lint::Report report = lint::analyze(g);
  if (strip) {
    if (report.count(lint::Severity::kError) > 0) {
      std::cerr << lint::render_text(report, g);
      return lint::exit_code(report, lint::FailOn::kError);
    }
    const auto stripped = lint::strip_redundant(g);
    std::cerr << "stripped " << stripped.size()
              << " redundant constraint(s)\n";
    std::cout << cg::to_text(g);
    return 0;
  }
  if (json) {
    std::cout << lint::to_json(report, g) << "\n";
  } else {
    std::cout << lint::render_text(report, g);
  }
  return lint::exit_code(report, fail_on);
}

/// Worse analyze exit code wins: a certification failure (1) outranks
/// every verdict, then structural invalidity (2), ill-posedness (4),
/// infeasibility (3), clean (0).
int combine_analyze_exit(int a, int b) {
  const auto rank = [](int c) {
    switch (c) {
      case 1:
        return 4;
      case 2:
        return 3;
      case 4:
        return 2;
      case 3:
        return 1;
      default:
        return 0;
    }
  };
  return rank(a) >= rank(b) ? a : b;
}

/// Analyzes one constraint graph (slack report + optional certified
/// extraction), printing or collecting JSON, and returns the analyze
/// exit code. `analysis` as in analyze::analyze().
int analyze_graph(const cg::ConstraintGraph& g,
                  const anchors::AnchorAnalysis* analysis, bool extract,
                  int top, std::vector<std::string>* jsons) {
  const analyze::Report report = analyze::analyze(g, analysis);
  std::optional<analyze::Extraction> extraction;
  if (extract && report.status != analyze::Status::kInvalid) {
    extraction = analyze::extract_critical(g, report, analysis);
  }
  const analyze::Extraction* ex = extraction ? &*extraction : nullptr;
  if (jsons != nullptr) {
    jsons->push_back(analyze::to_json(report, g, ex));
  } else {
    std::cout << analyze::render_text(report, g, top);
    if (ex != nullptr) std::cout << analyze::render_text(*ex);
  }
  return analyze::exit_code(report, ex);
}

/// Analyzes every graph of one compiled design through the synthesis
/// pipeline (binding + make_wellposed first, exactly like lint), so
/// the slacks describe the graphs the scheduler actually ran on.
int analyze_synthesized(seq::Design& design, bool extract, int top,
                        std::vector<std::string>* jsons) {
  const auto result = driver::synthesize(design, {});
  int code = 0;
  for (const auto& gs : result.graphs) {
    const anchors::AnchorAnalysis* analysis =
        gs.schedule.ok() ? &gs.analysis : nullptr;
    code = combine_analyze_exit(
        code, analyze_graph(gs.constraint_graph, analysis, extract, top,
                            jsons));
  }
  if (!result.ok()) {
    std::cerr << "process '" << design.name()
              << "': " << driver::to_string(result.status) << ": "
              << result.message << "\n";
    code = combine_analyze_exit(code, 2);
  }
  return code;
}

int analyze_main(int argc, char** argv) {
  bool json = false, extract = false, suite = false;
  int top = 10;
  std::string path;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--analyze-json") {
      json = true;
    } else if (arg == "--extract") {
      extract = true;
    } else if (arg == "--suite") {
      suite = true;
    } else if (arg == "--top") {
      if (++i >= argc) return usage();
      char* end = nullptr;
      const long long v = std::strtoll(argv[i], &end, 10);
      if (end == argv[i] || *end != '\0' || v < 0 || v > 1'000'000'000) {
        return usage();
      }
      top = static_cast<int>(v);
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      path = arg;
    }
  }
  if (suite ? !path.empty() : path.empty()) return usage();

  const auto flush_json = [&](std::vector<std::string>& jsons) {
    std::cout << "[";
    for (std::size_t i = 0; i < jsons.size(); ++i) {
      if (i > 0) std::cout << ", ";
      std::cout << jsons[i];
    }
    std::cout << "]\n";
  };

  if (suite) {
    int code = 0;
    std::vector<std::string> jsons;
    for (const auto& bd : designs::benchmark_suite()) {
      seq::Design design = designs::build(bd.name);
      code = combine_analyze_exit(
          code,
          analyze_synthesized(design, extract, top, json ? &jsons : nullptr));
    }
    if (json) flush_json(jsons);
    return code;
  }

  const bool is_cgb =
      path.size() > 4 && path.substr(path.size() - 4) == ".cgb";
  const bool is_cg = path.size() > 3 && path.substr(path.size() - 3) == ".cg";
  if (is_cg || is_cgb) {
    // Raw constraint graph: analyze exactly what was written, no
    // make_wellposed repair -- ill-posedness is a verdict here.
    auto parsed = is_cgb ? cg::read_binary_file(path) : [&] {
      std::ifstream in(path);
      std::stringstream buffer;
      buffer << in.rdbuf();
      return cg::from_text(buffer.str());
    }();
    if (!parsed.ok()) {
      std::cerr << (parsed.error.empty() ? "cannot open '" + path + "'"
                                         : parsed.error)
                << "\n";
      return 2;
    }
    std::vector<std::string> jsons;
    const int code = analyze_graph(*parsed.graph, nullptr, extract, top,
                                   json ? &jsons : nullptr);
    if (json) flush_json(jsons);
    return code;
  }

  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open '" << path << "'\n";
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto compiled = hdl::compile(buffer.str());
  if (!compiled.ok()) {
    std::cerr << path << ":\n" << compiled.diagnostics.to_string();
    return 2;
  }
  int code = 0;
  std::vector<std::string> jsons;
  for (seq::Design& design : compiled.designs) {
    code = combine_analyze_exit(
        code,
        analyze_synthesized(design, extract, top, json ? &jsons : nullptr));
  }
  if (json) flush_json(jsons);
  return code;
}

}  // namespace

namespace {

/// Crash-safety / cancellation settings (see the header comment).
struct RunOptions {
  std::string checkpoint_dir;
  bool resume = false;
  long long deadline_ms = -1;  // < 0: no deadline
  std::string diag_json_out;

  [[nodiscard]] bool session_mode() const {
    return !checkpoint_dir.empty() || resume || deadline_ms >= 0;
  }
};

/// Shared cancel flag flipped by the SIGINT/SIGTERM handler; the
/// handler only performs one lock-free atomic store.
base::CancelToken g_cancel;  // NOLINT(cert-err58-cpp)

extern "C" void request_cancel_handler(int) { g_cancel.request_cancel(); }

/// Exit codes (covered by tests/test_driver.cpp and the CLI tests):
/// 0 ok, 1 generic/structural error, 2 usage, 3 infeasible,
/// 4 ill-posed, 5 no schedule found, 6 cancelled/deadline exceeded
/// (partial results checkpointed when --checkpoint-dir is set).
int exit_code_for(wellposed::Status status) {
  return status == wellposed::Status::kInfeasible ? 3 : 4;
}

int exit_code_for(sched::ScheduleStatus status) {
  switch (status) {
    case sched::ScheduleStatus::kInfeasible:
      return 3;
    case sched::ScheduleStatus::kIllPosed:
      return 4;
    case sched::ScheduleStatus::kInconsistent:
      return 5;
    case sched::ScheduleStatus::kCancelled:
      return 6;
    default:
      return 1;
  }
}

/// Failure epilogue: the witness rendered human-readable on stderr,
/// with --diag-json the machine-readable diagnostic as a single JSON
/// object on stdout, and with --diag-json-out the same JSON written
/// atomically (temp + rename) so a crash mid-emit never leaves a
/// consumer half a document.
void emit_diag(const certify::Diag& diag, const cg::ConstraintGraph& g,
               bool diag_json, const std::string& diag_json_out = {}) {
  if (diag.ok()) return;
  std::cerr << certify::render(diag, g) << "\n";
  if (diag_json) std::cout << certify::to_json(diag, g) << "\n";
  if (!diag_json_out.empty()) {
    if (persist::Error e = persist::atomic_write_file(
            diag_json_out, certify::to_json(diag, g) + "\n");
        !e.ok()) {
      std::cerr << "cannot write diagnostic JSON: " << e.render() << "\n";
    }
  }
}

/// Graph-mode output stage, shared by the direct and session paths.
void print_graph_products(const cg::ConstraintGraph& g,
                          const anchors::AnchorAnalysis& analysis,
                          const sched::ScheduleResult& result,
                          bool schedule_table, bool verilog, bool dot,
                          bool counter) {
  std::cout << "scheduled in " << result.iterations << " iteration(s)\n";
  if (schedule_table || (!verilog && !dot)) {
    driver::print_schedule_table(std::cout, g, analysis, result.schedule);
  }
  if (verilog) {
    ctrl::ControlOptions opts;
    opts.style = counter ? ctrl::ControlStyle::kCounter
                         : ctrl::ControlStyle::kShiftRegister;
    const auto unit =
        ctrl::generate_control(g, analysis, result.schedule, opts);
    std::cout << unit.to_verilog(g, g.name() + "_ctrl") << "\n";
  }
  if (dot) std::cout << g.to_dot() << "\n";
}

/// Crash-safe --graph mode: the graph runs inside a SynthesisSession
/// with a write-ahead journal, checkpoint/restore, and a cancellation
/// watchdog. Recovery order: snapshot -> WAL tail -> certificate check.
int run_graph_session(cg::ConstraintGraph g, const RunOptions& run,
                      bool schedule_table, bool verilog, bool dot,
                      bool counter, bool diag_json) {
  engine::SessionOptions sopts;
  sopts.cancel = g_cancel;
  if (run.deadline_ms >= 0) {
    sopts.deadline = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(run.deadline_ms);
  }

  std::optional<engine::SynthesisSession> session;
  const bool checkpointing = !run.checkpoint_dir.empty();
  const std::string snap =
      checkpointing ? persist::snapshot_path(run.checkpoint_dir) : "";
  const std::string wal =
      checkpointing ? persist::wal_path(run.checkpoint_dir) : "";

  if (run.resume && checkpointing && ::access(snap.c_str(), F_OK) == 0) {
    engine::SynthesisSession::RestoreReport report;
    session = engine::SynthesisSession::restore(run.checkpoint_dir, sopts,
                                                &report);
    if (!session.has_value()) {
      std::cerr << "cannot resume: " << report.error.render() << "\n";
      return 1;
    }
    if (report.wal_torn_tail) {
      std::cerr << "note: dropped torn WAL tail (" << report.wal_torn_detail
                << ")\n";
    }
    if (report.cold_fallback) {
      std::cerr << "note: restored products failed certification; "
                   "recomputed cold\n";
    }
  } else {
    session.emplace(std::move(g), sopts);
    // Crash before the first checkpoint: no snapshot yet, but the WAL
    // may hold journaled edits. The fresh session is rebuilt from the
    // input deterministically, so the tail replays onto it exactly.
    if (checkpointing && ::access(wal.c_str(), F_OK) == 0) {
      engine::SynthesisSession::RestoreReport report;
      if (persist::Error e = session->replay_wal(wal, &report); !e.ok()) {
        std::cerr << "cannot replay journal: " << e.render() << "\n";
        return 1;
      }
      if (report.wal_torn_tail) {
        std::cerr << "note: dropped torn WAL tail (" << report.wal_torn_detail
                  << ")\n";
      }
    }
  }

  if (checkpointing) {
    if (persist::Error e = persist::ensure_dir(run.checkpoint_dir); !e.ok()) {
      std::cerr << "cannot create checkpoint directory: " << e.render()
                << "\n";
      return 1;
    }
    if (persist::Error e = session->attach_wal(wal); !e.ok()) {
      std::cerr << "cannot attach journal: " << e.render() << "\n";
      return 1;
    }
  }

  const engine::Products& products = session->resolve();

  // Final clean checkpoint: on success, on failure verdicts, and on
  // cancellation alike -- a later --resume picks up from here.
  if (checkpointing) {
    if (persist::Error e = session->checkpoint(run.checkpoint_dir); !e.ok()) {
      std::cerr << "cannot write checkpoint: " << e.render() << "\n";
    }
  }

  if (products.schedule.status == sched::ScheduleStatus::kCancelled) {
    std::cerr << "stopped: " << products.schedule.message << "\n";
    if (checkpointing) {
      std::cerr << "partial state checkpointed to '" << run.checkpoint_dir
                << "' (resume with --resume)\n";
    }
    emit_diag(products.schedule.diag, session->graph(), diag_json,
              run.diag_json_out);
    return 6;
  }
  if (!products.ok()) {
    std::cerr << "no schedule: " << products.schedule.message << "\n";
    emit_diag(products.schedule.diag, session->graph(), diag_json,
              run.diag_json_out);
    return exit_code_for(products.schedule.status);
  }
  print_graph_products(session->graph(), products.analysis, products.schedule,
                       schedule_table, verilog, dot, counter);
  return 0;
}

/// Shared tail of --graph mode once a graph is in hand (parsed from
/// either the text or the streamed binary format): validate, make
/// well-posed, then schedule once or run the incremental session.
int run_parsed_graph(cg::ConstraintGraph g, const RunOptions& run,
                     bool schedule_table, bool verilog, bool dot, bool counter,
                     bool diag_json) {
  if (const auto issues = g.validate(); !issues.empty()) {
    std::cerr << "invalid graph: " << issues.front().message << "\n";
    return 1;
  }
  const auto fix = wellposed::make_wellposed(g);
  if (fix.status != wellposed::Status::kWellPosed) {
    std::cerr << "cannot schedule: " << wellposed::to_string(fix.status)
              << " (" << fix.message << ")\n";
    // The failure rolled `g` back; the witness refers to the restored
    // graph with the pre-failure serializing edges re-applied.
    cg::ConstraintGraph wg = g;
    for (const auto& [a, v] : fix.added_edges) wg.add_sequencing_edge(a, v);
    emit_diag(fix.diag, wg, diag_json, run.diag_json_out);
    return exit_code_for(fix.status);
  }
  for (const auto& [from, to] : fix.added_edges) {
    std::cout << "serialized: " << g.vertex(from).name << " -> "
              << g.vertex(to).name << "\n";
  }
  if (run.session_mode()) {
    return run_graph_session(std::move(g), run, schedule_table, verilog, dot,
                             counter, diag_json);
  }
  const auto analysis = anchors::AnchorAnalysis::compute(g);
  const auto result = sched::schedule(g, analysis);
  if (!result.ok()) {
    std::cerr << "no schedule: " << result.message << "\n";
    emit_diag(result.diag, g, diag_json, run.diag_json_out);
    return exit_code_for(result.status);
  }
  print_graph_products(g, analysis, result, schedule_table, verilog, dot,
                       counter);
  return 0;
}

/// --graph mode entry for the text format.
int run_graph_mode(const std::string& text, const RunOptions& run,
                   bool schedule_table, bool verilog, bool dot, bool counter,
                   bool diag_json) {
  auto parsed = cg::from_text(text);
  if (!parsed.ok()) {
    std::cerr << parsed.error << "\n";
    return 1;
  }
  return run_parsed_graph(std::move(*parsed.graph), run, schedule_table,
                          verilog, dot, counter, diag_json);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "lint") {
    return lint_main(argc, argv);
  }
  if (argc >= 2 && std::string(argv[1]) == "analyze") {
    return analyze_main(argc, argv);
  }
  if (argc >= 2 && std::string(argv[1]) == "gen") {
    return gen_main(argc, argv);
  }
  bool report = false, schedule = false, stats = false, verilog = false,
       dot = false, counter = false, graph_mode = false, rtl = false,
       diag_json = false;
  RunOptions run;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--report") {
      report = true;
    } else if (arg == "--schedule") {
      schedule = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--verilog") {
      verilog = true;
    } else if (arg == "--dot") {
      dot = true;
    } else if (arg == "--counter") {
      counter = true;
    } else if (arg == "--graph") {
      graph_mode = true;
    } else if (arg == "--rtl") {
      rtl = true;
    } else if (arg == "--diag-json") {
      diag_json = true;
    } else if (arg == "--diag-json-out") {
      if (++i >= argc) return usage();
      run.diag_json_out = argv[i];
    } else if (arg == "--checkpoint-dir") {
      if (++i >= argc) return usage();
      run.checkpoint_dir = argv[i];
    } else if (arg == "--resume") {
      run.resume = true;
    } else if (arg == "--deadline-ms") {
      if (++i >= argc) return usage();
      char* end = nullptr;
      run.deadline_ms = std::strtoll(argv[i], &end, 10);
      if (end == argv[i] || *end != '\0' || run.deadline_ms < 0) {
        std::cerr << "--deadline-ms expects a non-negative integer, got '"
                  << argv[i] << "'\n";
        return 2;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      path = arg;
    }
  }
  if (path.empty()) return usage();
  if (!report && !schedule && !stats && !verilog && !dot && !rtl) {
    report = true;
  }
  if (run.resume && run.checkpoint_dir.empty()) {
    std::cerr << "--resume requires --checkpoint-dir\n";
    return 2;
  }
  if (run.session_mode()) {
    // Ctrl-C / SIGTERM request cooperative cancellation so the run can
    // write its final checkpoint; the default disposition stays in
    // place for plain (non-session) invocations.
    g_cancel = base::CancelToken::make();
    std::signal(SIGINT, request_cancel_handler);
    std::signal(SIGTERM, request_cancel_handler);
  }

  // Binary graphs are loaded streamed -- never slurped into a string
  // like the text formats below -- so a 10^6-vertex design stays
  // inside the memory ceiling. The suffix check catches files the
  // sniff cannot open (read_binary_file then reports the I/O error).
  if ((path.size() > 4 && path.substr(path.size() - 4) == ".cgb") ||
      cg::is_binary_graph_file(path)) {
    auto parsed = cg::read_binary_file(path);
    if (!parsed.ok()) {
      std::cerr << parsed.error << "\n";
      return 1;
    }
    return run_parsed_graph(std::move(*parsed.graph), run, schedule, verilog,
                            dot, counter, diag_json);
  }

  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open '" << path << "'\n";
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();

  if (graph_mode ||
      (path.size() > 3 && path.substr(path.size() - 3) == ".cg")) {
    return run_graph_mode(buffer.str(), run, schedule, verilog, dot, counter,
                          diag_json);
  }
  if (run.session_mode()) {
    std::cerr << "--checkpoint-dir/--resume/--deadline-ms apply to --graph "
                 "mode only\n";
    return 2;
  }

  auto compiled = hdl::compile(buffer.str());
  if (!compiled.ok()) {
    std::cerr << path << ":\n" << compiled.diagnostics.to_string();
    return 1;
  }
  for (const auto& diag : compiled.diagnostics.diagnostics()) {
    std::cerr << path << ":" << diag.loc << ": warning: " << diag.message
              << "\n";
  }

  for (seq::Design& design : compiled.designs) {
    const auto result = driver::synthesize(design);
    if (!result.ok()) {
      std::cerr << "process '" << design.name()
                << "': " << driver::to_string(result.status) << ": "
                << result.message << "\n";
      emit_diag(result.diag, result.diag_graph, diag_json, run.diag_json_out);
      return driver::exit_code(result.status);
    }
    if (report) {
      driver::print_design_report(std::cout, design, result);
      std::cout << "\n";
    }
    if (schedule) {
      for (const auto& gs : result.graphs) {
        std::cout << "graph '" << design.graph(gs.graph_id).name() << "':\n";
        driver::print_schedule_table(std::cout, gs.constraint_graph,
                                     gs.analysis, gs.schedule.schedule);
        std::cout << "\n";
      }
    }
    if (stats) {
      const auto s = driver::compute_stats(result);
      std::cout << "|A|/|V| = " << s.total_anchors << "/" << s.total_vertices
                << "\nsum |A(v)| = " << s.sum_full
                << " (avg " << s.avg_full() << ")"
                << "\nsum |IR(v)| = " << s.sum_irredundant << " (avg "
                << s.avg_irredundant() << ")"
                << "\nmax offset full/min = " << s.max_offset_full << "/"
                << s.max_offset_min
                << "\nsum of max offsets full/min = " << s.sum_max_offset_full
                << "/" << s.sum_max_offset_min << "\n\n";
    }
    if (verilog) {
      for (const auto& gs : result.graphs) {
        ctrl::ControlOptions opts;
        opts.style = counter ? ctrl::ControlStyle::kCounter
                             : ctrl::ControlStyle::kShiftRegister;
        const auto unit = ctrl::generate_control(
            gs.constraint_graph, gs.analysis, gs.schedule.schedule, opts);
        std::cout << unit.to_verilog(
                         gs.constraint_graph,
                         design.name() + "_" +
                             design.graph(gs.graph_id).name() + "_ctrl")
                  << "\n";
      }
    }
    if (dot) {
      for (const auto& gs : result.graphs) {
        std::cout << gs.constraint_graph.to_dot() << "\n";
      }
    }
    if (rtl) {
      ctrl::ControlOptions copts;
      copts.style = counter ? ctrl::ControlStyle::kCounter
                            : ctrl::ControlStyle::kShiftRegister;
      const auto control = ctrl::generate_design_control(result, copts);
      std::cout << control.to_verilog(design, result, design.name()) << "\n";
      const auto dp =
          rtl::generate_datapath(design, result, design.name() + "_dp");
      std::cout << dp.verilog << "\n// datapath stats: " << dp.stats.registers
                << " register bits, " << dp.stats.functional_units
                << " functional units, " << dp.stats.mux_inputs
                << " mux inputs\n";
    }
  }
  return 0;
}
