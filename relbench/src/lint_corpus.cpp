// lint_corpus: the `relsched_cli lint` / `analyze --extract` user. A
// closed loop runs, per design, lint::analyze, a cold resolve(),
// analyze::analyze on the engine's analysis and a certified
// analyze::extract_critical. The superlinear redundancy query does most
// of the work here and almost none elsewhere. Designs are parsed at
// set-up; the traced run also times lint::redundant_constraints alone,
// outside the op's latency.
#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "cg/graph_io.hpp"
#include "common.hpp"
#include "engine/session.hpp"
#include "lint/lint.hpp"

namespace relbench {

using namespace relsched;

void run_lint_corpus(const Args& args, Trace& trace, Result& result) {
  // The corpus is a fixed data set and the seed draws the visiting
  // order. At one size the redundancy query's cost varies by about a
  // third with graph structure, so a per-seed corpus would make the
  // tail figures a property of its largest design.
  const std::vector<designs::GeneratorParams> params =
      args.smoke ? corpus_params(kCorpusSeed, 3, 2.0, 2.5, 2, 4, "lint")
                 : corpus_params(kCorpusSeed, 12, 3.0, 4.0, 4, 16, "lint");
  std::vector<cg::ConstraintGraph> graphs;
  trace.set_recording(args.trace);  // prices the set-up parses
  const double setup_s = timed_setup(kSetupRepeats, [&] {
    graphs.clear();
    for (const designs::GeneratorParams& p : params) {
      const std::string text = cg::to_text(designs::generate(p));
      cg::ParseResult parsed;
      {
        Trace::Span span(trace, "cg.parse", 0);
        parsed = cg::from_text(text);
      }
      if (!parsed.ok()) {
        result.fail_gate("parse: " + parsed.error);
        return;
      }
      graphs.push_back(std::move(*parsed.graph));
    }
  });
  trace.set_recording(false);
  if (!result.correct) return;

  // A seeded visiting order, the same in every pass.
  const std::vector<int> order = seeded_order(graphs.size(), args.seed);

  std::vector<std::vector<double>> design_ms(order.size());
  std::vector<double> design_vertices(order.size(), 0);
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  long long op = 0;
  // The traced run does every op twice, untraced then traced, so the
  // tracing overhead is priced on the same designs in the same state.
  const int min_passes = args.trace ? 1 : 3;
  run_passes(args.seconds, min_passes, [&] {
    for (int i = 0; i < static_cast<int>(order.size() * (args.trace ? 2 : 1)); ++i) {
      const int d = order[static_cast<std::size_t>(args.trace ? i / 2 : i)];
      trace.set_recording(args.trace && i % 2 == 1);
      ++op;
      ++result.attempted;
      const cg::ConstraintGraph& g = graphs[static_cast<std::size_t>(d)];
      const Clock::time_point t0 = Clock::now();
      std::string failure;
      lint::Report lint_report;
      analyze::Extraction extraction;
      engine::SynthesisSession session(g);
      {
        Trace::Span op_span(trace, "op", op);
        {
          Trace::Span span(trace, "lint.analyze", op);
          lint_report = lint::analyze(g);
        }
        const engine::Products* products = nullptr;
        {
          Trace::Span span(trace, "engine.cold_resolve", op);
          products = &session.resolve();
        }
        if (products->ok()) {
          analyze::Report report;
          {
            Trace::Span span(trace, "analyze.slack", op);
            report = analyze::analyze(session.graph(), &products->analysis);
          }
          Trace::Span span(trace, "analyze.extract", op);
          extraction = analyze::extract_critical(session.graph(), report,
                                                 &products->analysis);
        }
        if (lint_report.count(lint::Severity::kError) > 0) {
          failure = "lint reported an error on a valid design";
        } else if (!products->ok()) {
          failure = "resolve: " + products->schedule.message;
        } else if (!extraction.certified) {
          failure = "extraction not certified: " +
                    extraction.certification_error;
        }
      }
      const double ms = ms_since(t0);
      if (!failure.empty()) {
        result.fail_op(failure);
        continue;
      }
      design_ms[static_cast<std::size_t>(d)].push_back(ms);
      design_vertices[static_cast<std::size_t>(d)] = g.vertex_count();
      (trace.recording() ? traced_ms : untraced_ms).push_back(ms);
      if (trace.recording()) {
        trace.count("lint.findings",
                    static_cast<double>(lint_report.findings.size()));
        trace.count("analyze.subgraph_ratio",
                    static_cast<double>(extraction.subgraph.vertex_count()) /
                        extraction.full_vertices);
        Trace::Span span(trace, "lint.redundant", op);
        (void)lint::redundant_constraints(g, session.products().analysis);
      }
    }
  });
  trace.set_recording(false);

  if (!args.trace) {
    report_end_to_end(result, {per_design_window(design_ms, design_vertices)},
                      setup_s, self_peak_rss_mb());
    return;
  }
  report_span(result, trace, "cg.parse", "cg.parse_ms");
  for (const char* step : {"lint.analyze", "lint.redundant",
                           "engine.cold_resolve", "analyze.slack",
                           "analyze.extract"}) {
    report_span(result, trace, step, std::string(step) + "_ms");
  }
  result.metric("lint.findings", median(trace.samples("lint.findings")));
  result.metric("analyze.subgraph_ratio",
                median(trace.samples("analyze.subgraph_ratio")));
  report_overhead(result, traced_ms, untraced_ms);
}

}  // namespace relbench
