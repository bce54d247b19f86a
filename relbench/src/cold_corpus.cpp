// cold_corpus: the batch CLI user. A closed loop takes one design after
// another from text to a certified schedule and slack report:
// cg::from_text, a library-default SynthesisSession::resolve() (certify
// off, shared pool), analyze::analyze on the engine's analysis, and
// certify::check_products. The traced run then replays resolve()'s
// cold steps on the same parsed graph through the same public calls,
// outside the op's latency, to split the resolve by layer.
#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "anchors/anchor_analysis.hpp"
#include "base/thread_pool.hpp"
#include "certify/certify.hpp"
#include "cg/graph_io.hpp"
#include "common.hpp"
#include "engine/session.hpp"
#include "graph/dynamic_topo.hpp"
#include "sched/scheduler.hpp"
#include "wellposed/wellposed.hpp"

namespace relbench {

namespace {

using namespace relsched;

/// resolve()'s cold path, step by step, as engine::SynthesisSession
/// runs it (validate, topo reset, feasibility, pooled anchor analysis,
/// well-posedness, schedule), plus a sequential anchor analysis for the
/// pool's speedup.
void replay_cold_steps(const cg::ConstraintGraph& g, Trace& trace,
                       long long op, Result& result) {
  {
    Trace::Span span(trace, "cg.validate", op);
    if (!g.validate().empty()) result.fail_gate("replay: design invalid");
  }
  {
    Trace::Span span(trace, "graph.topo_reset", op);
    graph::DynamicTopoOrder topo;
    if (!topo.reset(g.project_forward())) {
      result.fail_gate("replay: forward cycle");
    }
  }
  {
    Trace::Span span(trace, "wellposed.feasible", op);
    if (!wellposed::is_feasible(g)) result.fail_gate("replay: infeasible");
  }
  anchors::AnchorAnalysis analysis;
  {
    Trace::Span span(trace, "anchors.compute", op);
    analysis = anchors::AnchorAnalysis::compute(g, base::shared_pool().get());
  }
  {
    Trace::Span span(trace, "anchors.compute_seq", op);
    (void)anchors::AnchorAnalysis::compute(g, nullptr);
  }
  {
    Trace::Span span(trace, "wellposed.check", op);
    if (wellposed::check(g, analysis.anchor_sets()).status ==
        wellposed::Status::kIllPosed) {
      result.fail_gate("replay: ill-posed");
    }
  }
  sched::ScheduleOptions options;
  options.prechecks = false;
  sched::ScheduleResult schedule;
  {
    Trace::Span span(trace, "sched.schedule", op);
    schedule = sched::schedule(g, analysis, options);
  }
  if (!schedule.ok()) result.fail_gate("replay: schedule failed");
  trace.count("sched.iterations", schedule.iterations);
}

}  // namespace

void run_cold_corpus(const Args& args, Trace& trace, Result& result) {
  // The corpus is a fixed data set and the seed draws the visiting
  // order (see kCorpusSeed).
  const std::vector<designs::GeneratorParams> params =
      args.smoke ? corpus_params(kCorpusSeed, 3, 2.5, 3.0, 4, 8, "cold")
                 : corpus_params(kCorpusSeed, 10, 4.0, 5.0, 8, 64, "cold");
  std::vector<std::string> texts;
  const double setup_s = timed_setup(kSetupRepeats, [&] {
    texts.clear();
    for (const designs::GeneratorParams& p : params) {
      texts.push_back(cg::to_text(designs::generate(p)));
    }
  });

  // A seeded visiting order, the same in every pass.
  const std::vector<int> order = seeded_order(texts.size(), args.seed);

  std::vector<std::vector<double>> design_ms(order.size());
  std::vector<double> design_vertices(order.size(), 0);
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  double parsed_bytes = 0;
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
      const std::string& text = texts[static_cast<std::size_t>(d)];
      const Clock::time_point t0 = Clock::now();
      std::optional<engine::SynthesisSession> session;
      bool ok = true;
      {
        Trace::Span op_span(trace, "op", op);
        cg::ParseResult parsed;
        {
          Trace::Span span(trace, "cg.parse", op);
          parsed = cg::from_text(text);
        }
        if (!parsed.ok()) {
          result.fail_op("parse: " + parsed.error);
          continue;
        }
        session.emplace(std::move(*parsed.graph));
        const engine::Products* products = nullptr;
        {
          Trace::Span span(trace, "engine.cold_resolve", op);
          products = &session->resolve();
        }
        analyze::Report report;
        certify::Diag diag;
        if (products->ok()) {
          {
            Trace::Span span(trace, "analyze.slack", op);
            report = analyze::analyze(session->graph(), &products->analysis);
          }
          Trace::Span span(trace, "certify.products", op);
          diag = certify::check_products(session->graph(), products->analysis,
                                         products->schedule.schedule);
        }
        if (!products->ok()) {
          ok = false;
          result.fail_op("resolve: " + products->schedule.message);
        } else if (!report.ok()) {
          ok = false;
          result.fail_op("analyze: " + report.message);
        } else if (!diag.ok()) {
          ok = false;
          result.fail_op("check_products: " + diag.message);
        }
      }
      const double ms = ms_since(t0);
      if (!ok) continue;
      design_ms[static_cast<std::size_t>(d)].push_back(ms);
      design_vertices[static_cast<std::size_t>(d)] = session->graph().vertex_count();
      (trace.recording() ? traced_ms : untraced_ms).push_back(ms);
      if (trace.recording()) {
        parsed_bytes += static_cast<double>(text.size());
        replay_cold_steps(session->graph(), trace, op, result);
      }
    }
  });
  trace.set_recording(false);

  if (!args.trace) {
    report_end_to_end(result, {per_design_window(design_ms, design_vertices)},
                      setup_s, self_peak_rss_mb());
    return;
  }
  const std::vector<double> parse_ms = trace.durations_ms("cg.parse");
  double parse_total_ms = 0;
  for (const double ms : parse_ms) parse_total_ms += ms;
  report_span(result, trace, "cg.parse", "cg.parse_ms");
  result.metric("cg.parse_mb_per_s",
                parse_total_ms > 0 ? parsed_bytes / 1e6 / (parse_total_ms / 1e3)
                                   : 0);
  for (const char* step : {"cg.validate", "graph.topo_reset",
                           "wellposed.feasible", "wellposed.check",
                           "sched.schedule", "anchors.compute",
                           "anchors.compute_seq", "engine.cold_resolve",
                           "analyze.slack", "certify.products"}) {
    report_span(result, trace, step, std::string(step) + "_ms");
  }
  result.metric("sched.iterations", median(trace.samples("sched.iterations")));
  double pooled = 0;
  double seq = 0;
  for (const double ms : trace.durations_ms("anchors.compute")) pooled += ms;
  for (const double ms : trace.durations_ms("anchors.compute_seq")) seq += ms;
  result.metric("anchors.pool_speedup", pooled > 0 ? seq / pooled : 0);
  report_overhead(result, traced_ms, untraced_ms);
}

}  // namespace relbench
