// edit_stream: the interactive user. It is not a workload of its own:
// it runs in cold_corpus's traced run, after the corpus, and gives the
// warm-path per-layer metrics. Its op latencies (5-15 ms on the
// memory-bound warm path of a 10^5-vertex design) moved by up to 2x
// between runs minutes apart on a shared 4-vCPU VM, so no end-to-end
// metric of the benchmark is taken from it.
//
// A closed loop of one designer on one 10^5-vertex design: each op is
// one journaled constraint edit plus resolve(); every 8th op is instead an 8-edit begin_txn()/commit()
// batch. The seeded EditMix keeps the design schedulable, so only the
// engine's warm path runs (topo patch, SPFA repair, anchor-row patch,
// warm reschedule); parsing and cold projection happen at set-up only.
//
// The edits are a fixed data set, like the other workloads' designs:
// kBlocks blocks, each an EditMix stream of kBlockEdits edits followed
// by the undo of every perturbation still outstanding, so a block
// leaves the design in its base state and blocks can run in any order.
// A pass runs every block once, in an order drawn from the seed, and
// the phase is whole passes. When the seed drew the edits, the op tail
// was a property of how many costly edits it happened to draw: two
// seeds rerun three times each kept op_ms.p99 / op_ms.p50 at 13.2-13.5
// and 9.0-9.8 respectively.
#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "cg/graph_io.hpp"
#include "common.hpp"
#include "edit_mix.hpp"
#include "engine/session.hpp"
#include "serve/server.hpp"

namespace relbench {

namespace {

using namespace relsched;

constexpr int kTxnEvery = 8;
constexpr int kTxnEdits = 8;
constexpr int kBlocks = 16;
constexpr int kBlockEdits = 48;

}  // namespace

void run_edit_stream(const Args& args, Trace& trace, Result& result) {
  // The design is fixed (the 10^5-vertex, 20-anchor design of the
  // scale bench's seed 90), and so are the edit blocks; the seed draws
  // the blocks' order. One design per seed would make the run's figures
  // a property of that design: between seeds they moved by 25-40%.
  const designs::GeneratorParams params = design_params(
      kCorpusSeed, args.smoke ? 2000 : 100000, args.smoke ? 6 : 20, "edit");
  std::optional<engine::SynthesisSession> session;
  std::vector<std::vector<EditCmd>> blocks;
  {
    cg::ParseResult parsed =
        cg::from_text(cg::to_text(designs::generate(params)));
    if (!parsed.ok()) {
      result.fail_gate("parse: " + parsed.error);
      return;
    }
    session.emplace(std::move(*parsed.graph));
    if (!session->resolve().ok()) {
      result.fail_gate("initial resolve failed");
      return;
    }
    const analyze::Report slack =
        analyze::analyze(session->graph(), &session->products().analysis);
    blocks.clear();
    for (int b = 0; b < kBlocks; ++b) {
      EditMix mix(session->graph(), &slack,
                  mix64(kCorpusSeed ^ (static_cast<std::uint64_t>(b + 1) << 40)));
      std::vector<EditCmd> block;
      for (int i = 0; i < kBlockEdits; ++i) block.push_back(mix.next());
      while (const std::optional<EditCmd> undo = mix.undo_next()) {
        block.push_back(*undo);
      }
      blocks.push_back(std::move(block));
    }
  }
  if (!result.correct) return;

  const engine::SessionStats before = session->stats();
  double op_total_s = 0;
  long long edits = 0;
  double cone_merged = 0;
  double cone_sum = 0;
  long long op = 0;
  bool broken = false;
  // Whole passes while the next one is predicted (from the slowest so
  // far) to end within args.seconds, and at least one.
  const Clock::time_point t_start = Clock::now();
  double slowest_s = 0;
  for (std::uint64_t pass = 0; !broken; ++pass) {
    if (pass > 0 && ms_since(t_start) / 1000.0 + slowest_s > args.seconds) break;
    const Clock::time_point p0 = Clock::now();
    std::vector<const EditCmd*> stream;
    for (const int b : seeded_order(blocks.size(), mix64(args.seed ^ (pass << 32)))) {
      for (const EditCmd& e : blocks[static_cast<std::size_t>(b)]) stream.push_back(&e);
    }
    std::size_t next = 0;
    trace.set_recording(true);
    for (long long j = 1; next < stream.size(); ++j) {
      ++op;
      ++result.attempted;
      const bool txn = j % kTxnEvery == 0;
      const std::size_t n =
          std::min<std::size_t>(txn ? kTxnEdits : 1, stream.size() - next);
      const engine::SessionStats s0 = session->stats();
      const Clock::time_point t0 = Clock::now();
      const engine::Products* products = nullptr;
      {
        Trace::Span op_span(trace, "edit.op", op);
        if (txn) session->begin_txn();
        for (std::size_t i = 0; i < n; ++i) {
          Trace::Span span(trace, "cg.edit", op);
          apply(*session, *stream[next++]);
        }
        if (txn) {
          Trace::Span span(trace, "engine.commit", op);
          products = &session->commit();
        } else {
          Trace::Span span(trace, "engine.warm_resolve", op);
          products = &session->resolve();
        }
      }
      const double ms = ms_since(t0);
      if (!products->ok()) {
        result.fail_op("resolve after edit: " + products->schedule.message);
        broken = true;  // the stream's invariant is broken; later edits are moot
        break;
      }
      edits += static_cast<long long>(n);
      op_total_s += ms / 1000.0;
      const engine::SessionStats s1 = session->stats();
      trace.count("engine.warm_topo_us", s1.warm_topo_us - s0.warm_topo_us);
      trace.count("engine.warm_spfa_us", s1.warm_spfa_us - s0.warm_spfa_us);
      trace.count("engine.warm_anchor_us", s1.warm_anchor_us - s0.warm_anchor_us);
      trace.count("engine.warm_resched_us",
                  s1.warm_resched_us - s0.warm_resched_us);
      trace.count("engine.dirty_cone_vertices",
                  static_cast<double>(session->last_dirty_cone().size()));
      if (txn && s1.last_cone_vertices_sum > 0) {
        cone_merged += s1.last_merged_cone_vertices;
        cone_sum += static_cast<double>(s1.last_cone_vertices_sum);
      }
    }
    trace.set_recording(false);
    slowest_s = std::max(slowest_s, ms_since(p0) / 1000.0);
  }

  // Untimed gate: the warm products equal a cold resolve bit for bit.
  engine::SynthesisSession cold(session->graph());
  if (serve::products_digest(cold.resolve()) !=
      serve::products_digest(session->products())) {
    result.fail_gate("final warm products differ from a cold resolve");
  }

  const engine::SessionStats after = session->stats();
  report_span(result, trace, "cg.edit", "cg.edit_us", 1000.0);
  report_span(result, trace, "engine.warm_resolve", "engine.warm_resolve_ms");
  report_span(result, trace, "engine.commit", "engine.commit_ms");
  for (const char* counter :
       {"engine.warm_topo_us", "engine.warm_spfa_us", "engine.warm_anchor_us",
        "engine.warm_resched_us", "engine.dirty_cone_vertices"}) {
    result.metric(counter, median(trace.samples(counter)));
  }
  const double rows = static_cast<double>(after.anchor_rows_recomputed -
                                          before.anchor_rows_recomputed);
  const double rows_cold = static_cast<double>(
      after.anchor_rows_cold_equivalent - before.anchor_rows_cold_equivalent);
  result.metric("engine.anchor_rows_ratio", rows_cold > 0 ? rows / rows_cold : 0);
  const double warm = after.warm_resolves - before.warm_resolves;
  const double all = warm + (after.cold_resolves - before.cold_resolves);
  result.metric("engine.warm_ratio", all > 0 ? warm / all : 0);
  result.metric("engine.txn_cone_ratio", cone_sum > 0 ? cone_merged / cone_sum : 0);
  result.metric("edits_per_s", op_total_s > 0 ? edits / op_total_s : 0);
}

}  // namespace relbench
