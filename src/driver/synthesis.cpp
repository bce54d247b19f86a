#include "driver/synthesis.hpp"

#include "base/strings.hpp"
#include "engine/session.hpp"
#include "seq/to_constraint_graph.hpp"

namespace relsched::driver {

const char* to_string(SynthesisStatus status) {
  switch (status) {
    case SynthesisStatus::kOk:
      return "ok";
    case SynthesisStatus::kIllPosed:
      return "ill-posed";
    case SynthesisStatus::kInfeasible:
      return "infeasible";
    case SynthesisStatus::kInconsistent:
      return "inconsistent";
    case SynthesisStatus::kInvalid:
      return "invalid";
  }
  return "?";
}

int exit_code(SynthesisStatus status) {
  switch (status) {
    case SynthesisStatus::kOk:
      return 0;
    case SynthesisStatus::kInfeasible:
      return 3;
    case SynthesisStatus::kIllPosed:
      return 4;
    case SynthesisStatus::kInconsistent:
      return 5;
    case SynthesisStatus::kInvalid:
      return 1;
  }
  return 1;
}

const GraphSynthesis& SynthesisResult::for_graph(SeqGraphId id) const {
  RELSCHED_CHECK(id.is_valid() && id.index() < graph_index.size() &&
                     graph_index[id.index()] >= 0,
                 "graph was not synthesized");
  return graphs[static_cast<std::size_t>(graph_index[id.index()])];
}

namespace {

/// Resolves the delays of hierarchical ops from already-synthesized
/// children. A data-dependent loop is always unbounded; a conditional or
/// call is bounded iff all involved child graphs are (a conditional then
/// takes the worst-case branch latency, fixed-latency control).
void resolve_hierarchical_delays(seq::SeqGraph& graph,
                                 const SynthesisResult& partial) {
  for (seq::SeqOp& op : graph.ops()) {
    switch (op.kind) {
      case seq::OpKind::kLoop:
        op.delay = cg::Delay::unbounded();
        break;
      case seq::OpKind::kCond: {
        const cg::Delay then_latency = partial.for_graph(op.body).latency;
        cg::Delay else_latency = cg::Delay::bounded(0);
        if (op.else_body.is_valid()) {
          else_latency = partial.for_graph(op.else_body).latency;
        }
        if (then_latency.is_bounded() && else_latency.is_bounded()) {
          op.delay = cg::Delay::bounded(
              std::max(then_latency.cycles(), else_latency.cycles()));
        } else {
          op.delay = cg::Delay::unbounded();
        }
        break;
      }
      case seq::OpKind::kCall:
        op.delay = partial.for_graph(op.body).latency;
        break;
      default:
        break;
    }
  }
}

}  // namespace

namespace {

/// Outcome of one bind-and-schedule attempt for a single graph.
enum class AttemptStatus { kOk, kRetryable, kFatal };

AttemptStatus attempt_graph(seq::SeqGraph& sg, GraphSynthesis& gs,
                            const SynthesisOptions& options,
                            unsigned perturbation, SynthesisResult& result) {
  bind::BindingOptions bopts = options.binding;
  bopts.perturbation = perturbation;
  gs.binding = bind::bind_graph(sg, options.library, bopts);
  gs.constraint_graph = seq::to_constraint_graph(sg);

  if (const auto issues = gs.constraint_graph.validate(); !issues.empty()) {
    result.status = SynthesisStatus::kInvalid;
    result.message = cat("graph '", sg.name(), "': ", issues.front().message);
    return AttemptStatus::kFatal;
  }
  if (options.apply_make_wellposed) {
    gs.wellposed_fix = wellposed::make_wellposed(gs.constraint_graph);
    if (gs.wellposed_fix.status != wellposed::Status::kWellPosed) {
      if (gs.wellposed_fix.status == wellposed::Status::kInfeasible) {
        result.status = SynthesisStatus::kInfeasible;
        result.message = cat("graph '", sg.name(), "': infeasible constraints");
      } else {
        result.status = SynthesisStatus::kIllPosed;
        result.message =
            cat("graph '", sg.name(), "': ", gs.wellposed_fix.message);
      }
      result.diag = gs.wellposed_fix.diag;
      // make_wellposed rolled the graph back; its witness refers to the
      // restored graph with the pre-failure serializing edges re-applied.
      result.diag_graph = gs.constraint_graph;
      for (const auto& [a, v] : gs.wellposed_fix.added_edges) {
        result.diag_graph.add_sequencing_edge(a, v);
      }
      return AttemptStatus::kRetryable;
    }
  }

  // Lint before scheduling: the analyzer sees exactly the graph the
  // session is about to own (post-binding, post-make_wellposed), so a
  // reported unsat core or ill-posed edge explains the failure the
  // scheduler would hit. Advisory only -- findings never change the
  // synthesis outcome.
  if (options.lint) {
    gs.lint_report = lint::analyze(gs.constraint_graph);
  }

  // From here the synthesis session owns the graph and every derived
  // product; driver-level retries build a fresh session, while
  // interactive callers (examples/design_explorer) keep editing one
  // session and resolve incrementally.
  engine::SessionOptions eopts;
  eopts.schedule_mode = options.schedule_mode;
  engine::SynthesisSession session(std::move(gs.constraint_graph), eopts);
  const engine::Products& products = session.resolve();
  gs.constraint_graph = session.graph();
  gs.analysis = products.analysis;
  gs.schedule = products.schedule;
  if (!gs.schedule.ok()) {
    switch (gs.schedule.status) {
      case sched::ScheduleStatus::kInfeasible:
        result.status = SynthesisStatus::kInfeasible;
        break;
      case sched::ScheduleStatus::kIllPosed:
        result.status = SynthesisStatus::kIllPosed;
        break;
      case sched::ScheduleStatus::kInconsistent:
        result.status = SynthesisStatus::kInconsistent;
        break;
      default:
        result.status = SynthesisStatus::kInvalid;
        break;
    }
    result.message = cat("graph '", sg.name(), "': ", gs.schedule.message);
    result.diag = gs.schedule.diag;
    result.diag_graph = gs.constraint_graph;
    // A different serialization order may satisfy the constraints
    // (constrained conflict resolution); structural problems cannot be
    // fixed this way.
    return result.status == SynthesisStatus::kInvalid
               ? AttemptStatus::kFatal
               : AttemptStatus::kRetryable;
  }
  return AttemptStatus::kOk;
}

}  // namespace

SynthesisResult synthesize(seq::Design& design,
                           const SynthesisOptions& options) {
  SynthesisResult result;
  result.graph_index.assign(static_cast<std::size_t>(design.graph_count()), -1);

  for (SeqGraphId gid : design.postorder()) {
    seq::SeqGraph& sg = design.graph(gid);
    GraphSynthesis gs;
    gs.graph_id = gid;

    resolve_hierarchical_delays(sg, result);
    const seq::SeqGraph pristine = sg;  // rollback point for retries

    AttemptStatus status = AttemptStatus::kFatal;
    for (int attempt = 0; attempt <= options.conflict_resolution_retries;
         ++attempt) {
      if (attempt > 0) sg = pristine;  // drop the previous serialization
      gs = GraphSynthesis{};
      gs.graph_id = gid;
      status = attempt_graph(sg, gs, options,
                             options.binding.perturbation +
                                 static_cast<unsigned>(attempt),
                             result);
      if (status != AttemptStatus::kRetryable) break;
    }
    if (status != AttemptStatus::kOk) {
      return result;  // status/message already populated by the attempt
    }

    // Latency: bounded iff the only anchor is the source.
    if (gs.analysis.anchors().size() == 1) {
      const VertexId sink(sg.sink().value());
      const auto sigma =
          gs.schedule.schedule.offset(sink, gs.constraint_graph.source());
      RELSCHED_CHECK(sigma.has_value(), "sink must track the source anchor");
      gs.latency = cg::Delay::bounded(static_cast<int>(*sigma));
    } else {
      gs.latency = cg::Delay::unbounded();
    }

    result.graph_index[gid.index()] = static_cast<int>(result.graphs.size());
    result.graphs.push_back(std::move(gs));
  }

  result.status = SynthesisStatus::kOk;
  return result;
}

}  // namespace relsched::driver
