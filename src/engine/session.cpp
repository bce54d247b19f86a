#include "engine/session.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <utility>

#include "base/env.hpp"
#include "base/error.hpp"
#include "base/strings.hpp"
#include "certify/certify.hpp"
#include "persist/snapshot.hpp"

namespace relsched::engine {

namespace {

using Clock = std::chrono::steady_clock;

/// Framed-file identity of session snapshots (see persist/serialize.hpp).
constexpr std::string_view kSnapshotMagic = "RSNAP001";
// v2: anchor analysis serialized as anchor-domain + bitset rows (the
// struct-of-arrays core refactor). v3: SessionStats grew wal_retries
// (the serving layer's flaky-filesystem counter). v4: the forward order
// is stored once, as the session's order (products no longer carry a
// copy). Older snapshots are not readable.
constexpr std::uint32_t kSnapshotVersion = 4;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// True when every forward edge of `g` points forward under `topo`.
bool orders_forward_edges(const cg::ConstraintGraph& g,
                          const graph::DynamicTopoOrder& topo) {
  return std::all_of(g.edges().begin(), g.edges().end(),
                     [&topo](const cg::Edge& e) {
                       return !cg::is_forward(e.kind) ||
                              topo.position(e.from.value()) <
                                  topo.position(e.to.value());
                     });
}

}  // namespace

bool certify_default() {
  static const bool enabled = base::env_flag("RELSCHED_CERTIFY", false);
  return enabled;
}

SynthesisSession::SynthesisSession(cg::ConstraintGraph graph,
                                   SessionOptions options)
    : graph_(std::move(graph)), options_(options) {
  RELSCHED_CHECK(options_.threads == 0 || options_.threads == 1,
                 "SessionOptions::threads must be 0 (shared pool) or 1 "
                 "(sequential)");
}

SessionStats SynthesisSession::stats() const {
  SessionStats s = stats_;
  s.forks_taken = forks_taken_->load(std::memory_order_relaxed);
  s.anchor_rows_shared = products_.analysis.rows_shared();
  if (wal_ != nullptr) {
    s.wal_records = wal_->appended_records();
    s.wal_fsyncs = wal_->fsyncs();
    s.wal_retries = wal_->retries();
  }
  return s;
}

void SynthesisSession::begin_txn() {
  RELSCHED_CHECK(!in_txn_, "transactions do not nest");
  in_txn_ = true;
}

const Products& SynthesisSession::commit() {
  RELSCHED_CHECK(in_txn_, "commit() without begin_txn()");
  in_txn_ = false;

  // Cone accounting for the batch: what one-resolve-per-edit would have
  // flooded (sum of per-edit cones) vs. the single merged cone this
  // commit floods. Both are measured on the committed graph so the
  // comparison is apples-to-apples; skipped when the batch forces a
  // cold resolve, which floods no cone at all.
  stats_.last_txn_edits = static_cast<int>(pending_.size());
  ++stats_.transactions;
  stats_.edits_coalesced += stats_.last_txn_edits;
  stats_.last_merged_cone_vertices = 0;
  stats_.last_cone_vertices_sum = 0;

  const bool cold =
      force_cold_ ||
      std::any_of(pending_.begin(), pending_.end(), [](const PendingEdit& e) {
        return e.effect == PendingEdit::Effect::kAnchorFlip;
      });
  if (!cold && resolved_once_) {
    long long sum = 0;
    std::vector<VertexId> merged_seeds;
    for (const PendingEdit& e : pending_) {
      sum += flood_count(e.seeds);
      merged_seeds.insert(merged_seeds.end(), std::begin(e.seeds),
                          std::end(e.seeds));
    }
    stats_.last_cone_vertices_sum = sum;
    stats_.last_merged_cone_vertices = flood_count(merged_seeds);
  }
  return resolve();
}

int SynthesisSession::flood_count(std::span<const VertexId> seeds) const {
  flood_mask_.reset(graph_.vertex_count());
  flood_worklist_.clear();
  for (VertexId s : seeds) {
    if (!flood_mask_.contains(s)) {
      flood_mask_.insert(s);
      flood_worklist_.push_back(s);
    }
  }
  for (std::size_t i = 0; i < flood_worklist_.size(); ++i) {
    for (EdgeId eid : graph_.out_edges(flood_worklist_[i])) {
      const VertexId next = graph_.edge(eid).to;
      if (!flood_mask_.contains(next)) {
        flood_mask_.insert(next);
        flood_worklist_.push_back(next);
      }
    }
  }
  return static_cast<int>(flood_worklist_.size());
}

SynthesisSession SynthesisSession::fork() const {
  RELSCHED_CHECK(resolved_once_ && !force_cold_ && !in_txn_ &&
                     products_.revision == graph_.revision(),
                 "fork() requires a current resolve() and no open transaction");
  SynthesisSession f(graph_, options_);
  // Copy-on-write product copy: the anchor path rows stay shared with
  // this session until the fork's own resolves patch them.
  f.products_ = products_;
  f.topo_ = topo_;
  f.potentials_ = potentials_;
  f.resolved_once_ = true;
  forks_taken_->fetch_add(1, std::memory_order_relaxed);
  return f;
}

const Products& SynthesisSession::resolve() {
  RELSCHED_CHECK(!in_txn_, "resolve() inside an open transaction");
  if (resolved_once_ && !force_cold_ &&
      products_.revision == graph_.revision()) {
    return products_;
  }
  last_resolve_was_warm_ = false;

  // Write-ahead commit point: the resolve marker -- and transitively
  // every buffered edit record before it -- reaches the log (durably,
  // per the sync policy) before any product is recomputed, so recovery
  // can never observe products the log has not heard of.
  if (wal_ != nullptr) {
    persist::WalRecord marker;
    marker.op = persist::WalRecord::Op::kResolve;
    marker.revision = graph_.revision();
    wal_->append(marker);
    wal_->sync_for_commit();
  }

  // One watchdog per resolve: the relaxation loops below charge their
  // work to it and the resolve degrades to kCancelled products when it
  // trips (deadline, cancel token, or step budget).
  watchdog_ =
      base::Watchdog(options_.cancel, options_.deadline, options_.step_limit);

  // Fold the pending edits into one dirty description: the union of
  // their seed vertices, deduped, floods a single merged cone in
  // try_incremental() no matter how many edits are pending.
  bool structural = force_cold_ || !resolved_once_ || !products_.ok();
  bool forward_changed = false;
  std::vector<VertexId> seeds;
  fold_seen_.reset(graph_.vertex_count());
  // Fault injection (tests): pretend one pending edit was never logged,
  // so its seeds are missing from the merged dirty cone.
  std::size_t dropped_entry = pending_.size();
  if (fault_.kind == FaultInjector::Kind::kDropJournalEntry &&
      !pending_.empty()) {
    dropped_entry = static_cast<std::size_t>(fault_.seed % pending_.size());
    fault_.kind = FaultInjector::Kind::kNone;
  }
  for (std::size_t i = 0; i < pending_.size() && !structural; ++i) {
    if (i == dropped_entry) continue;
    const PendingEdit& e = pending_[i];
    if (e.effect == PendingEdit::Effect::kAnchorFlip) {
      structural = true;
      break;
    }
    if (e.effect == PendingEdit::Effect::kInsertForward ||
        e.effect == PendingEdit::Effect::kRemoveForward) {
      forward_changed = true;
    }
    for (VertexId s : e.seeds) {
      if (!fold_seen_.contains(s)) {
        fold_seen_.insert(s);
        seeds.push_back(s);
      }
    }
  }

  // A watchdog-stopped resolve leaves kCancelled products (set by the
  // path that observed the stop); those are never certified -- "stopped
  // early" is not a verdict a cold cross-check could agree with -- and
  // the next resolve recomputes cold (kCancelled products are not ok()).
  const bool warm = !structural && try_incremental(seeds, forward_changed);
  pending_.clear();
  if (!warm) {
    cold_resolve();
    if (watchdog_.stopped()) {
      ++stats_.cancelled_resolves;
    } else {
      ++stats_.cold_resolves;
      certify_cold_products();
    }
  } else if (watchdog_.stopped()) {
    ++stats_.cancelled_resolves;
  } else {
    ++stats_.warm_resolves;
    if (const certify::Diag caught = certify_warm_products(); !caught.ok()) {
      // Graceful degradation: the warm products failed independent
      // certification. The graph itself is untouched (only cached
      // products are suspect), so a full cold recompute transparently
      // restores correct products; `certificate` records the catch.
      ++stats_.certificate_failures;
      cold_resolve();
      if (watchdog_.stopped()) {
        ++stats_.cancelled_resolves;
      } else {
        ++stats_.cold_resolves;
        products_.certificate = caught;
        certify_cold_products();
      }
    } else {
      last_resolve_was_warm_ = true;
    }
  }
  resolved_once_ = true;
  // A stopped resolve keeps force_cold_ set: its kCancelled products
  // are stamped current (so checkpoints capture them as pending-cold),
  // but the next resolve must recompute instead of early-returning the
  // stale verdict.
  force_cold_ = watchdog_.stopped();
  products_.revision = graph_.revision();
  return products_;
}

void SynthesisSession::adopt_schedule() {
  potentials_ =
      products_.schedule.schedule.start_times(graph_, {}, topo_.order());
}

base::ThreadPool* SynthesisSession::analysis_pool() const {
  if (options_.pool != nullptr) return options_.pool.get();
  if (options_.threads == 1) return nullptr;
  return base::shared_pool().get();
}

void SynthesisSession::cold_resolve() {
  last_resolve_was_warm_ = false;
  last_dirty_cone_.clear();
  products_ = Products{};
  sched::ScheduleResult& out = products_.schedule;

  const std::vector<cg::ValidationIssue> issues = graph_.validate();
  // Every exit keeps the order coherent with the graph: failed resolves
  // (invalid, infeasible, ill-posed, cancelled) do not patch the order
  // edge-by-edge the way the warm path does, so without this reseed a
  // checkpoint taken after edit -> failed-resolve would persist an
  // order the edited graph no longer satisfies, and restore would
  // reject its own snapshot. A forward cycle leaves the order invalid.
  (void)topo_.adopt(graph_.forward_topo_order());
  if (!issues.empty()) {
    out.status = sched::ScheduleStatus::kInvalidGraph;
    out.message = issues.front().message;
    return;
  }
  RELSCHED_CHECK(topo_.valid(), "validated graph must have an acyclic Gf");
  // AnchorAnalysis::compute requires feasibility, so check() cannot be
  // deferred past it.
  if (!wellposed::is_feasible(graph_, &watchdog_)) {
    if (watchdog_.stopped()) {
      // Aborted, not infeasible: feasibility is undecided.
      cancelled_products();
      return;
    }
    out.status = sched::ScheduleStatus::kInfeasible;
    out.message = "positive cycle with unbounded delays set to 0";
    out.diag = certify::find_positive_cycle(graph_);
    return;
  }
  products_.analysis = anchors::AnchorAnalysis::compute(graph_, analysis_pool());
  const wellposed::CheckResult wp =
      wellposed::check(graph_, products_.analysis.anchor_sets());
  if (wp.status == wellposed::Status::kIllPosed) {
    out.status = sched::ScheduleStatus::kIllPosed;
    out.message = wp.message;
    out.diag = wp.diag;
    return;
  }

  sched::ScheduleOptions sopts;
  sopts.mode = options_.schedule_mode;
  sopts.prechecks = false;
  out = sched::schedule(graph_, products_.analysis, sopts);
  stats_.anchor_rows_recomputed += products_.analysis.rows_recomputed();
  stats_.anchor_rows_cold_equivalent += products_.analysis.rows_recomputed();
  if (out.ok()) adopt_schedule();
}

bool SynthesisSession::try_incremental(const std::vector<VertexId>& seeds,
                                       bool forward_changed) {
  // Patch the topological order edge by edge, in edit order. A
  // min-constraint insertion that closes a forward cycle makes the
  // graph invalid; defer to the cold path, which reports it. The
  // Pearce-Kelly search reads the current graph's forward edges and
  // follows only those already pointing forward in the order, so edges
  // inserted later in the log wait for their own insertion and edges
  // removed since are simply not there; a removal never invalidates
  // the order and needs no step of its own.
  if (!topo_.valid()) return false;
  const Clock::time_point t_begin = Clock::now();
  const auto successors = [this](int v, auto&& visit) {
    for (EdgeId eid : graph_.out_edges(VertexId(v))) {
      const cg::Edge& e = graph_.edge(eid);
      if (cg::is_forward(e.kind)) visit(e.to.value());
    }
  };
  const auto predecessors = [this](int v, auto&& visit) {
    for (EdgeId eid : graph_.in_edges(VertexId(v))) {
      const cg::Edge& e = graph_.edge(eid);
      if (cg::is_forward(e.kind)) visit(e.from.value());
    }
  };
  for (const PendingEdit& e : pending_) {
    if (e.effect == PendingEdit::Effect::kInsertForward &&
        !topo_.add_arc(e.seeds[0].value(), e.seeds[1].value(), successors,
                       predecessors)) {
      return false;
    }
  }

  // Dirty cone: everything reachable from a seed in the current full
  // graph. One flood covers every pending edit -- k edits, one merged
  // cone. (Removal edits seed their endpoints: the surviving suffix of
  // any killed path hangs off some removal's head, so shrunk paths are
  // covered too; see PendingEdit::seeds.) The mask is pooled and
  // the worklist doubles as the published cone: the flood costs
  // O(|cone|), not O(V).
  affected_mask_.reset(graph_.vertex_count());
  last_dirty_cone_.clear();
  for (VertexId s : seeds) {
    if (!affected_mask_.contains(s)) {
      affected_mask_.insert(s);
      last_dirty_cone_.push_back(s);
    }
  }
  for (std::size_t i = 0; i < last_dirty_cone_.size(); ++i) {
    for (EdgeId eid : graph_.out_edges(last_dirty_cone_[i])) {
      const VertexId next = graph_.edge(eid).to;
      if (!affected_mask_.contains(next)) {
        affected_mask_.insert(next);
        last_dirty_cone_.push_back(next);
      }
    }
  }
  stats_.last_affected_vertices = static_cast<int>(last_dirty_cone_.size());
  // Fault injection (tests): clear one dirty bit, so the anchor patch
  // and containment recheck below skip a vertex whose products may
  // have changed.
  if (fault_.kind == FaultInjector::Kind::kFlipDirtyBit &&
      !last_dirty_cone_.empty()) {
    affected_mask_.erase(
        last_dirty_cone_[fault_.seed % last_dirty_cone_.size()]);
    fault_.kind = FaultInjector::Kind::kNone;
  }
  // The cone in forward topological order: the anchor patch's
  // relaxation sweeps and the restricted reschedule both walk it
  // front-to-back instead of scanning all V positions for dirty bits.
  // (Filtered through the mask so an injected kFlipDirtyBit victim is
  // skipped by every downstream consumer, like the old bit-scan was.)
  affected_topo_.clear();
  for (VertexId v : last_dirty_cone_) {
    if (affected_mask_.contains(v)) affected_topo_.push_back(v);
  }
  std::sort(affected_topo_.begin(), affected_topo_.end(),
            [this](VertexId a, VertexId b) {
              return topo_.position(a.value()) < topo_.position(b.value());
            });
  const Clock::time_point t_topo = Clock::now();
  stats_.warm_topo_us += us_between(t_begin, t_topo);

  // Feasibility: repair the previous potentials from the seeds, in
  // place. On any failure path below, products_ is not ok(), so the
  // next resolve goes cold and recomputes potentials_ before the warm
  // path can read them again.
  // Fault injection (tests): raise one cached potential, absorbing
  // relaxations the SPFA repair should have propagated through it
  // (can mask a positive cycle behind the victim).
  if (fault_.kind == FaultInjector::Kind::kCorruptPotential &&
      !potentials_.empty()) {
    potentials_[fault_.seed % potentials_.size()] =
        graph::saturating_add(potentials_[fault_.seed % potentials_.size()],
                              1000);
    fault_.kind = FaultInjector::Kind::kNone;
  }
  if (!wellposed::is_feasible_incremental(graph_, potentials_, seeds, spfa_ws_,
                                          &watchdog_)) {
    stats_.warm_spfa_us += us_between(t_topo, Clock::now());
    if (watchdog_.stopped()) {
      // Aborted, not infeasible: feasibility is undecided.
      cancelled_products();
      return true;
    }
    // Equivalent to the cold path's is_feasible() == false verdict
    // (the SPFA cycle detector is exact); produce the same products.
    products_ = Products{};
    products_.schedule.status = sched::ScheduleStatus::kInfeasible;
    products_.schedule.message = "positive cycle with unbounded delays set to 0";
    products_.schedule.diag = certify::find_positive_cycle(graph_);
    return true;
  }
  const Clock::time_point t_spfa = Clock::now();
  stats_.warm_spfa_us += us_between(t_topo, t_spfa);

  anchors::UpdatePlan plan;
  plan.affected = &affected_mask_;
  plan.affected_topo = affected_topo_;
  plan.seeds = seeds;
  plan.forward_changed = forward_changed;
  const std::vector<int>& topo = topo_.order();
  // In place: the cached analysis holds valid pre-edit products (the
  // incremental path is only taken when the last resolve succeeded).
  anchors::AnchorAnalysis& analysis = products_.analysis;
  analysis.update(graph_, plan, analysis_pool());
  stats_.anchor_rows_recomputed += analysis.rows_recomputed();
  stats_.anchor_rows_cold_equivalent +=
      static_cast<long long>(analysis.anchors().size());
  // Fault injection (tests): truncate one anchor's freshly patched
  // longest-path row, as if its recompute had been interrupted.
  if (fault_.kind == FaultInjector::Kind::kTruncateAnchorRow &&
      !analysis.anchors().empty()) {
    analysis.corrupt_length_row_for_testing(
        analysis.anchors()[fault_.seed % analysis.anchors().size()],
        graph_.vertex_count() / 2);
    fault_.kind = FaultInjector::Kind::kNone;
  }

  const wellposed::CheckResult wp =
      wellposed::recheck(graph_, analysis.anchor_sets(), affected_mask_);
  const Clock::time_point t_anchor = Clock::now();
  stats_.warm_anchor_us += us_between(t_spfa, t_anchor);
  if (wp.status == wellposed::Status::kIllPosed) {
    // Mirrors the cold path: keep the analysis, drop the schedule.
    products_.schedule = sched::ScheduleResult{};
    products_.schedule.status = sched::ScheduleStatus::kIllPosed;
    products_.schedule.message = wp.message;
    products_.schedule.diag = wp.diag;
    return true;
  }

  sched::ScheduleOptions sopts;
  sopts.mode = options_.schedule_mode;
  sopts.prechecks = false;
  sched::ScheduleResult rescheduled = sched::reschedule(
      graph_, analysis, topo, std::move(products_.schedule.schedule),
      affected_mask_, affected_topo_, sopts);
  products_.schedule = std::move(rescheduled);
  if (products_.ok()) adopt_schedule();
  stats_.warm_resched_us += us_between(t_anchor, Clock::now());
  return true;
}

certify::Diag SynthesisSession::certify_warm_products() {
  if (!options_.certify) return certify::Diag{};
  const Clock::time_point t0 = Clock::now();
  certify::Diag caught;
  bool certified = true;
  if (products_.ok()) {
    if (options_.schedule_mode == anchors::AnchorMode::kFull) {
      // The schedule validated over all delay profiles plus the
      // Theorem 3 minimality cross-check against the patched analysis,
      // with zero dependence on the warm path's data structures.
      caught = certify::check_products(graph_, products_.analysis,
                                       products_.schedule.schedule);
    } else {
      // The per-anchor inequalities are only sound for full anchor
      // tracking; restricted modes go uncertified.
      certified = false;
    }
  } else {
    // A warm failure verdict is cross-checked against an independent
    // cold check of the same graph, which also extracts the
    // authoritative witness for the verdict.
    const wellposed::CheckResult wp = wellposed::check(graph_);
    sched::ScheduleStatus expect = sched::ScheduleStatus::kScheduled;
    if (wp.status == wellposed::Status::kInfeasible) {
      expect = sched::ScheduleStatus::kInfeasible;
    } else if (wp.status == wellposed::Status::kIllPosed) {
      expect = sched::ScheduleStatus::kIllPosed;
    }
    if (products_.schedule.status == expect) {
      products_.schedule.message = wp.message;
      products_.schedule.diag = wp.diag;
    } else {
      caught.code = certify::Code::kVerdictMismatch;
      caught.message =
          cat("warm verdict '", sched::to_string(products_.schedule.status),
              "' disagrees with an independent cold check ('",
              wellposed::to_string(wp.status), "')");
    }
  }
  stats_.certify_us += us_between(t0, Clock::now());
  if (caught.ok() && certified) ++stats_.certified_resolves;
  return caught;
}

void SynthesisSession::certify_cold_products() {
  if (!options_.certify || !products_.ok() ||
      options_.schedule_mode != anchors::AnchorMode::kFull) {
    // Cold failure verdicts ARE the independent check (there is no
    // second implementation to cross-check them against), and
    // restricted modes go uncertified; nothing to do.
    return;
  }
  const Clock::time_point t0 = Clock::now();
  const certify::Diag caught = certify::check_products(
      graph_, products_.analysis, products_.schedule.schedule);
  stats_.certify_us += us_between(t0, Clock::now());
  // No slower path exists to fall back to: a cold product that fails
  // its certificate means the pipeline itself is broken.
  RELSCHED_CHECK(caught.ok(),
                 cat("cold products failed certification: ", caught.message));
  ++stats_.certified_resolves;
}

void SynthesisSession::cancelled_products() {
  products_ = Products{};
  sched::ScheduleResult& out = products_.schedule;
  out.status = sched::ScheduleStatus::kCancelled;
  out.message = cat("resolve stopped early: ", watchdog_.reason());
  out.diag.code = certify::Code::kTimeout;
  out.diag.message = out.message;
}

// ---- Crash safety ----------------------------------------------------------

persist::Error SynthesisSession::attach_wal(const std::string& path,
                                            persist::WalOptions options) {
  RELSCHED_CHECK(wal_ == nullptr, "a write-ahead log is already attached");
  persist::Error error;
  wal_ = persist::Wal::open(path, graph_.revision(), options, &error);
  return error;
}

persist::Error SynthesisSession::checkpoint(const std::string& dir) {
  RELSCHED_CHECK(!in_txn_, "checkpoint() inside an open transaction");
  if (persist::Error e = persist::ensure_dir(dir); !e.ok()) return e;

  persist::Writer w;
  persist::save_graph(w, graph_);
  w.u8(static_cast<std::uint8_t>(options_.schedule_mode));
  w.b(resolved_once_);
  // Pending state (unresolved edits or a forced-cold marker) cannot be
  // warm-resumed: the restored session recomputes cold on its first
  // resolve, which yields bit-identical products (warm == cold).
  w.b(force_cold_ || products_.revision != graph_.revision());
  save_products(w, products_);
  w.b(topo_.valid());
  w.vec_i32(topo_.order());  // empty when invalid
  // Potentials are only a warm-start seed; after a structural edit they
  // can be stale at the old cardinality, and restore would reject them.
  static const std::vector<graph::Weight> kNoPotentials;
  w.vec_i64(potentials_.size() ==
                    static_cast<std::size_t>(graph_.vertex_count())
                ? potentials_
                : kNoPotentials);
  save_stats(w, stats_);

  if (persist::Error e =
          persist::write_framed_file(persist::snapshot_path(dir),
                                     kSnapshotMagic, kSnapshotVersion,
                                     w.buffer());
      !e.ok()) {
    return e;
  }
  ++stats_.checkpoints;
  // The snapshot subsumes every record at or before this revision, so
  // the log restarts empty: replay time and disk growth stay bounded by
  // the checkpoint cadence. A crash between the snapshot rename and
  // this reset is benign -- replay skips records the snapshot covers.
  if (wal_ != nullptr) return wal_->reset(graph_.revision());
  return {};
}

std::optional<SynthesisSession> SynthesisSession::restore(
    const std::string& dir, SessionOptions options, RestoreReport* report) {
  RestoreReport local;
  RestoreReport& rep = report != nullptr ? *report : local;
  rep = RestoreReport{};
  const std::string snap = persist::snapshot_path(dir);

  std::string payload;
  rep.error =
      persist::read_framed_file(snap, kSnapshotMagic, kSnapshotVersion,
                                &payload);
  if (!rep.error.ok()) return std::nullopt;
  persist::Reader r(payload);

  auto reject = [&](std::string why) {
    rep.error = persist::Error::make(persist::ErrorCode::kFormat,
                                     std::move(why), snap);
    return std::nullopt;
  };

  cg::ConstraintGraph g;
  if (!persist::load_graph(r, &g)) {
    return reject("snapshot graph payload is invalid");
  }
  const std::uint8_t mode = r.u8();
  if (!r.ok() ||
      mode > static_cast<std::uint8_t>(anchors::AnchorMode::kIrredundant)) {
    return reject("snapshot schedule_mode is out of range");
  }
  if (static_cast<anchors::AnchorMode>(mode) != options.schedule_mode) {
    rep.error = persist::Error::make(
        persist::ErrorCode::kStateMismatch,
        "snapshot was taken under a different schedule_mode", snap);
    return std::nullopt;
  }

  SynthesisSession s(std::move(g), options);
  const bool resolved_once = r.b();
  const bool pending_cold = r.b();
  if (!load_products(r, &s.products_)) {
    return reject("snapshot products payload is invalid");
  }
  const bool topo_valid = r.b();
  std::vector<int> topo_order = r.vec_i32();
  std::vector<graph::Weight> potentials = r.vec_i64();
  if (!load_stats(r, &s.stats_) || !r.at_end()) {
    return reject("snapshot payload is truncated or oversized");
  }
  if (s.products_.revision > s.graph_.revision()) {
    return reject("snapshot products are newer than the snapshot graph");
  }
  if (topo_valid &&
      (topo_order.size() != static_cast<std::size_t>(s.graph_.vertex_count()) ||
       !s.topo_.adopt(std::move(topo_order)) ||
       !orders_forward_edges(s.graph_, s.topo_))) {
    return reject("snapshot topological order is inconsistent with the graph");
  }
  if (!potentials.empty() &&
      potentials.size() != static_cast<std::size_t>(s.graph_.vertex_count())) {
    return reject("snapshot potentials have the wrong cardinality");
  }

  s.resolved_once_ = resolved_once;
  s.force_cold_ = pending_cold || !topo_valid;
  if (resolved_once && !s.force_cold_ && s.products_.ok()) {
    // Recomputed, not trusted: the potentials seed future warm SPFA
    // repairs, and recomputing them from the certified schedule is as
    // cheap as validating the serialized copy.
    s.potentials_ =
        s.products_.schedule.schedule.start_times(s.graph_, {},
                                                  s.topo_.order());
  } else {
    s.potentials_ = std::move(potentials);
  }
  ++s.stats_.restores;

  const std::string wal = persist::wal_path(dir);
  if (::access(wal.c_str(), F_OK) == 0) {
    if (persist::Error e = s.replay_wal(wal, &rep); !e.ok()) {
      rep.error = std::move(e);
      return std::nullopt;
    }
  }

  s.verify_restored(rep);
  return s;
}

persist::Error SynthesisSession::replay_wal(const std::string& path,
                                            RestoreReport* report) {
  RELSCHED_CHECK(wal_ == nullptr, "replay_wal() must run before attach_wal()");
  persist::Wal::ReadResult rr = persist::Wal::read(path);
  if (!rr.ok()) return rr.error;
  if (report != nullptr) {
    report->wal_torn_tail = rr.torn_tail;
    report->wal_torn_detail = rr.torn_detail;
  }
  return apply_records(rr.records, path, report);
}

persist::Error SynthesisSession::apply_records(
    const std::vector<persist::WalRecord>& records, const std::string& origin,
    RestoreReport* report) {
  RELSCHED_CHECK(!in_txn_, "apply_records() inside an open transaction");
  const std::string& path = origin;

  using Op = persist::WalRecord::Op;
  for (const persist::WalRecord& rec : records) {
    if (rec.op == Op::kResolve) {
      // A marker the snapshot's products already cover is a no-op.
      if (resolved_once_ && products_.revision >= rec.revision) continue;
      resolve();
      if (report != nullptr) ++report->replayed_resolves;
      continue;
    }
    if (rec.revision <= graph_.revision()) continue;  // snapshot covers it
    if (rec.revision != graph_.revision() + 1) {
      return persist::Error::make(
          persist::ErrorCode::kStateMismatch,
          cat("WAL record at revision ", rec.revision,
              " does not follow the session's revision ", graph_.revision()),
          path);
    }
    const std::int32_t vertices = graph_.vertex_count();
    const std::int32_t edges = graph_.edge_count();
    auto bad = [&](const char* what) {
      return persist::Error::make(persist::ErrorCode::kFormat,
                                  cat("WAL record carries ", what), path);
    };
    // The edit API double-checks semantic invariants the id-range checks
    // here cannot see (polarity, edge kinds); its rejection of a record
    // means the log does not describe this graph's history.
    try {
      switch (rec.op) {
        case Op::kAddMin:
        case Op::kAddMax:
          if (rec.a < 0 || rec.a >= vertices || rec.b < 0 ||
              rec.b >= vertices) {
            return bad("an out-of-range vertex id");
          }
          if (rec.op == Op::kAddMin) {
            add_min_constraint(VertexId(rec.a), VertexId(rec.b),
                               static_cast<int>(rec.value));
          } else {
            add_max_constraint(VertexId(rec.a), VertexId(rec.b),
                               static_cast<int>(rec.value));
          }
          break;
        case Op::kRemoveConstraint:
          if (rec.a < 0 || rec.a >= edges) return bad("an out-of-range edge id");
          remove_constraint(EdgeId(rec.a));
          break;
        case Op::kSetBound:
          if (rec.a < 0 || rec.a >= edges) return bad("an out-of-range edge id");
          set_constraint_bound(EdgeId(rec.a), static_cast<int>(rec.value));
          break;
        case Op::kSetDelay:
          if (rec.a < 0 || rec.a >= vertices) {
            return bad("an out-of-range vertex id");
          }
          set_delay(VertexId(rec.a),
                    rec.value < 0
                        ? cg::Delay::unbounded()
                        : cg::Delay::bounded(static_cast<int>(rec.value)));
          break;
        case Op::kResolve:
          break;  // handled above
      }
    } catch (const ApiError& e) {
      return persist::Error::make(
          persist::ErrorCode::kFormat,
          cat("WAL record rejected by the edit API: ", e.what()), path);
    }
    if (report != nullptr) ++report->replayed_edits;
  }
  return {};
}

void SynthesisSession::verify_restored(RestoreReport& report) {
  if (!resolved_once_ || force_cold_ ||
      products_.revision != graph_.revision()) {
    // Nothing current to trust; the first resolve recomputes cold.
    force_cold_ = true;
    return;
  }
  bool trusted = true;
  if (products_.ok()) {
    if (options_.schedule_mode == anchors::AnchorMode::kFull) {
      const certify::Diag caught = certify::check_products(
          graph_, products_.analysis, products_.schedule.schedule);
      trusted = caught.ok();
    }
    // Restricted modes have no sound product certificate; the framed
    // checksum plus the load-time structural validation is the bar.
  } else {
    // Failure verdicts (and any restored kCancelled placeholder) are
    // cross-checked against an independent cold check, mirroring
    // certify_warm_products().
    const wellposed::CheckResult wp = wellposed::check(graph_);
    sched::ScheduleStatus expect = sched::ScheduleStatus::kScheduled;
    if (wp.status == wellposed::Status::kInfeasible) {
      expect = sched::ScheduleStatus::kInfeasible;
    } else if (wp.status == wellposed::Status::kIllPosed) {
      expect = sched::ScheduleStatus::kIllPosed;
    }
    trusted = products_.schedule.status == expect;
  }
  if (!trusted) {
    ++stats_.restore_cold_fallbacks;
    report.cold_fallback = true;
    force_cold_ = true;
    resolve();
  }
}

// ---- Checkpoint payload helpers --------------------------------------------

void save_products(persist::Writer& w, const Products& products) {
  w.u64(products.revision);
  persist::save_analysis(w, products.analysis);
  persist::save_schedule_result(w, products.schedule);
  persist::save_diag(w, products.certificate);
}

bool load_products(persist::Reader& r, Products* out) {
  out->revision = r.u64();
  if (!persist::load_analysis(r, &out->analysis)) return false;
  if (!persist::load_schedule_result(r, &out->schedule)) return false;
  if (!persist::load_diag(r, &out->certificate)) return false;
  return r.ok();
}

void save_stats(persist::Writer& w, const SessionStats& stats) {
  w.i32(stats.cold_resolves);
  w.i32(stats.warm_resolves);
  w.i64(stats.anchor_rows_recomputed);
  w.i64(stats.anchor_rows_cold_equivalent);
  w.i32(stats.last_affected_vertices);
  w.i32(stats.transactions);
  w.i64(stats.edits_coalesced);
  w.i32(stats.last_txn_edits);
  w.i32(stats.last_merged_cone_vertices);
  w.i64(stats.last_cone_vertices_sum);
  w.i64(stats.forks_taken);
  w.i32(stats.anchor_rows_shared);
  w.i32(stats.cancelled_resolves);
  w.i32(stats.checkpoints);
  w.i32(stats.restores);
  w.i32(stats.restore_cold_fallbacks);
  w.i64(stats.wal_records);
  w.i64(stats.wal_fsyncs);
  w.i64(stats.wal_retries);
  w.i64(stats.certified_resolves);
  w.i32(stats.certificate_failures);
  w.f64(stats.certify_us);
  w.f64(stats.warm_topo_us);
  w.f64(stats.warm_spfa_us);
  w.f64(stats.warm_anchor_us);
  w.f64(stats.warm_resched_us);
}

bool load_stats(persist::Reader& r, SessionStats* out) {
  out->cold_resolves = r.i32();
  out->warm_resolves = r.i32();
  out->anchor_rows_recomputed = r.i64();
  out->anchor_rows_cold_equivalent = r.i64();
  out->last_affected_vertices = r.i32();
  out->transactions = r.i32();
  out->edits_coalesced = r.i64();
  out->last_txn_edits = r.i32();
  out->last_merged_cone_vertices = r.i32();
  out->last_cone_vertices_sum = r.i64();
  out->forks_taken = r.i64();
  out->anchor_rows_shared = r.i32();
  out->cancelled_resolves = r.i32();
  out->checkpoints = r.i32();
  out->restores = r.i32();
  out->restore_cold_fallbacks = r.i32();
  out->wal_records = r.i64();
  out->wal_fsyncs = r.i64();
  out->wal_retries = r.i64();
  out->certified_resolves = r.i64();
  out->certificate_failures = r.i32();
  out->certify_us = r.f64();
  out->warm_topo_us = r.f64();
  out->warm_spfa_us = r.f64();
  out->warm_anchor_us = r.f64();
  out->warm_resched_us = r.f64();
  return r.ok();
}

}  // namespace relsched::engine
