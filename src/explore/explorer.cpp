#include "explore/explorer.hpp"

#include <algorithm>
#include <cmath>
#include <thread>
#include <utility>

#include "base/error.hpp"
#include "base/hash.hpp"
#include "base/strings.hpp"
#include "persist/snapshot.hpp"

namespace relsched::explore {

EditOp EditOp::set_bound(EdgeId e, int cycles) {
  EditOp op;
  op.kind = Kind::kSetBound;
  op.edge = e;
  op.cycles = cycles;
  return op;
}

EditOp EditOp::add_min(VertexId from, VertexId to, int min_cycles) {
  EditOp op;
  op.kind = Kind::kAddMin;
  op.from = from;
  op.to = to;
  op.cycles = min_cycles;
  return op;
}

EditOp EditOp::add_max(VertexId from, VertexId to, int max_cycles) {
  EditOp op;
  op.kind = Kind::kAddMax;
  op.from = from;
  op.to = to;
  op.cycles = max_cycles;
  return op;
}

EditOp EditOp::remove(EdgeId e) {
  EditOp op;
  op.kind = Kind::kRemove;
  op.edge = e;
  return op;
}

void apply(engine::SynthesisSession& session, const EditOp& op) {
  switch (op.kind) {
    case EditOp::Kind::kSetBound:
      session.set_constraint_bound(op.edge, op.cycles);
      return;
    case EditOp::Kind::kAddMin:
      session.add_min_constraint(op.from, op.to, op.cycles);
      return;
    case EditOp::Kind::kAddMax:
      session.add_max_constraint(op.from, op.to, op.cycles);
      return;
    case EditOp::Kind::kRemove:
      session.remove_constraint(op.edge);
      return;
  }
  RELSCHED_CHECK(false, "unknown edit op kind");
}

Objective min_latency() {
  return [](const cg::ConstraintGraph& g, const engine::Products& products) {
    const auto start = products.schedule.schedule.start_times(g, {});
    return static_cast<double>(
        *std::max_element(start.begin(), start.end()));
  };
}

const CandidateResult& ExplorationResult::best() const {
  RELSCHED_CHECK(winner >= 0, "best() with no feasible candidate");
  return candidates[static_cast<std::size_t>(winner)];
}

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::string_view kExploreMagic = "RSEXP001";
// v2: embedded session products carry the bit-matrix anchor payload
// (see engine's kSnapshotVersion). v3: they no longer carry a copy of
// the forward order. Older checkpoints are not readable.
constexpr std::uint32_t kExploreVersion = 3;

std::shared_ptr<base::ThreadPool> resolve_pool(int requested) {
  if (requested > 0) return std::make_shared<base::ThreadPool>(requested);
  return base::shared_pool();
}

void save_slot(persist::Writer& w, const CandidateResult& slot) {
  w.i32(slot.index);
  w.str(slot.label);
  w.b(slot.feasible);
  w.b(slot.retried);
  w.f64(slot.score);
  w.str(slot.error);
  persist::save_diag(w, slot.diag);
  engine::save_products(w, slot.products);
  engine::save_stats(w, slot.stats);
}

[[nodiscard]] bool load_slot(persist::Reader& r, CandidateResult* slot) {
  slot->index = r.i32();
  slot->label = r.str();
  slot->feasible = r.b();
  slot->retried = r.b();
  slot->score = r.f64();
  slot->error = r.str();
  if (!persist::load_diag(r, &slot->diag)) return false;
  if (!engine::load_products(r, &slot->products)) return false;
  if (!engine::load_stats(r, &slot->stats)) return false;
  return r.ok();
}

}  // namespace

Explorer::Explorer(engine::SynthesisSession base, ExplorerOptions options)
    : base_(std::move(base)),
      options_(std::move(options)),
      pool_(resolve_pool(options_.threads)) {
  // One pool for everything under this explorer: the base session's
  // resolves shard their anchor phases across it, and forks inherit it,
  // so a candidate resolving inside a pool task falls back to its
  // sequential path (try_run declines while the batch job is live)
  // instead of nesting or spawning more threads.
  base_.set_thread_pool(pool_);
  const engine::Products& products = base_.resolve();
  RELSCHED_CHECK(products.ok(),
                 "explorer base session must resolve to a schedule");
}

bool Explorer::stop_requested() const {
  if (options_.cancel.cancelled()) return true;
  return options_.deadline != base::Watchdog::kNoDeadline &&
         Clock::now() >= options_.deadline;
}

std::uint64_t Explorer::config_hash(
    const std::vector<Candidate>& candidates) const {
  persist::Writer w;
  persist::save_graph(w, base_.graph());
  w.u32(static_cast<std::uint32_t>(candidates.size()));
  for (const Candidate& c : candidates) {
    w.str(c.label);
    w.u32(static_cast<std::uint32_t>(c.edits.size()));
    for (const EditOp& op : c.edits) {
      w.u8(static_cast<std::uint8_t>(op.kind));
      w.i32(op.edge.value());
      w.i32(op.from.value());
      w.i32(op.to.value());
      w.i32(op.cycles);
    }
  }
  return base::fnv1a64(w.buffer());
}

persist::Error Explorer::load_checkpoint(std::uint64_t config,
                                         std::vector<CandidateResult>& slots,
                                         std::vector<bool>& done) const {
  const std::string path = persist::explore_path(options_.checkpoint_dir);
  std::string payload;
  if (persist::Error e = persist::read_framed_file(path, kExploreMagic,
                                                   kExploreVersion, &payload);
      !e.ok()) {
    return e;
  }
  persist::Reader r(payload);
  auto bad = [&](std::string why) {
    return persist::Error::make(persist::ErrorCode::kFormat, std::move(why),
                                path);
  };
  if (r.u64() != config) {
    return persist::Error::make(
        persist::ErrorCode::kStateMismatch,
        "exploration checkpoint belongs to a different base graph or "
        "candidate list",
        path);
  }
  if (r.u32() != slots.size()) {
    return persist::Error::make(persist::ErrorCode::kStateMismatch,
                                "exploration checkpoint candidate count "
                                "disagrees with the batch",
                                path);
  }
  const std::uint32_t completed = r.u32();
  if (!r.ok() || completed > slots.size()) {
    return bad("exploration checkpoint claims more completions than "
               "candidates");
  }
  // Load into scratch first: a corrupt record mid-file must not leave
  // half the batch poisoned.
  std::vector<CandidateResult> loaded(slots.size());
  std::vector<bool> seen(slots.size(), false);
  for (std::uint32_t k = 0; k < completed; ++k) {
    const std::int32_t index = r.i32();
    if (!r.ok() || index < 0 ||
        static_cast<std::size_t>(index) >= slots.size()) {
      return bad("exploration checkpoint has an out-of-range candidate "
                 "index");
    }
    if (seen[static_cast<std::size_t>(index)]) {
      return bad(cat("exploration checkpoint repeats candidate index ",
                     index));
    }
    seen[static_cast<std::size_t>(index)] = true;
    if (!load_slot(r, &loaded[static_cast<std::size_t>(index)]) ||
        loaded[static_cast<std::size_t>(index)].index != index) {
      return bad("exploration checkpoint record payload is invalid");
    }
  }
  if (!r.at_end()) return bad("exploration checkpoint has trailing bytes");
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (!seen[i]) continue;
    slots[i] = std::move(loaded[i]);
    done[i] = true;
  }
  return {};
}

persist::Error Explorer::write_checkpoint(
    std::uint64_t config, const std::vector<CandidateResult>& slots,
    const std::vector<bool>& done) const {
  if (persist::Error e = persist::ensure_dir(options_.checkpoint_dir);
      !e.ok()) {
    return e;
  }
  persist::Writer w;
  w.u64(config);
  w.u32(static_cast<std::uint32_t>(slots.size()));
  std::uint32_t completed = 0;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    // Cancelled candidates are not results: resume recomputes them.
    if (done[i] && !slots[i].cancelled) ++completed;
  }
  w.u32(completed);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (!done[i] || slots[i].cancelled) continue;
    w.i32(static_cast<std::int32_t>(i));
    save_slot(w, slots[i]);
  }
  return persist::write_framed_file(persist::explore_path(options_.checkpoint_dir),
                                    kExploreMagic, kExploreVersion, w.buffer());
}

void Explorer::run_candidate(const Candidate& candidate, int index,
                             CandidateResult& slot,
                             const Objective& objective) {
  slot = CandidateResult{};
  slot.index = index;
  slot.label = candidate.label;
  const auto budget_deadline = [&] {
    Clock::time_point d = options_.deadline;
    if (options_.candidate_timeout.count() > 0) {
      d = std::min(d, Clock::now() + options_.candidate_timeout);
    }
    return d;
  };
  try {
    engine::SynthesisSession fork = base_.fork();
    fork.set_cancellation(options_.cancel, budget_deadline(),
                          options_.candidate_step_limit);
    fork.begin_txn();
    for (const EditOp& op : candidate.edits) apply(fork, op);
    const engine::Products* products = &fork.commit();
    if (products->schedule.status == sched::ScheduleStatus::kCancelled &&
        !stop_requested()) {
      // The per-candidate budget tripped but the batch is still live:
      // retry once, cold, with a fresh budget. A warm start is not
      // always the fastest path (an adversarial potential seed can make
      // the incremental repair slower than recomputing), so the retry
      // deliberately drops the inherited warm state.
      slot.retried = true;
      fork.mutable_graph();  // forces the next resolve cold
      fork.set_cancellation(options_.cancel, budget_deadline(),
                            options_.candidate_step_limit);
      products = &fork.resolve();
    }
    if (products->schedule.status == sched::ScheduleStatus::kCancelled) {
      slot.cancelled = true;
      slot.error = products->schedule.message;
      slot.diag = products->schedule.diag;
      slot.stats = fork.stats();
      return;
    }
    slot.feasible = products->ok();
    if (slot.feasible) {
      slot.score = objective(fork.graph(), *products);
      if (!std::isfinite(slot.score)) {
        // A NaN score would poison the winner reduction (every
        // comparison against it is false); an infinite one is never a
        // meaningful optimum either.
        slot.feasible = false;
        slot.error = "objective returned a non-finite score";
      }
    } else {
      slot.error = products->schedule.message;
      slot.diag = products->schedule.diag;
    }
    slot.products = *products;
    slot.stats = fork.stats();
  } catch (const ApiError& e) {
    // An edit violated an API precondition (e.g. removing a polarity-
    // critical constraint): the candidate is reported infeasible, not
    // fatal for the batch.
    slot.feasible = false;
    slot.error = e.what();
  } catch (const std::exception& e) {
    // The pool contract says fn must not throw: anything escaping the
    // objective (a user-supplied callable) or an allocation failure
    // must not std::terminate the batch.
    slot.feasible = false;
    slot.error = e.what();
  } catch (...) {
    slot.feasible = false;
    slot.error = "unknown exception while resolving candidate";
  }
}

ExplorationResult Explorer::explore(const std::vector<Candidate>& candidates,
                                    const Objective& objective) {
  ExplorationResult result;
  result.candidates.resize(candidates.size());
  // Empty batch: a well-defined "no winner", not a degenerate pool run.
  if (candidates.empty()) return result;

  const bool checkpointing = !options_.checkpoint_dir.empty();
  const std::uint64_t config =
      checkpointing ? config_hash(candidates) : 0;
  std::vector<bool> done(candidates.size(), false);
  if (checkpointing && options_.resume) {
    result.resume_error = load_checkpoint(config, result.candidates, done);
    for (bool d : done) {
      if (d) ++result.resumed;
    }
  }

  std::vector<int> pending;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (!done[i]) pending.push_back(static_cast<int>(i));
  }

  // Chunked dispatch when checkpointing or under a stop condition: the
  // batch pauses at chunk boundaries to persist completed work and to
  // honour a deadline promptly even if no candidate is mid-resolve.
  const bool bounded = checkpointing ||
                       options_.deadline != base::Watchdog::kNoDeadline;
  const std::size_t chunk =
      bounded ? static_cast<std::size_t>(std::max(1, options_.checkpoint_every))
              : pending.size();

  std::size_t next = 0;
  while (next < pending.size()) {
    if (stop_requested()) break;
    const std::size_t end = std::min(pending.size(), next + chunk);
    const int base_offset = static_cast<int>(next);
    // Result slots are disjoint per task; the pool's completion barrier
    // publishes them to this thread.
    pool_->run(static_cast<int>(end - next), [&](int k) {
      const int i = pending[static_cast<std::size_t>(base_offset + k)];
      run_candidate(candidates[static_cast<std::size_t>(i)], i,
                    result.candidates[static_cast<std::size_t>(i)], objective);
    });
    for (std::size_t k = next; k < end; ++k) {
      done[static_cast<std::size_t>(pending[k])] = true;
    }
    next = end;
    if (checkpointing) {
      if (persist::Error e = write_checkpoint(config, result.candidates, done);
          !e.ok()) {
        result.checkpoint_error = std::move(e);
      }
    }
  }

  // Unstarted candidates (the batch stopped early): well-formed
  // kTimeout placeholders so the result vector is fully populated.
  for (std::size_t k = next; k < pending.size(); ++k) {
    CandidateResult& slot =
        result.candidates[static_cast<std::size_t>(pending[k])];
    slot = CandidateResult{};
    slot.index = pending[k];
    slot.label = candidates[static_cast<std::size_t>(pending[k])].label;
    slot.cancelled = true;
    slot.error = "exploration stopped before this candidate resolved";
    slot.diag.code = certify::Code::kTimeout;
    slot.diag.message = slot.error;
    result.stopped_early = true;
  }

  for (const CandidateResult& candidate : result.candidates) {
    if (candidate.retried) ++result.retried;
    if (candidate.cancelled) {
      ++result.cancelled;
      continue;
    }
    if (!candidate.feasible) continue;
    if (result.winner < 0 ||
        candidate.score <
            result.candidates[static_cast<std::size_t>(result.winner)].score) {
      result.winner = candidate.index;
    }
  }
  return result;
}

}  // namespace relsched::explore
