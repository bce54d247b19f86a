// serve_mix: the service user's traffic. An open loop against a
// relsched_serve child running its default certify, threads and WAL
// sync policy, with its state directory on local disk.
//
// It is not a workload of its own: it runs in lint_corpus's traced run,
// after the corpus, and gives the serve and persist per-layer
// metrics. Its request latencies (1-10 ms, served by the shared pool)
// moved by 30-50% between runs of the same code on a shared 4-vCPU VM,
// tracking the host's steal time, so no end-to-end metric of the
// benchmark is taken from it.
//
// More sessions than the server's live-session cap are opened, and
// their popularity is Zipf-skewed, so LRU evictions and snapshot
// restores happen at a steady rate. Requests arrive as a Poisson stream
// whose rate climbs a fixed ladder; each is timed from its scheduled
// send time. The mix: 2% re-opens of a known design, 58% edits of 1-8
// ops (WAL append plus transaction commit), and 40% resolves of
// already-current sessions (reads).
//
// The shares, the Zipf exponent, the session counts and the ladder are
// assumptions, not taken from a trace of real use: an edit-heavy
// designer session with occasional re-opens, a popular few sessions,
// and a live-session cap a little below the session count so the cold
// tail is evicted and restored. The traced run reports the restore rate
// this produces as serve.restore_ratio.
//
// The load comes from one process with one connection per lane, at
// most four lanes and no more than nproc. Each session belongs to one
// lane, which sends that session's requests in order, so a serial
// in-process oracle can replay every acknowledged edit and check every
// reply digest.
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "cg/graph_io.hpp"
#include "common.hpp"
#include "edit_mix.hpp"
#include "engine/session.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

extern char** environ;

namespace relbench {

namespace {

using namespace relsched;
using serve::Json;

enum class Verb { kOpen, kEdit, kResolve };

/// Per-mille shares of the request mix.
constexpr int kOpenShare = 20;
constexpr int kEditShare = 580;
/// Zipf exponent of session popularity.
constexpr double kZipf = 1.0;
/// Sessions opened, and the server's live-session cap (--max-live).
constexpr int kSessions = 48;
constexpr int kMaxLive = 44;
constexpr int kSmokeSessions = 6;
constexpr int kSmokeMaxLive = 3;
/// A request due longer ago than this is dropped unsent (a miss): it
/// bounds how far an overloaded rung can overrun the run.
constexpr double kDropLateMs = 1000;

const char* span_name(Verb v) {
  switch (v) {
    case Verb::kOpen:
      return "serve.open";
    case Verb::kEdit:
      return "serve.edit";
    case Verb::kResolve:
      return "serve.resolve";
  }
  return "serve.request";
}

struct Session {
  std::string text;
  std::string sid;
  std::optional<cg::ConstraintGraph> base;
  std::optional<EditMix> mix;
  int lane = 0;
};

struct Request {
  double due_ms = 0;  // from the ladder's start
  int session = 0;
  Verb verb = Verb::kResolve;
  int rung = 0;
  int edits = 0;  // kEdit: ops in the batch
};

/// What happened to one request, in its lane's send order.
struct Outcome {
  const Request* request = nullptr;
  bool sent = false;
  bool ok = false;
  bool shed = false;
  double latency_ms = std::numeric_limits<double>::infinity();
  double wait_ms = std::numeric_limits<double>::infinity();  // send - due
  double lag_ms = 0;  // generator lateness beyond the lane's own queue
  std::vector<EditCmd> edits;
  long long revision = -1;
  std::string digest;
};

/// The daemon child: spawned with the RELSCHED_* environment cleared
/// (so it runs its defaults) and its stdout folded into stderr (stdout
/// belongs to the result line).
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { kill_and_wait(); }

  bool start(const Args& args, const std::string& socket,
             const std::string& state_dir, std::string* error) {
    std::vector<std::string> argv_store = {
        args.serve_bin, "--socket",   socket,
        "--state-dir",  state_dir,    "--max-live",
        std::to_string(args.smoke ? kSmokeMaxLive : kMaxLive)};
    std::vector<char*> argv;
    for (std::string& a : argv_store) argv.push_back(a.data());
    argv.push_back(nullptr);
    std::vector<char*> envp;
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, "RELSCHED_", 9) != 0) envp.push_back(*e);
    }
    envp.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, 2, 1);
    const int rc = ::posix_spawn(&pid_, args.serve_bin.c_str(), &actions,
                                 nullptr, argv.data(), envp.data());
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      *error = "posix_spawn " + args.serve_bin + ": " + std::strerror(rc);
      return false;
    }
    return true;
  }

  /// Waits for a graceful exit; true when it exited 0.
  bool wait() {
    if (pid_ < 0) return true;
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  void kill_and_wait() {
    if (pid_ < 0) return;
    ::kill(pid_, SIGKILL);
    (void)wait();
  }

 private:
  pid_t pid_ = -1;
};

bool call(serve::Client& client, const Json& request, Json* reply,
          std::string* error) {
  if (!client.call(request, reply, error)) return false;
  const Json* ok = reply->get("ok");
  if (ok == nullptr || !ok->as_bool()) {
    const Json* code = reply->get("code");
    const Json* msg = reply->get("error");
    *error = (code != nullptr ? code->as_string() : std::string("?")) + ": " +
             (msg != nullptr ? msg->as_string() : reply->render());
    return false;
  }
  return true;
}

Json edit_json(const EditCmd& e) {
  Json j = Json::object();
  switch (e.kind) {
    case EditCmd::Kind::kSetBound:
      j.set("kind", Json::string("set_bound"));
      j.set("edge", Json::number(static_cast<long long>(e.a)));
      break;
    case EditCmd::Kind::kRemove:
      j.set("kind", Json::string("remove_constraint"));
      j.set("edge", Json::number(static_cast<long long>(e.a)));
      break;
    case EditCmd::Kind::kAddMin:
    case EditCmd::Kind::kAddMax:
      j.set("kind", Json::string(e.kind == EditCmd::Kind::kAddMin ? "add_min"
                                                                  : "add_max"));
      j.set("from", Json::number(static_cast<long long>(e.a)));
      j.set("to", Json::number(static_cast<long long>(e.b)));
      break;
  }
  j.set("cycles", Json::number(static_cast<long long>(e.cycles)));
  return j;
}

Json session_request(const char* op, const std::string& sid) {
  Json request = Json::object();
  request.set("op", Json::string(op));
  request.set("session", Json::string(sid));
  return request;
}

/// The open-loop schedule. Each rung holds a fixed number of requests
/// (its rate times its length), and what they ask for -- Zipf session,
/// verb, edit batch size -- is a fixed draw too (from kCorpusSeed), so
/// every seed offers the same work. The seed draws their order and
/// their arrival times: a Poisson stream conditioned on the rung's
/// count, i.e. sorted uniform times.
std::vector<Request> make_schedule(const Args& args, int sessions,
                                   double rung_ms) {
  std::vector<double> cdf;
  double total = 0;
  for (int i = 0; i < sessions; ++i) {
    total += 1.0 / std::pow(i + 1, kZipf);
    cdf.push_back(total);
  }
  // Popularity rank -> session (sessions are numbered by size
  // stratum): a fixed stride through the strata, so popularity does not
  // follow size.
  int stride = sessions / 2 + 1;
  while (std::gcd(stride, sessions) != 1) ++stride;
  std::vector<int> by_rank(static_cast<std::size_t>(sessions));
  for (int i = 0; i < sessions; ++i) {
    by_rank[static_cast<std::size_t>(i)] = (i * stride) % sessions;
  }
  std::vector<Request> out;
  std::uint64_t what = mix64(kCorpusSeed ^ 0x5e7e);
  std::uint64_t when = mix64(args.seed ^ 0x5e7e);
  for (std::size_t rung = 0; rung < args.ladder.size(); ++rung) {
    const double start = rung_ms * static_cast<double>(rung);
    const auto count = static_cast<std::size_t>(
        std::lround(args.ladder[rung] * rung_ms / 1000.0));
    std::vector<Request> requests(count);
    for (Request& q : requests) {
      what = mix64(what);
      const double u = unit_double(what) * total;
      const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
      q.session = by_rank[static_cast<std::size_t>(
          std::min<std::ptrdiff_t>(it - cdf.begin(), sessions - 1))];
      const int v = static_cast<int>((what >> 8) % 1000);
      q.verb = v < kOpenShare                ? Verb::kOpen
               : v < kOpenShare + kEditShare ? Verb::kEdit
                                             : Verb::kResolve;
      q.edits = 1 + static_cast<int>((what >> 24) % 8);
      q.rung = static_cast<int>(rung);
    }
    std::vector<double> times(count);
    for (double& t : times) {
      when = mix64(when);
      t = start + unit_double(when) * rung_ms;
    }
    std::sort(times.begin(), times.end());
    const std::vector<int> order = seeded_order(count, when);
    for (std::size_t i = 0; i < count; ++i) {
      Request q = requests[static_cast<std::size_t>(order[i])];
      q.due_ms = times[i];
      out.push_back(q);
    }
  }
  return out;
}

/// One lane: its own connection, its sessions' requests in due order.
void run_lane(const std::vector<const Request*>& requests,
              std::vector<Session>& sessions, serve::Client& client,
              Clock::time_point start, Trace& trace,
              std::vector<Outcome>* log) {
  Clock::time_point free_at = start;  // when the previous reply arrived
  long long n = 0;
  for (const Request* q : requests) {
    Outcome out;
    out.request = q;
    // The request is built before its due time, so only the call falls
    // between due time and reply.
    Session& s = sessions[static_cast<std::size_t>(q->session)];
    Json request;
    std::optional<EditMix> mix_before;
    switch (q->verb) {
      case Verb::kOpen:
        request = Json::object();
        request.set("op", Json::string("open"));
        request.set("design_text", Json::string(s.text));
        break;
      case Verb::kResolve:
        request = session_request("resolve", s.sid);
        break;
      case Verb::kEdit: {
        request = session_request("edit", s.sid);
        mix_before = s.mix;
        Json edits = Json::array();
        for (int i = 0; i < q->edits; ++i) {
          out.edits.push_back(s.mix->next(i + 1 == q->edits));
          edits.push(edit_json(out.edits.back()));
        }
        request.set("edits", std::move(edits));
        break;
      }
    }
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(q->due_ms));
    // Sleep, not spin, until due: a spinning lane takes a CPU from the
    // server's resolve pool. Its wake-up lateness is in the latency.
    std::this_thread::sleep_until(due);
    const Clock::time_point send = Clock::now();
    if (std::chrono::duration<double, std::milli>(send - due).count() >
        kDropLateMs) {
      if (mix_before) s.mix = std::move(mix_before);  // edit not sent
      log->push_back(std::move(out));  // dropped unsent: a miss
      continue;
    }
    out.sent = true;
    out.wait_ms = std::chrono::duration<double, std::milli>(send - due).count();
    out.lag_ms = std::chrono::duration<double, std::milli>(
                     send - std::max(due, free_at))
                     .count();
    Json reply;
    std::string error;
    bool transport_ok = true;
    {
      Trace::Span span(trace, span_name(q->verb), ++n);
      transport_ok = client.call(request, &reply, &error);
    }
    free_at = Clock::now();
    out.latency_ms = std::chrono::duration<double, std::milli>(free_at - due).count();
    if (transport_ok) {
      const Json* ok = reply.get("ok");
      const Json* code = reply.get("code");
      out.ok = ok != nullptr && ok->as_bool();
      out.shed = code != nullptr && code->as_string() == serve::kCodeRetryAfter;
      if (const Json* rev = reply.get("revision"); rev != nullptr) {
        out.revision = rev->as_int();
      }
      if (const Json* dig = reply.get("digest"); dig != nullptr) {
        out.digest = dig->as_string();
      }
      if (!out.ok && !out.shed) {
        std::fprintf(stderr, "relbench: serve reply: %s\n",
                     reply.render().c_str());
      }
    } else {
      std::fprintf(stderr, "relbench: serve transport: %s\n", error.c_str());
    }
    if (!out.ok) {
      out.latency_ms = std::numeric_limits<double>::infinity();
      if (mix_before) s.mix = std::move(mix_before);  // edit not applied
    }
    log->push_back(std::move(out));
    if (!transport_ok) return;  // connection state unknown: stop the lane
  }
}

struct Rung {
  double rate = 0;
  double p99_ms = 0;
  /// Median send wait over the rung's last quarter: a backlog that
  /// keeps growing shows here.
  double end_wait_ms = 0;
  bool within = false;
};

/// Highest offered rate whose p99 meets the limit with no growing
/// backlog, interpolated (in log p99) toward the first rung that
/// misses, so the figure is not quantized to the ladder.
double max_rps_within_slo(const std::vector<Rung>& rungs, double slo_ms) {
  int best = -1;
  // The first rung warms the server up, so its misses do not count.
  for (std::size_t i = rungs.size() > 1 ? 1 : 0; i < rungs.size(); ++i) {
    if (!rungs[i].within) break;
    best = static_cast<int>(i);
  }
  if (best < 0) return 0;
  const Rung& pass = rungs[static_cast<std::size_t>(best)];
  if (best + 1 >= static_cast<int>(rungs.size())) return pass.rate;
  const Rung& miss = rungs[static_cast<std::size_t>(best + 1)];
  if (!std::isfinite(miss.p99_ms) || miss.p99_ms <= pass.p99_ms ||
      pass.p99_ms <= 0) {
    return pass.rate;
  }
  const double frac = std::clamp(
      (std::log(slo_ms) - std::log(pass.p99_ms)) /
          (std::log(miss.p99_ms) - std::log(pass.p99_ms)),
      0.0, 1.0);
  return pass.rate + frac * (miss.rate - pass.rate);
}

}  // namespace

void run_serve_mix(const Args& args, Trace& trace, Result& result) {
  namespace fs = std::filesystem;
  if (args.serve_bin.empty() || args.ladder.empty() || args.slo_ms <= 0) {
    result.fail_gate("serve_mix needs --serve-bin, --ladder and --slo-ms");
    return;
  }
  const int sessions_n = args.smoke ? kSmokeSessions : kSessions;
  // One lane per CPU this process may run on, at most four, so the
  // load keeps its shape on bigger machines.
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int nproc =
      ::sched_getaffinity(0, sizeof cpus, &cpus) == 0 ? CPU_COUNT(&cpus) : 1;
  const int lanes_n = std::clamp(nproc, 1, 4);
  // The session designs are a fixed data set (see kCorpusSeed); the
  // seed draws the traffic (arrivals, sessions, verbs, edit streams).
  const std::vector<designs::GeneratorParams> params =
      args.smoke ? corpus_params(kCorpusSeed, sessions_n, 2.0, 2.5, 2, 4, "serve")
                 : corpus_params(kCorpusSeed, sessions_n, 3.0, 4.0, 4, 16, "serve");
  const std::string socket = args.out_dir + "/serve.sock";
  const std::string state = args.out_dir + "/serve-state";

  // Set-up: the daemon, one connection per lane, the design texts and
  // client-side edit streams, then every open, spread over the lanes.
  std::vector<Session> sessions(static_cast<std::size_t>(sessions_n));
  std::vector<serve::Client> clients(static_cast<std::size_t>(lanes_n));
  ServerProcess server;
  {
    std::error_code ec;
    fs::remove_all(state, ec);
    std::string error;
    if (!server.start(args, socket, state, &error)) {
      result.fail_gate(error);
      return;
    }
    for (serve::Client& c : clients) {
      if (!c.connect(socket, std::chrono::seconds(10), &error)) {
        result.fail_gate("connect: " + error);
        return;
      }
    }
    for (int i = 0; i < sessions_n; ++i) {
      Session& s = sessions[static_cast<std::size_t>(i)];
      s.text = cg::to_text(designs::generate(params[static_cast<std::size_t>(i)]));
      cg::ParseResult parsed = cg::from_text(s.text);
      if (!parsed.ok()) {
        result.fail_gate("parse: " + parsed.error);
        return;
      }
      s.mix.emplace(*parsed.graph, nullptr,
                    mix64(args.seed ^ (static_cast<std::uint64_t>(i) << 32)));
      s.base = std::move(*parsed.graph);
    }
    std::vector<std::thread> openers;
    std::vector<std::string> errors(static_cast<std::size_t>(lanes_n));
    for (int l = 0; l < lanes_n; ++l) {
      openers.emplace_back([&, l] {
        for (int i = l; i < sessions_n; i += lanes_n) {
          Json request = Json::object();
          request.set("op", Json::string("open"));
          request.set("design_text",
                      Json::string(sessions[static_cast<std::size_t>(i)].text));
          Json reply;
          std::string err;
          const Json* sid = nullptr;
          if (!call(clients[static_cast<std::size_t>(l)], request, &reply, &err) ||
              (sid = reply.get("session")) == nullptr) {
            errors[static_cast<std::size_t>(l)] = "open: " + err;
            return;
          }
          sessions[static_cast<std::size_t>(i)].sid = sid->as_string();
        }
      });
    }
    for (std::thread& t : openers) t.join();
    for (const std::string& e : errors) {
      if (!e.empty()) result.fail_gate(e);
    }
  }
  if (!result.correct) return;

  // Lanes: sessions dealt greedily by expected load (Zipf weight), so
  // the hot sessions do not share a lane.
  const double rung_ms = args.seconds * 1000.0 / static_cast<double>(args.ladder.size());
  const std::vector<Request> schedule = make_schedule(args, sessions_n, rung_ms);
  {
    std::vector<double> load(static_cast<std::size_t>(sessions_n), 0);
    for (const Request& q : schedule) load[static_cast<std::size_t>(q.session)] += 1;
    std::vector<int> by_load(static_cast<std::size_t>(sessions_n));
    for (int i = 0; i < sessions_n; ++i) by_load[static_cast<std::size_t>(i)] = i;
    std::stable_sort(by_load.begin(), by_load.end(), [&](int a, int b) {
      return load[static_cast<std::size_t>(a)] > load[static_cast<std::size_t>(b)];
    });
    std::vector<double> lane_load(static_cast<std::size_t>(lanes_n), 0);
    for (const int s : by_load) {
      const auto lane = static_cast<std::size_t>(
          std::min_element(lane_load.begin(), lane_load.end()) - lane_load.begin());
      sessions[static_cast<std::size_t>(s)].lane = static_cast<int>(lane);
      lane_load[lane] += load[static_cast<std::size_t>(s)];
    }
  }
  std::vector<std::vector<const Request*>> lane_requests(static_cast<std::size_t>(lanes_n));
  for (const Request& q : schedule) {
    lane_requests[static_cast<std::size_t>(
                      sessions[static_cast<std::size_t>(q.session)].lane)]
        .push_back(&q);
  }

  trace.set_recording(true);
  std::vector<std::vector<Outcome>> logs(static_cast<std::size_t>(lanes_n));
  {
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
    std::vector<std::thread> lanes;
    for (int l = 0; l < lanes_n; ++l) {
      lanes.emplace_back([&, l] {
        run_lane(lane_requests[static_cast<std::size_t>(l)], sessions,
                 clients[static_cast<std::size_t>(l)], start, trace,
                 &logs[static_cast<std::size_t>(l)]);
      });
    }
    for (std::thread& t : lanes) t.join();
  }
  trace.set_recording(false);

  // Server-side counters, then a graceful shutdown.
  Json stats;
  {
    std::string error;
    serve::Client admin;
    Json request = Json::object();
    request.set("op", Json::string("stats"));
    if (!admin.connect(socket, std::chrono::seconds(5), &error) ||
        !call(admin, request, &stats, &error)) {
      result.fail_gate("stats: " + error);
    }
  }
  {
    Json request = Json::object();
    request.set("op", Json::string("shutdown"));
    Json reply;
    std::string error;
    serve::Client admin;
    if (admin.connect(socket, std::chrono::seconds(5), &error)) {
      (void)admin.call(request, &reply, &error);
    }
    clients.clear();
    if (!server.wait()) result.fail_gate("server did not exit cleanly");
  }
  auto stat = [&](const char* key) {
    const Json* v = stats.get(key);
    return v != nullptr ? static_cast<double>(v->as_int()) : 0.0;
  };
  if (stat("quarantined_sessions") > 0 || stat("quarantines") > 0) {
    result.fail_gate("sessions were quarantined");
  }

  // Serial oracle: replay each session's acknowledged requests in order
  // on an in-process session and compare every reply.
  std::vector<std::vector<const Outcome*>> per_session(static_cast<std::size_t>(sessions_n));
  for (const std::vector<Outcome>& log : logs) {
    for (const Outcome& o : log) {
      if (!o.sent) continue;
      ++result.attempted;
      if (!o.ok && !o.shed) {
        result.fail_op("serve request failed");
        continue;
      }
      if (o.ok) per_session[static_cast<std::size_t>(o.request->session)].push_back(&o);
    }
  }
  // Sessions are independent, so the lanes replay them side by side,
  // each session serially.
  std::vector<int> mismatches(static_cast<std::size_t>(sessions_n), 0);
  std::vector<char> unschedulable(static_cast<std::size_t>(sessions_n), 0);
  {
    std::vector<std::thread> replayers;
    for (int l = 0; l < lanes_n; ++l) {
      replayers.emplace_back([&, l] {
        for (int i = l; i < sessions_n; i += lanes_n) {
          const auto si = static_cast<std::size_t>(i);
          engine::SessionOptions options;
          options.threads = 1;
          engine::SynthesisSession oracle(*sessions[si].base, options);
          if (!oracle.resolve().ok()) unschedulable[si] = 1;
          for (const Outcome* o : per_session[si]) {
            if (o->request->verb == Verb::kEdit) {
              oracle.begin_txn();
              for (const EditCmd& e : o->edits) apply(oracle, e);
              (void)oracle.commit();
            } else if (o->request->verb == Verb::kResolve) {
              (void)oracle.resolve();
            }
            const bool revision_ok =
                o->revision == static_cast<long long>(oracle.graph().revision());
            const bool digest_ok =
                o->request->verb == Verb::kOpen ||
                o->digest == serve::hex16(serve::products_digest(oracle.products()));
            if (!revision_ok || !digest_ok) ++mismatches[si];
          }
        }
      });
    }
    for (std::thread& t : replayers) t.join();
  }
  for (int i = 0; i < sessions_n; ++i) {
    const auto si = static_cast<std::size_t>(i);
    if (unschedulable[si] != 0) result.fail_gate("oracle: base design unschedulable");
    for (int k = 0; k < mismatches[si]; ++k) {
      result.fail_op("session " + std::to_string(i) +
                     ": reply differs from the serial oracle");
    }
  }

  // Per-rung latency (failed, shed and dropped requests miss the limit)
  // and the backlog left at each rung's end. The generator's lateness is
  // read on the rungs at the ladder's lowest rate, after the first (it
  // warms the server up).
  const double lowest_rps = *std::min_element(args.ladder.begin(), args.ladder.end());
  std::vector<Rung> rungs(args.ladder.size());
  std::vector<std::vector<double>> rung_latency(args.ladder.size());
  std::vector<std::vector<double>> rung_end_wait(args.ladder.size());
  std::vector<double> lag_ms;
  long long touches = 0;
  for (const std::vector<Outcome>& log : logs) {
    for (const Outcome& o : log) {
      const auto rung = static_cast<std::size_t>(o.request->rung);
      rung_latency[rung].push_back(o.latency_ms);
      if (o.sent) ++touches;
      if (o.request->due_ms >= rung_ms * (static_cast<double>(rung) + 0.75)) {
        rung_end_wait[rung].push_back(o.wait_ms);
      }
      if (rung > 0 && args.ladder[rung] <= lowest_rps && o.ok) {
        lag_ms.push_back(o.lag_ms);
      }
    }
  }
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    rungs[i].rate = args.ladder[i];
    rungs[i].p99_ms = quantile(rung_latency[i], 0.99);
    rungs[i].end_wait_ms = median(rung_end_wait[i]);
    rungs[i].within = rungs[i].p99_ms <= args.slo_ms &&
                      rungs[i].end_wait_ms <= args.slo_ms / 2;
    std::fprintf(stderr,
                 "relbench: serve rung %.0f req/s: %zu requests, p50 %.3f ms, "
                 "p90 %.3f ms, p99 %.3f ms, end wait %.3f ms%s\n",
                 rungs[i].rate, rung_latency[i].size(),
                 quantile(rung_latency[i], 0.5), quantile(rung_latency[i], 0.9),
                 rungs[i].p99_ms,
                 rungs[i].end_wait_ms, rungs[i].within ? "" : " (misses)");
  }
  if (lag_ms.empty()) result.fail_gate("no lowest-rate request completed");

  for (const Verb v : {Verb::kOpen, Verb::kEdit, Verb::kResolve}) {
    const std::vector<double> ms = trace.durations_ms(span_name(v));
    result.metric(std::string(span_name(v)) + "_ms.p50", quantile(ms, 0.5));
    result.metric(std::string(span_name(v)) + "_ms.p99", quantile(ms, 0.99));
  }
  result.metric("serve.gen_lag_ms", quantile(lag_ms, 0.99));
  const double requests = stat("requests");
  result.metric("serve.shed_ratio",
                requests > 0 ? (stat("shed_session_busy") +
                                stat("shed_server_busy") +
                                stat("shed_connections")) / requests
                             : 0);
  result.metric("serve.restore_ratio",
                touches > 0 ? stat("restores") / static_cast<double>(touches) : 0);
  result.metric("serve.restore_cold_fallbacks", stat("restore_cold_rebuilds"));
  result.metric("serve.wal_retries", stat("wal_retries_live"));
  result.metric("max_rps_within_slo", max_rps_within_slo(rungs, args.slo_ms));

  // persist: checkpoint and restore in-process on the same designs.
  trace.set_recording(true);
  const std::string dir = args.out_dir + "/serve-persist";
  for (int i = 0; i < sessions_n; ++i) {
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    engine::SynthesisSession live(*sessions[static_cast<std::size_t>(i)].base);
    (void)live.resolve();
    persist::Error error;
    {
      Trace::Span span(trace, "persist.checkpoint", i);
      error = live.checkpoint(dir);
    }
    if (!error.ok()) {
      result.fail_gate("checkpoint: " + error.render());
      continue;
    }
    engine::SynthesisSession::RestoreReport report;
    std::optional<engine::SynthesisSession> restored;
    {
      Trace::Span span(trace, "persist.restore", i);
      restored = engine::SynthesisSession::restore(dir, {}, &report);
    }
    if (!restored || !report.ok() || report.cold_fallback ||
        serve::products_digest(restored->products()) !=
            serve::products_digest(live.products())) {
      result.fail_gate("restore differs from the checkpointed session");
    }
  }
  trace.set_recording(false);
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::remove_all(state, ec);
  report_span(result, trace, "persist.checkpoint", "persist.checkpoint_ms");
  report_span(result, trace, "persist.restore", "persist.restore_ms");
}

}  // namespace relbench
