// relbench: one seeded run of one workload.
//
//   relbench --workload NAME --seed N --seconds S --trace 0|1
//            [--smoke] [--out-dir DIR] [--serve-bin PATH]
//            [--ladder R1,R2,...] [--slo-ms MS]
//
// NAME is cold_corpus or lint_corpus. The traced run of cold_corpus
// also runs the edit_stream phase (warm-path layers), and that of
// lint_corpus drives relsched_serve with the serve_mix traffic
// (--serve-bin, --ladder, --slo-ms) for the serve and persist layers.
//
// Prints one JSON object as its last stdout line: correct, attempted,
// failed, metrics (name -> value) and run metadata. A traced run also
// writes its spans to DIR/trace-NAME-sN.json (Chrome trace events).
// Exit code 0 when the run completed (correct or not), 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common.hpp"

namespace {

using relbench::Args;

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    auto value = [&] { return std::string(argv[++i]); };
    if (a == "--smoke") {
      args->smoke = true;
    } else if (!has_value) {
      return false;
    } else if (a == "--workload") {
      args->workload = value();
    } else if (a == "--seed") {
      args->seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args->seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      args->trace = value() == "1";
    } else if (a == "--out-dir") {
      args->out_dir = value();
    } else if (a == "--serve-bin") {
      args->serve_bin = value();
    } else if (a == "--ladder") {
      const std::string list = value();
      for (std::size_t pos = 0; pos < list.size();) {
        std::size_t end = list.find(',', pos);
        if (end == std::string::npos) end = list.size();
        args->ladder.push_back(std::strtod(list.substr(pos, end - pos).c_str(), nullptr));
        pos = end + 1;
      }
    } else if (a == "--slo-ms") {
      args->slo_ms = std::strtod(value().c_str(), nullptr);
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr, "usage: relbench --workload NAME --seed N --seconds S "
                         "--trace 0|1 [options]; see main.cpp\n");
    return 2;
  }
  relbench::Trace trace(args.trace);
  relbench::Result result;
  if (args.workload == "cold_corpus") {
    relbench::run_cold_corpus(args, trace, result);
    if (args.trace && result.correct) relbench::run_edit_stream(args, trace, result);
  } else if (args.workload == "lint_corpus") {
    relbench::run_lint_corpus(args, trace, result);
    if (args.trace && result.correct) relbench::run_serve_mix(args, trace, result);
  } else {
    std::fprintf(stderr, "relbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (args.trace) {
    const std::string path = args.out_dir + "/trace-" + args.workload + "-s" +
                             std::to_string(args.seed) + ".json";
    if (!trace.write_chrome(path)) {
      result.fail_gate("cannot write " + path);
    }
  }

  std::string metrics;
  for (const auto& [name, value] : result.metrics) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\":%.17g", metrics.empty() ? "" : ",",
                  name.c_str(), value);
    metrics += buf;
  }
  std::printf(
      "{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,\"metrics\":{%s},"
      "\"meta\":{\"build_type\":\"%s\",\"compiler\":\"%s\","
      "\"hardware_concurrency\":%u,\"seed\":%llu,\"workload\":\"%s\","
      "\"trace\":%d,\"smoke\":%d}}\n",
      result.correct ? "true" : "false", result.attempted, result.failed,
      metrics.c_str(), RELBENCH_BUILD_TYPE, RELBENCH_COMPILER,
      std::thread::hardware_concurrency(),
      static_cast<unsigned long long>(args.seed), args.workload.c_str(),
      args.trace ? 1 : 0, args.smoke ? 1 : 0);
  return 0;
}
