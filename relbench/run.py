#!/usr/bin/env python3
"""Seeded benchmark of the relative scheduler: library and daemon.

Run from the repository root:

    python3 relbench/run.py --workload cold_corpus --seed 1 --seconds 40 --trace 0
    python3 relbench/run.py --workload all --seed 1 --seconds 40 --trace 0

The first call builds the benchmark binary and relsched_serve from ../src into
$CARGO_TARGET_DIR (default .bench_build). Each workload runs in its own
process; --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer metrics (and writes a Chrome trace to
.bench_out/). The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is nonzero when a
correctness gate failed or the run could not be made.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["cold_corpus", "lint_corpus"]
RUN_TIMEOUT_S = 170


def log(msg):
    print("relbench: " + msg, file=sys.stderr, flush=True)


def clean_env():
    """The library's RELSCHED_* knobs are cleared: runs use its defaults."""
    return {k: v for k, v in os.environ.items() if not k.startswith("RELSCHED_")}


def build(build_dir):
    """Configures, then brings the two targets up to date (both steps
    are quick on a built tree)."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "relbench",
              "relsched_serve_bin", "-j", jobs]]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              env=clean_env())
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return (os.path.join(build_dir, "relbench"),
            os.path.join(build_dir, "relsched", "serve", "relsched_serve"))


def source_identity():
    """Commit when the checkout is a git repository, and always a digest
    of the sources the build reads."""
    commit = "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha1()
    for top in ("src", "relbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py", ".json")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return commit, digest.hexdigest()


def run_one(binary, serve_bin, config, workload, seed, seconds, trace, smoke):
    """Runs one workload process; returns its parsed result object."""
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    serve = config["serve_mix"]
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", os.path.relpath(out_dir, ROOT)]
    if workload == "lint_corpus" and trace:  # its traced run also drives the daemon
        cmd += ["--serve-bin", serve_bin,
                "--ladder", ",".join(str(r) for r in serve["ladder_rps"]),
                "--slo-ms", str(serve["p99_limit_ms"])]
    if smoke:
        cmd.append("--smoke")
    # Its own process group, so the daemon it spawns goes down with it
    # whatever way the run ends.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            env=clean_env(), start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if stdout is None:
        raise RuntimeError(workload + ": run exceeded %d s" % RUN_TIMEOUT_S)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s: benchmark binary exited %d" % (workload, proc.returncode))
    return json.loads(lines[-1])


def shape(raw, spec, trace):
    """The contract's result object: every metric of the run's set, by
    BENCHMARK.json name, with its unit. A per-layer metric the workload
    does not exercise reads 0; a missing end-to-end one is an error."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    names = {m["name"] for m in wanted}
    extra = set(raw["metrics"]) - names
    if extra:
        raise RuntimeError("metrics missing from BENCHMARK.json: %s" % sorted(extra))
    metrics = {}
    for m in wanted:
        if m["name"] in raw["metrics"]:
            value = raw["metrics"][m["name"]]
        elif trace:
            value = 0
        else:
            raise RuntimeError("end-to-end metric %s not reported" % m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": bool(raw["correct"]), "attempted": int(raw["attempted"]),
            "failed": int(raw["failed"]), "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny designs: the self-test size")
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        with open(os.path.join(HERE, "config.json")) as f:
            config = json.load(f)
        build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        binary, serve_bin = build(build_dir)
        commit, source_sha1 = source_identity()
        workloads = WORKLOADS if args.workload == "all" else [args.workload]
        results = []
        for workload in workloads:
            raw = run_one(binary, serve_bin, config, workload, args.seed,
                          args.seconds, args.trace, args.smoke)
            meta = dict(raw.get("meta", {}))
            meta.update({"nproc": len(os.sched_getaffinity(0)),
                         "commit": commit, "source_sha1": source_sha1,
                         "seconds": args.seconds})
            result = shape(raw, spec, args.trace)
            results.append(result)
            print(json.dumps({"meta": meta}))
            for name, m in result["metrics"].items():
                print("  %-32s %14.6g %s" % (name, m["value"], m["unit"]))
            failed_ratio = result["failed"] / max(1, result["attempted"])
            print("  %-32s %14d\n  %-32s %14d\n  %-32s %14.6g" % (
                "attempted", result["attempted"], "failed", result["failed"],
                "failed_ratio", failed_ratio))
    except (OSError, RuntimeError, ValueError, KeyError) as e:
        log(str(e))
        return 1
    for result in results:
        print(json.dumps(result), flush=True)
    return 0 if all(r["correct"] and r["failed"] == 0 for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
