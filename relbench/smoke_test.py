#!/usr/bin/env python3
"""Self-test of the benchmark at smoke size.

Run from the repository root:

    python3 relbench/smoke_test.py

Runs every workload at --smoke size, untraced and traced, and checks the
result contract: the last stdout line has exactly correct, attempted,
failed and metrics; every run is correct with no failed op; each metric
of BENCHMARK.json is reported with its unit; every end-to-end metric is
nonzero; and each per-layer metric is nonzero on the workloads
relbench/interactions.json says it moves (fault counters excepted). It
also checks that interactions.json covers exactly the per-layer metrics
and that each traced run wrote a Chrome trace with spans.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "3"


def run(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", SECONDS, "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    assert done.returncode == 0, "%s trace=%d exited %d" % (workload, trace, done.returncode)
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "interactions.json")) as f:
        table = {row["metric"]: row for row in json.load(f)["metrics"]}
    workloads = [w["name"] for w in spec["workloads"]]
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}

    errors = []
    if set(table) != set(per_layer):
        errors.append("interactions.json and BENCHMARK.json per_layer differ: %s"
                      % sorted(set(table) ^ set(per_layer)))
    for row in table.values():
        for name in row["moves"]:
            if name not in end_to_end:
                errors.append("%s moves unknown metric %s" % (row["metric"], name))
        for name in row["on"] + ([row["flat_on"]] if row["flat_on"] else []):
            if name not in workloads:
                errors.append("%s names unknown workload %s" % (row["metric"], name))

    for workload in workloads:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            result = run(workload, trace)
            tag = "%s trace=%d" % (workload, trace)
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                errors.append("%s: result keys %s" % (tag, sorted(result)))
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                errors.append("%s: correct=%s attempted=%d failed=%d" % (
                    tag, result["correct"], result["attempted"], result["failed"]))
            if set(result["metrics"]) != set(expected):
                errors.append("%s: metric names differ from BENCHMARK.json" % tag)
                continue
            for name, m in result["metrics"].items():
                if m["unit"] != expected[name]["unit"]:
                    errors.append("%s: %s unit %s" % (tag, name, m["unit"]))
                must_move = trace == 0 or (
                    workload in table[name]["on"] and not table[name].get("healthy_zero"))
                if must_move and not m["value"] > 0:
                    errors.append("%s: %s reads %r" % (tag, name, m["value"]))
            if trace:
                path = os.path.join(ROOT, ".bench_out", "trace-%s-s7.json" % workload)
                with open(path) as f:
                    events = json.load(f)["traceEvents"]
                if not any(e["ph"] == "X" for e in events):
                    errors.append("%s: no spans in %s" % (tag, path))
            print("ok " + tag if not errors else "checked " + tag, flush=True)

    for e in errors:
        print("FAIL: " + e)
    print("smoke test: %s" % ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
