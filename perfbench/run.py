#!/usr/bin/env python3
"""Benchmark runner for ucqc: builds the harness and the CLI from source,
then runs workloads, each in a fresh process.

One run of one workload (the last stdout line is the JSON result):
    python3 perfbench/run.py --workload count_skewed_graph --seed 1 --seconds 30 --trace 0
All three workloads, one after another:
    python3 perfbench/run.py --workload all --seed 1
Repeat mode, the evidence behind the bounds in BENCHMARK.json: N fresh
runs on N seeds, each metric's median and quartiles; with --sets 2, a
second set on fresh seeds and the shift of its median against the first:
    python3 perfbench/run.py --workload serve_live_mix --repeat 10 --sets 2

Run from the root of a ucqc source tree.  Everything it writes stays in
that tree: _build/ and .bench_work/.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ["count_skewed_graph", "check_wide_unions", "serve_live_mix"]
HARNESS = os.path.join("_build", "default", "perfbench", "harness.exe")
UCQC = os.path.join("_build", "default", "bin", "ucqc_cli.exe")
WORKDIR = ".bench_work"
SOURCES = ["dune-project", os.path.join("bin", "ucqc_cli.ml"), os.path.join("lib", "core", "runner.ml")]
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build():
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        fail("not a ucqc source tree (missing %s)" % ", ".join(missing))
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    # --root pins the workspace to this tree and the disabled shared cache
    # keeps every build artefact inside it; build output goes to stderr
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/harness.exe", "./bin/ucqc_cli.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=dict(os.environ, DUNE_CACHE="disabled"),
        timeout=900,
    )
    if r.returncode != 0:
        fail("build failed")


def reap(pgid):
    """Stop whatever the harness left in its process group, and wait."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_once(workload, seed, seconds, trace):
    """One workload in a fresh harness process: (human lines, result)."""
    os.makedirs(WORKDIR, exist_ok=True)
    cmd = [
        HARNESS, workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--ucqc", UCQC, "--workdir", WORKDIR,
    ]
    env = dict(os.environ, UCQC_JOBS="1")
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        reap(p.pid)
        p.wait()
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    reap(p.pid)
    lines = out.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail("%s harness exited with code %d" % (workload, p.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s printed no JSON result" % workload)
    return lines[:-1], result


def check_result(result, names):
    keys = {"correct", "attempted", "failed", "metrics"}
    if set(result) != keys:
        fail("result keys %s, expected %s" % (sorted(result), sorted(keys)))
    if set(result["metrics"]) != set(names):
        fail("metrics %s, expected %s" % (sorted(result["metrics"]), sorted(names)))


def metric_names(b, trace):
    return [m["name"] for m in b["per_layer" if trace else "end_to_end"]]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def reference(lines):
    """The run's box_reference_ms line: the median time of a fixed piece
    of work between ops, the machine's speed during the run."""
    for line in lines:
        f = line.split()
        if len(f) >= 2 and f[0] == "box_reference_ms":
            return float(f[1])
    return None


def spread_of(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("nan")


def repeat(b, workload, seed, seconds, trace, n, sets):
    """N fresh runs per set; per metric: median, quartiles, spread as a
    share of the median, and, from the second set on, the shift of the
    median in the metric's worse direction.  For times and rates it
    also prints the spread left once each run's value is scaled by the
    machine's speed in that run (box_reference_ms): a diagnostic of how
    much of the spread is the machine's, never a metric."""
    names = metric_names(b, trace)
    meta = {m["name"]: m for m in b["end_to_end"] + b["per_layer"]}
    medians = []
    ref_medians = []
    summary = {}
    for s in range(sets):
        values = {name: [] for name in names}
        refs = []
        for i in range(n):
            lines, r = run_once(workload, seed + s * n + i, seconds, trace)
            refs.append(reference(lines))
            check_result(r, names)
            if not r["correct"]:
                fail("%s seed %d: %d of %d ops failed" % (workload, seed + s * n + i, r["failed"], r["attempted"]))
            for name in names:
                values[name].append(r["metrics"][name]["value"])
            print("set %d run %d seed %d done" % (s + 1, i + 1, seed + s * n + i), file=sys.stderr)
        set_summary = {}
        have_refs = all(x for x in refs)
        if have_refs:
            ref_medians.append(statistics.median(refs))
            moved = " shift %+.3f" % (ref_medians[-1] / ref_medians[0] - 1) if s > 0 and len(ref_medians) > 1 else ""
            print("set %d %-36s median %14.6f spread %.3f%s"
                  % (s + 1, "box_reference_ms", ref_medians[-1], spread_of(refs), moved))
        for name in names:
            q1, med, q3 = quartiles(values[name])
            spread = (q3 - q1) / med if med else float("nan")
            row = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values[name]}
            unit = meta[name]["unit"]
            if have_refs and unit in ("ms", "s", "1/s"):
                scaled = [v * x if unit == "1/s" else v / x for v, x in zip(values[name], refs)]
                row["box_adjusted_spread"] = spread_of(scaled)
            bound = meta[name].get("bound")
            if bound is not None:
                row["bound"] = bound
            if s > 0 and medians[0][name]:
                sign = 1 if meta[name]["better"] == "lower" else -1
                row["shift"] = sign * (med - medians[0][name]) / medians[0][name]
            set_summary[name] = row
            shift = " shift %+.3f" % row["shift"] if "shift" in row else ""
            lim = " bound %.2f" % bound if bound is not None else ""
            adj = " box-adjusted %.3f" % row["box_adjusted_spread"] if "box_adjusted_spread" in row else ""
            print("set %d %-36s median %14.6f q1 %14.6f q3 %14.6f spread %.3f%s%s%s"
                  % (s + 1, name, med, q1, q3, spread, lim, shift, adj))
        medians.append({name: set_summary[name]["median"] for name in names})
        summary["set%d" % (s + 1)] = set_summary
    print(json.dumps({"workload": workload, "runs": n, "sets": sets, "summary": summary}))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, default=0, help="runs per set (repeat mode)")
    ap.add_argument("--sets", type=int, default=1, help="sets of runs in repeat mode")
    a = ap.parse_args()
    b = spec()
    seconds = a.seconds if a.seconds is not None else b["run_seconds"]
    build()
    if a.repeat > 0:
        for w in WORKLOADS if a.workload == "all" else [a.workload]:
            repeat(b, w, a.seed, seconds, a.trace, a.repeat, a.sets)
        return
    names = metric_names(b, a.trace)
    if a.workload == "all":
        results = {}
        for w in WORKLOADS:
            lines, r = run_once(w, a.seed, seconds, a.trace)
            check_result(r, names)
            print("== %s" % w)
            print("\n".join(lines))
            results[w] = r
        print(json.dumps(results))
        return
    lines, r = run_once(a.workload, a.seed, seconds, a.trace)
    check_result(r, names)
    if lines:
        print("\n".join(lines))
    print(json.dumps(r))


if __name__ == "__main__":
    main()
