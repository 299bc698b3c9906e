#!/usr/bin/env python3
"""Record a baseline: two independent sets of runs of every workload.

Run from the repository root:

    python3 perfbench/baseline.py --runs 10 --out perfbench/BASELINE.json

Each set runs every workload once per seed (set A seeds 1..N, set B
seeds N+1..2N), then runs it once traced.  Per metric and workload it
records the median and quartiles of each set, the spread
(interquartile range over median), and whether the spreads and the
drift between the two medians stay within the bounds in BENCHMARK.json.
It also records nproc, the OCaml version and the commit.  The exit code
is 1 when a bound is broken.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run(workload, seed, seconds, trace):
    t0 = time.time()
    out = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    detail = json.loads(lines[-2])
    detail["wall_s"] = time.time() - t0
    return detail, json.loads(lines[-1])


def quartiles(values):
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q[0], "q3": q[2],
            "spread": (q[2] - q[0]) / med if med else None, "n": len(values)}


def one_set(bench, seeds, log):
    result = {}
    for w in bench["workloads"]:
        name = w["name"]
        values, failed, attempted, walls = {}, 0, 0, []
        for seed in seeds:
            detail, res = run(name, seed, bench["run_seconds"], 0)
            failed += res["failed"]
            attempted += res["attempted"]
            walls.append(detail["wall_s"])
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            log(f"{name} seed={seed} batches={detail['batches']} failed={res['failed']} "
                + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()))
        detail, traced = run(name, seeds[0], bench["run_seconds"], 1)
        failed += traced["failed"]
        attempted += traced["attempted"]
        result[name] = {
            "seeds": seeds, "attempted": attempted, "failed": failed,
            "run_wall_s": {"median": statistics.median(walls), "max": max(walls),
                           "traced": detail["wall_s"]},
            "end_to_end": {k: quartiles(v) for k, v in values.items()},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "accuracy_first_seed": detail["accuracy"],
            "host": detail["host"],
        }
    return result


def verdicts(bench, a, b):
    bad = []
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            qa, qb = a[w["name"]]["end_to_end"][m["name"]], b[w["name"]]["end_to_end"][m["name"]]
            if m["name"] != "setup_s":
                for label, q in (("A", qa), ("B", qb)):
                    if q["spread"] > m["bound"]:
                        bad.append(f"{w['name']} {m['name']}: set {label} spread "
                                   f"{q['spread']:.3f} > bound {m['bound']}")
            worse = qb["median"] / qa["median"] - 1.0
            if m["better"] == "higher":
                worse = qa["median"] / qb["median"] - 1.0
            if worse > m["bound"]:
                bad.append(f"{w['name']} {m['name']}: set B median worse by {worse:.3f}")
        if a[w["name"]]["failed"] or b[w["name"]]["failed"]:
            bad.append(f"{w['name']}: failed ops")
    return bad


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--out", default=None)
    args = p.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    log = lambda s: print(s, file=sys.stderr, flush=True)
    n = args.runs
    set_a = one_set(bench, list(range(1, n + 1)), log)
    set_b = one_set(bench, list(range(n + 1, 2 * n + 1)), log)
    bad = verdicts(bench, set_a, set_b)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain"], capture_output=True,
                               text=True, check=True).stdout.strip() != ""
    except (OSError, subprocess.CalledProcessError):
        commit, dirty = "unknown", None
    host = next(iter(set_a.values()))["host"]
    doc = {
        "commit": commit,
        "uncommitted_changes": dirty,
        "nproc": host["nproc"],
        "cpu_count": os.cpu_count(),
        "ocaml": host["ocaml"],
        "run_seconds": bench["run_seconds"],
        "sets": {"A": set_a, "B": set_b},
        "within_bounds": not bad,
        "violations": bad,
        "layer_map": json.load(open("perfbench/layer_map.json")),
    }
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        open(args.out, "w").write(text)
    else:
        sys.stdout.write(text)
    for line in bad:
        log("VIOLATION " + line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
