#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/spread.py [--workloads search,exact] [--seeds 10]
                                [--first-seed 1] [--trace 0]
                                [--baseline-out perfbench/baseline.json]

For every workload, runs `python3 perfbench/run.py` once per seed and prints,
per end-to-end metric, the median, the quartiles (statistics.quantiles, n=4)
and the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json. A spread under a third of the bound is marked "steady".

With --baseline-out the medians are merged into a baseline document, under
"end_to_end" or "per_layer" by workload, with each workload's provenance;
everything else in an existing file (its "notes", the other metric kind, other
workloads) is kept. A baseline is refused when any run was not an optimized
build: build type other than Release, a sanitizer, or asserts.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    for line in proc.stderr.splitlines():
        if line.startswith("perfbench: "):  # warnings, such as stall nudges
            print("%s seed %d: %s" % (workload, seed, line), file=sys.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("run failed: " + " ".join(cmd))
    provenance = None
    for line in lines:
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
    return json.loads(lines[-1]), provenance


def optimized(provenance):
    return (provenance["build_type"] == "Release"
            and not provenance["sanitizers"] and not provenance["asserts"])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline-out", default="")
    args = parser.parse_args()

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = spec[kind]
    baseline = {}
    if args.baseline_out and os.path.isfile(args.baseline_out):
        with open(args.baseline_out) as f:
            baseline = json.load(f)
    steady = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        provenances = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, provenance = run_once(workload, seed, args.seconds,
                                          args.trace)
            if not result["correct"]:
                raise SystemExit("%s seed %d: outputs differ from the oracle"
                                 % (workload, seed))
            provenances.append(provenance)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print("%s (%d seeds from %d, %d s runs)" % (
            workload, args.seeds, args.first_seed, args.seconds))
        medians = {}
        for m in metrics:
            v = values[m["name"]]
            mid = statistics.median(v)
            medians[m["name"]] = mid
            if len(v) < 2:
                continue
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / mid if mid else 0.0
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                ok = spread < bound / 3
                steady = steady and ok
                verdict = "steady" if ok else "NOT steady"
                verdict = "bound %.2f  %s" % (bound, verdict)
            print("  %-28s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f  %s"
                  % (m["name"], mid, q1, q3, spread, verdict))
        baseline.setdefault(kind, {})[workload] = {
            "seeds": args.seeds, "first_seed": args.first_seed,
            "run_seconds": args.seconds, "medians": medians,
            "provenance": provenances[0]}
        if args.baseline_out and not all(optimized(p) for p in provenances):
            raise SystemExit("refusing to record a baseline from a "
                             "non-Release, sanitized or assert-enabled build")

    if args.baseline_out:
        with open(args.baseline_out, "w") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
