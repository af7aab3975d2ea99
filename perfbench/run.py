#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The driver and the repository libraries it
links are compiled (Release) into .bench_build/perfbench on first use and
rebuilt incrementally afterwards; build output goes to stderr. The driver's
standard output is passed through unchanged: human-readable metric lines,
then one JSON result object as the last line. The exit code is the driver's
(0 only when every output matched the oracle), or 2 when the checkout has no
library sources or the build fails, in which case no result is printed.

The build directory is always configured as a plain Release build. A
sanitized driver is built by hand into a separate directory (see README.md).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under %s/src; run from a full checkout" % ROOT)
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    # Configured every time, so a cache left with other settings is reset.
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
              "-DPPN_SANITIZE="],
             ["cmake", "--build", BUILD, "--target", "perfbench_driver",
              "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench_driver")


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def check_metric_names(result, trace):
    """The printed metrics must be exactly BENCHMARK.json's list."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return True
    with open(path) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        print("perfbench: printed metrics differ from BENCHMARK.json: "
              "missing %s, extra %s" % (sorted(set(want) - set(got)),
                                        sorted(set(got) - set(want))),
              file=sys.stderr)
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans-out", default="",
                        help="write the traced 1-thread pass's spans (JSONL)")
    args = parser.parse_args()

    driver = build()
    spill = os.path.join(BUILD, "spill")
    os.makedirs(spill, exist_ok=True)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--oracle-dir", os.path.join(HERE, "oracle"), "--spill-dir", spill]
    if args.spans_out:
        cmd += ["--spans-out", args.spans_out]
    env = dict(os.environ, PERFBENCH_COMMIT=commit())
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    if not lines or not check_metric_names(json.loads(lines[-1]), args.trace):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
