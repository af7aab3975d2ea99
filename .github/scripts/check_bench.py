#!/usr/bin/env python3
"""Validates the throughput reports produced by the CI bench smoke job.

Three report kinds, dispatched on the "kind" field:

ppn-step-throughput (E21):
  * the report parses, carries the expected kind and a non-empty row per
    measurement;
  * every row has positive interpreted and compiled throughputs and a
    consistent speedup field (compiled / interpreted);
  * the compiled fast path is never SLOWER than the interpreted reference
    (speedup >= 1.0) — the regression this guard exists to catch. The full
    >= 3x target is asserted on the committed BENCH_step_throughput.json, not
    on shared CI runners whose absolute throughput is noisy.

ppn-explore-throughput (E23):
  * every explore case carries a threads=1 baseline row plus parallel rows
    with positive rates, consistent speedup fields, and — the determinism
    contract — IDENTICAL node counts and truncation flags across all thread
    counts;
  * every search case likewise has identical candidate counts across rows;
  * the min_speedup floor applies to the best parallel row of each case, and
    only when the report was generated on a machine with >= 4 hardware
    threads (a 1-core container honestly reports ~1.0x; the committed
    baseline may come from such a box, while CI runners regenerate and gate).
    On a < 4-thread box the parallel gates are SKIPPED, not failed: the floor
    is waived and cases are allowed to carry no threads > 1 rows at all. The
    determinism invariants (identical node/candidate counts across whatever
    thread counts were measured) are enforced unconditionally.

ppn-batch-throughput (E26):
  * every registry protocol has exactly one row with positive single-run,
    BatchEngine aggregate and runBatch aggregate rates and a consistent
    speedup field (aggregate / singleRun);
  * identicalToScalar is true on EVERY row — the engine's outcomes are
    bit-identical to per-run scalar reruns and its BatchResult equals
    runBatch's. This is the determinism contract and is enforced
    unconditionally;
  * the engine aggregate is at least the runBatch aggregate (same batch,
    same thread count) minus a band: aggregate >= runBatch * (1 - band). The
    band is the optional second argument (default BATCH_BAND, measured by
    repeated runs on a 4-core box, see EXPERIMENTS.md E26). The gate is
    armed at every thread count.

ppn-explore-memory (E27/E28):
  * every registry protocol has exactly one row per graph storage
    ("explicit" and "compressed") whose per-component ledger bytes
    (configs/adjacency/dedup/frontier/codec) sum exactly to totalBytes,
    with highWaterBytes >= totalBytes and a consistent bytesPerNode =
    totalBytes / nodes. Node counts must be IDENTICAL across the two
    storages — the compressed representation is behind the same explorer
    contract, not an approximation of it;
  * every compressed row carries spillBytes and a compressionRatio equal
    to the explicit row's totalBytes over its own; the anchor protocol's
    compressed row (named by rssProbe.protocol) must come in at most
    150 bytes/node with a compression ratio of at least 2.2x — the ledger
    is deterministic, so these absolute gates hold on any machine;
  * the rssProbe block is internally consistent: ledgerVsRssRatio ==
    ledgerTotalBytes / rssDeltaBytes, and the ratio stays within a loose
    [0.5, 1.5] band — the deterministic malloc-chunk model tracking the
    kernel's real RSS delta. (The tighter 5% acceptance band is asserted
    on the committed baseline, which was generated on a quiet heap; CI
    re-runs tolerate allocator noise.) When rssDeltaBytes == 0 the sampler
    was unavailable and the drift gate is SKIPPED, not failed;
  * with a second argument naming a committed baseline report, bytes/node
    must not regress by more than 10% per (protocol, storage) against it.
    An absent or unreadable baseline SKIPS the gate (first commit of the
    report).

Usage: check_bench.py BENCH_report.json [min_speedup]
       check_bench.py BENCH_batch_throughput.json [band]
       check_bench.py BENCH_explore_memory.json [baseline.json]
"""
import json
import sys

EXPECTED_PROTOCOLS = {
    "asymmetric", "symmetric-global", "leader-uniform",
    "counting", "selfstab-weak", "global-leader",
}


def fail(msg):
    print(f"check_bench: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_step_throughput(doc, min_speedup):
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        fail("empty or missing rows")

    seen = set()
    for row in rows:
        proto = row.get("protocol")
        if proto not in EXPECTED_PROTOCOLS:
            fail(f"unknown protocol {proto!r}")
        if proto in seen:
            fail(f"duplicate row for {proto!r}")
        seen.add(proto)
        interp = row.get("interpretedStepsPerSec", 0.0)
        compiled = row.get("compiledStepsPerSec", 0.0)
        speedup = row.get("speedup", 0.0)
        if not interp > 0.0 or not compiled > 0.0:
            fail(f"{proto}: non-positive throughput "
                 f"(interp={interp}, compiled={compiled})")
        if abs(speedup - compiled / interp) > 1e-6 * speedup:
            fail(f"{proto}: speedup field {speedup} inconsistent with "
                 f"{compiled}/{interp}")
        if speedup < min_speedup:
            fail(f"{proto}: compiled path speedup {speedup:.2f}x is below "
                 f"the {min_speedup:.2f}x floor — the compiled kernel "
                 f"regressed relative to the interpreted reference")

    missing = EXPECTED_PROTOCOLS - seen
    if missing:
        fail(f"missing rows for {sorted(missing)}")

    print(f"check_bench: OK: {len(rows)} protocols, speedups "
          + ", ".join(f"{r['protocol']}={r['speedup']:.2f}x" for r in rows))


def check_parallel_case(label, rows, invariant_keys, rate_key, min_speedup,
                        apply_floor):
    """Shared validation for one explore/search case's thread-count rows."""
    if not isinstance(rows, list) or not rows:
        fail(f"{label}: empty or missing rows")
    baseline = rows[0]
    if baseline.get("threads") != 1:
        fail(f"{label}: first row must be the threads=1 baseline, got "
             f"threads={baseline.get('threads')}")
    base_rate = baseline.get(rate_key, 0.0)
    if not base_rate > 0.0:
        fail(f"{label}: non-positive baseline {rate_key}={base_rate}")
    best_parallel = None
    for row in rows:
        threads = row.get("threads")
        for key in invariant_keys:
            if row.get(key) != baseline.get(key):
                fail(f"{label}: threads={threads} {key}={row.get(key)!r} "
                     f"differs from the threads=1 baseline "
                     f"{baseline.get(key)!r} — parallel output is not "
                     f"bit-identical to serial")
        rate = row.get(rate_key, 0.0)
        speedup = row.get("speedup", 0.0)
        if not rate > 0.0:
            fail(f"{label}: threads={threads} non-positive {rate_key}={rate}")
        if abs(speedup - rate / base_rate) > 1e-6 * max(speedup, 1.0):
            fail(f"{label}: threads={threads} speedup field {speedup} "
                 f"inconsistent with {rate}/{base_rate}")
        if threads != 1:
            best_parallel = max(best_parallel or 0.0, speedup)
    if best_parallel is None:
        # A report generated on a box without the cores may legitimately
        # carry no parallel rows; only a gating (>= 4 thread) report must.
        if apply_floor:
            fail(f"{label}: no parallel (threads > 1) rows")
        return None
    if apply_floor and best_parallel < min_speedup:
        fail(f"{label}: best parallel speedup {best_parallel:.2f}x is below "
             f"the {min_speedup:.2f}x floor")
    return best_parallel


def check_explore_throughput(doc, min_speedup):
    hw = doc.get("hardwareThreads", 0)
    if not isinstance(hw, int) or hw < 1:
        fail(f"missing/invalid hardwareThreads: {hw!r}")
    # A box without the cores cannot demonstrate a speedup; the determinism
    # invariants are still fully checked.
    apply_floor = hw >= 4
    explore = doc.get("explore")
    if not isinstance(explore, list) or not explore:
        fail("empty or missing explore cases")
    summaries = []
    for case in explore:
        label = f"explore:{case.get('protocol')}"
        if case.get("protocol") not in EXPECTED_PROTOCOLS:
            fail(f"{label}: unknown protocol")
        best = check_parallel_case(label, case.get("rows"),
                                   ("nodes", "truncated"), "nodesPerSec",
                                   min_speedup, apply_floor)
        if case["rows"][0].get("truncated"):
            fail(f"{label}: benchmark graph was truncated — the measurement "
                 f"must run on a closed graph")
        summaries.append(f"{label}={best:.2f}x" if best is not None
                         else f"{label}=n/a")
    search = doc.get("search")
    if not isinstance(search, list) or not search:
        fail("empty or missing search cases")
    for case in search:
        label = f"search:{case.get('space')}-q{case.get('q')}"
        best = check_parallel_case(label, case.get("rows"), ("candidates",),
                                   "candidatesPerSec", min_speedup,
                                   apply_floor)
        summaries.append(f"{label}={best:.2f}x" if best is not None
                         else f"{label}=n/a")
    floor_note = (f"floor {min_speedup:.2f}x enforced" if apply_floor else
                  f"floor skipped (hardwareThreads={hw} < 4)")
    print(f"check_bench: OK: {', '.join(summaries)}; {floor_note}")


# Largest engine-vs-runBatch deficit the E26 gate tolerates, as a fraction
# of the runBatch aggregate. Measured by repeated runs (EXPERIMENTS.md E26).
BATCH_BAND = 0.6


def check_batch_throughput(doc, band):
    hw = doc.get("hardwareThreads", 0)
    engine_threads = doc.get("engineThreads", 0)
    if not isinstance(hw, int) or hw < 1:
        fail(f"missing/invalid hardwareThreads: {hw!r}")
    if not isinstance(engine_threads, int) or engine_threads < 1:
        fail(f"missing/invalid engineThreads: {engine_threads!r}")
    if not 0.0 <= band < 1.0:
        fail(f"band {band} outside [0, 1)")
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        fail("empty or missing rows")

    seen = set()
    ratios = {}
    for row in rows:
        proto = row.get("protocol")
        if proto not in EXPECTED_PROTOCOLS:
            fail(f"unknown protocol {proto!r}")
        if proto in seen:
            fail(f"duplicate row for {proto!r}")
        seen.add(proto)
        runs = row.get("runs", 0)
        if not isinstance(runs, int) or runs < 1:
            fail(f"{proto}: missing/invalid runs: {runs!r}")
        if not row.get("interactions", 0) > 0:
            fail(f"{proto}: batch executed no interactions")
        single = row.get("singleRunStepsPerSec", 0.0)
        aggregate = row.get("aggregateStepsPerSec", 0.0)
        run_batch = row.get("runBatchStepsPerSec", 0.0)
        speedup = row.get("speedup", 0.0)
        if not single > 0.0 or not aggregate > 0.0 or not run_batch > 0.0:
            fail(f"{proto}: non-positive throughput (single={single}, "
                 f"aggregate={aggregate}, runBatch={run_batch})")
        if abs(speedup - aggregate / single) > 1e-6 * max(speedup, 1.0):
            fail(f"{proto}: speedup field {speedup} inconsistent with "
                 f"{aggregate}/{single}")
        # Bit-identity is unconditional: hardware cannot excuse a wrong
        # outcome, only a slow one.
        if row.get("identicalToScalar") is not True:
            fail(f"{proto}: batch engine outcomes are NOT bit-identical "
                 f"to per-run scalar reruns (identicalToScalar="
                 f"{row.get('identicalToScalar')!r})")
        ratios[proto] = aggregate / run_batch
        if aggregate < run_batch * (1.0 - band):
            fail(f"{proto}: engine aggregate {aggregate:.4g}/s is more than "
                 f"{band:.0%} below runBatch's {run_batch:.4g}/s on "
                 f"{engine_threads} threads")

    missing = EXPECTED_PROTOCOLS - seen
    if missing:
        fail(f"missing rows for {sorted(missing)}")

    print(f"check_bench: OK: batch engine bit-identical on {len(rows)} "
          "protocols, engine/runBatch "
          + ", ".join(f"{p}={ratios[p]:.3f}" for p in sorted(ratios))
          + f"; band {band:.0%} enforced on {engine_threads} threads")


MEMORY_ROW_COMPONENTS = (
    "configsBytes", "adjacencyBytes", "dedupBytes", "frontierBytes",
    "codecBytes",
)


MEMORY_STORAGES = ("explicit", "compressed")
# E28 absolute gates on the anchor's compressed row. The ledger is a
# deterministic function of the exploration, so unlike the throughput floors
# these hold on any machine.
ANCHOR_MAX_BYTES_PER_NODE = 150.0
ANCHOR_MIN_COMPRESSION = 2.2


def check_explore_memory(doc, baseline_path):
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        fail("empty or missing rows")

    seen = {}
    totals = {}
    node_counts = {}
    for row in rows:
        proto = row.get("protocol")
        storage = row.get("storage")
        if proto not in EXPECTED_PROTOCOLS:
            fail(f"unknown protocol {proto!r}")
        if storage not in MEMORY_STORAGES:
            fail(f"{proto}: unknown storage {storage!r}")
        label = f"{proto}/{storage}"
        if (proto, storage) in seen:
            fail(f"duplicate row for {label}")
        nodes = row.get("nodes", 0)
        if not isinstance(nodes, int) or nodes < 1:
            fail(f"{label}: missing/invalid nodes: {nodes!r}")
        if proto in node_counts and node_counts[proto] != nodes:
            fail(f"{proto}: node count {nodes} under {storage} differs from "
                 f"{node_counts[proto]} under the other storage — the "
                 f"compressed graph is not equivalent to the explicit one")
        node_counts[proto] = nodes
        component_sum = 0
        for key in MEMORY_ROW_COMPONENTS + ("totalBytes", "highWaterBytes"):
            v = row.get(key)
            if not isinstance(v, int) or v < 0:
                fail(f"{label}: missing/invalid {key}: {v!r}")
            if key in MEMORY_ROW_COMPONENTS:
                component_sum += v
        if component_sum != row["totalBytes"]:
            fail(f"{label}: ledger components sum to {component_sum}, not "
                 f"totalBytes={row['totalBytes']}")
        if row["highWaterBytes"] < row["totalBytes"]:
            fail(f"{label}: highWaterBytes {row['highWaterBytes']} below "
                 f"totalBytes {row['totalBytes']}")
        bpn = row.get("bytesPerNode", 0.0)
        if abs(bpn - row["totalBytes"] / nodes) > 1e-6 * max(bpn, 1.0):
            fail(f"{label}: bytesPerNode {bpn} inconsistent with "
                 f"{row['totalBytes']}/{nodes}")
        seen[(proto, storage)] = bpn
        totals[(proto, storage)] = row["totalBytes"]

    missing = {(p, s) for p in EXPECTED_PROTOCOLS for s in MEMORY_STORAGES} \
        - set(seen)
    if missing:
        fail(f"missing rows for {sorted(f'{p}/{s}' for p, s in missing)}")

    ratios = {}
    for row in rows:
        if row.get("storage") != "compressed":
            continue
        proto = row["protocol"]
        spill = row.get("spillBytes")
        if not isinstance(spill, int) or spill < 0:
            fail(f"{proto}/compressed: missing/invalid spillBytes: {spill!r}")
        ratio = row.get("compressionRatio", 0.0)
        expected = totals[(proto, "explicit")] / totals[(proto, "compressed")]
        if abs(ratio - expected) > 1e-6 * max(ratio, 1.0):
            fail(f"{proto}/compressed: compressionRatio {ratio} inconsistent "
                 f"with explicit/compressed totals {expected:.4f}")
        ratios[proto] = ratio

    probe = doc.get("rssProbe")
    anchor = probe.get("protocol") if isinstance(probe, dict) else None
    if anchor in ratios:
        anchor_bpn = seen[(anchor, "compressed")]
        if anchor_bpn > ANCHOR_MAX_BYTES_PER_NODE:
            fail(f"{anchor}/compressed: anchor bytes/node {anchor_bpn:.1f} "
                 f"exceeds the {ANCHOR_MAX_BYTES_PER_NODE:.0f} ceiling")
        if ratios[anchor] < ANCHOR_MIN_COMPRESSION:
            fail(f"{anchor}/compressed: anchor compression ratio "
                 f"{ratios[anchor]:.2f}x is below the "
                 f"{ANCHOR_MIN_COMPRESSION:.1f}x floor")
    drift_note = "rss drift skipped (sampler unavailable)"
    if isinstance(probe, dict) and probe.get("rssDeltaBytes", 0) > 0:
        delta = probe["rssDeltaBytes"]
        ledger = probe.get("ledgerTotalBytes", 0)
        ratio = probe.get("ledgerVsRssRatio", 0.0)
        if abs(ratio - ledger / delta) > 1e-6 * max(ratio, 1.0):
            fail(f"rssProbe: ledgerVsRssRatio {ratio} inconsistent with "
                 f"{ledger}/{delta}")
        if not 0.5 <= ratio <= 1.5:
            fail(f"rssProbe: ledger/RSS ratio {ratio:.3f} outside [0.5, 1.5] "
                 f"— the byte ledger no longer tracks real memory use")
        drift_note = f"rss drift ratio {ratio:.3f}"

    gate_note = "baseline gate skipped (no baseline)"
    if baseline_path is not None:
        try:
            with open(baseline_path, encoding="utf-8") as f:
                base = json.load(f)
        except (OSError, json.JSONDecodeError):
            base = None
        if base is not None and base.get("kind") == "ppn-explore-memory":
            for brow in base.get("rows", []):
                key = (brow.get("protocol"),
                       brow.get("storage", "explicit"))
                base_bpn = brow.get("bytesPerNode", 0.0)
                if key not in seen or not base_bpn > 0.0:
                    continue
                if seen[key] > base_bpn * 1.10:
                    fail(f"{key[0]}/{key[1]}: bytes/node {seen[key]:.1f} "
                         f"regressed more than 10% over the committed "
                         f"baseline {base_bpn:.1f}")
            gate_note = "baseline gate enforced (10% bytes/node)"

    print(f"check_bench: OK: memory ledger consistent on {len(rows)} "
          "rows, compressed bytes/node "
          + ", ".join(f"{p}={seen[(p, 'compressed')]:.1f}"
                      f" ({ratios[p]:.2f}x)"
                      for p in sorted(EXPECTED_PROTOCOLS))
          + f"; {drift_note}; {gate_note}")


def main(argv):
    if len(argv) < 2:
        fail(f"usage: {argv[0]} BENCH_report.json [min_speedup|band|baseline]")
    path = argv[1]

    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")

    kind = doc.get("kind")
    if kind == "ppn-explore-memory":
        # The optional second argument is a baseline report path here, not a
        # speedup floor — memory reports gate on bytes/node regression.
        check_explore_memory(doc, argv[2] if len(argv) > 2 else None)
        return

    if kind == "ppn-batch-throughput":
        # The optional second argument is the engine-vs-runBatch band here.
        check_batch_throughput(doc, float(argv[2]) if len(argv) > 2
                               else BATCH_BAND)
        return

    min_speedup = float(argv[2]) if len(argv) > 2 else 1.0
    if kind == "ppn-step-throughput":
        check_step_throughput(doc, min_speedup)
    elif kind == "ppn-explore-throughput":
        check_explore_throughput(doc, min_speedup)
    else:
        fail(f"{path}: unknown kind {kind!r}")


if __name__ == "__main__":
    main(sys.argv)
