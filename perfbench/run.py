#!/usr/bin/env python3
"""Repository benchmark: three closed-loop Ziziphus workloads.

    python3 perfbench/run.py --workload paper-mix --seed 7 --seconds 35 --trace 0

Run from the repository root. Builds perfbench_driver from source (cmake,
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), then
repeats single-rep driver processes for --seconds of wall time:

  --trace 0  untraced reps; prints the end-to-end metrics: medians of the
             host figures (ops/s, set-up time, peak RSS) and the simulated
             figures (ktps, p50/p99), which must repeat exactly.
  --trace 1  alternating untraced and step-timed reps, then one causal-trace
             rep; prints the per-layer metrics.

Every rep runs the invariant sweep; a violation, a rejected read, a failed
layer probe, an unmapped message type, a dropped trace span or any
difference between reps of one seed makes the run incorrect. The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Default and held-out seed of every workload, and why it is in the set.
WORKLOADS = {
    "paper-mix": {
        "seeds": (7, 1009),
        "why": "paper headline mix: 5 zones, 200 clients/zone, 10% global; "
               "zone PBFT and global sync both carry host time",
    },
    "global-heavy": {
        "seeds": (11, 2027),
        "why": "3 zones, 60% global, one crashed backup per zone: data sync, "
               "endorsement and migration dominate",
    },
    "read-heavy": {
        "seeds": (13, 4099),
        "why": "3 zones, 90% verified fast-path reads beside 5% local and 5% "
               "global writes: checkpointing and read serving",
    },
}

END_TO_END = {
    "host_ops_per_s": "ops/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_tput_ktps": "ktps",
    "sim_p50_ms": "ms",
    "sim_p99_ms": "ms",
    "sim_global_p50_ms": "ms",
    "sim_global_p99_ms": "ms",
}

LAYERS = ["pbft", "pbft.commit", "checkpoint", "endorse", "sync",
          "sync.global-commit", "mig", "read", "client", "timer", "drop"]
PHASES = ["pbft.request", "pbft.pre-prepare", "pbft.prepare", "pbft.commit",
          "read.request", "sync.migration-request", "endorse.pre-prepare",
          "endorse.prepare", "endorse.vote", "sync.accept", "sync.accepted",
          "sync.global-commit", "mig.state-transfer", "client", "other"]

# Per-layer metric -> (unit, source). "steps": median over step-timed reps;
# "plain": median over untraced reps; "det": seed-determined window figure
# of the untraced reps; "crit": seed-determined figure of the traced rep.
PER_LAYER = {}
for _l in LAYERS:
    PER_LAYER[f"host.{_l}.ns_per_op"] = ("ns", "steps")
    PER_LAYER[f"alloc.{_l}.per_op"] = ("count", "steps")
PER_LAYER.update({
    "trace_overhead": ("ratio", "overhead"),
    "allocs_per_op": ("count", "plain"),
    "probe.queue.ns_per_event": ("ns", "steps"),
    "probe.kv.get_ns": ("ns", "steps"),
    "probe.kv.snapshot_us": ("us", "steps"),
    "probe.merkle.build_us": ("us", "steps"),
    "probe.merkle.prove_verify_ns": ("ns", "steps"),
    "failed_frac": ("ratio", "det"),
    "sim_ops": ("count", "det"),
    "sim_global_ops": ("count", "det"),
    "events_per_op": ("count", "det"),
    "net.msgs_per_op": ("count", "det"),
    "net.bytes_per_op": ("bytes", "det"),
    "pbft.ops_per_batch": ("count", "det"),
    "pbft.checkpoints": ("count", "det"),
    "lazy.checkpoints_installed": ("count", "det"),
    "reads.fast_frac": ("ratio", "det"),
    "reads.redirect_frac": ("ratio", "det"),
    "endorse.rejected": ("count", "det"),
    "mig.state_mismatch_rejected": ("count", "det"),
    "pbft.view_changes": ("count", "det"),
    "sync.retries": ("count", "det"),
    "sync.response_queries": ("count", "det"),
    "mem.pbft.retained_kb": ("KiB", "det"),
    "mem.sync.retained_kb": ("KiB", "det"),
    "mem.metadata.executed": ("count", "det"),
    "crit.total_ms": ("ms", "crit"),
    "crit.wan_ms": ("ms", "crit"),
    "crit.lan_ms": ("ms", "crit"),
    "crit.queue_ms": ("ms", "crit"),
    "crit.crypto_ms": ("ms", "crit"),
})
for _p in PHASES:
    PER_LAYER[f"crit.phase.{_p}_ms"] = ("ms", "crit")
PER_LAYER.update({
    "crit.traces": ("count", "crit"),
    "crit.sample_every": ("count", "crit"),
    "obs.spans_dropped": ("count", "crit"),
})

# The causal tracer's arena holds 2^20 spans and stops admitting traces
# when full; traces in flight then lose spans. Sampling aims at half of it.
SPAN_BUDGET = 1 << 19
# Starting guess of spans per traced op; a rep that drops spans is rerun
# with the stride recomputed from the spans per trace it measured.
SPANS_PER_TRACE_GUESS = {"paper-mix": 256, "global-heavy": 640,
                         "read-heavy": 64}
REP_TIMEOUT_S = 150


class BenchError(Exception):
    """A run whose outputs are wrong: it still prints a result."""


class BuildError(Exception):
    """The program could not be built: no result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "core" / "system.h").is_file():
        raise BuildError(f"program sources not found under {ROOT / 'src'}")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    out = target / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=850)
        if r.returncode != 0:
            raise BuildError(f"build step failed: {' '.join(cmd)}")
    exe = out / "perfbench_driver"
    if not exe.is_file():
        raise BuildError("build produced no perfbench_driver")
    return exe


def rep(exe, workload, seed, mode, sample_every=1):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--sample-every", str(sample_every)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} rep ran past {REP_TIMEOUT_S} s") from None
    lines = r.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} rep printed nothing (exit {r.returncode})")
    out = json.loads(lines[-1])
    if r.returncode != 0 or not out["ok"]:
        raise BenchError(f"{mode} rep failed: {out['error']}")
    return out


def check_same(reps, keys=None):
    """Seed-determined figures must repeat exactly across reps."""
    first = reps[0]["det"]
    for other in reps[1:]:
        for k in keys if keys is not None else first.keys() | other["det"].keys():
            if first.get(k) != other["det"].get(k):
                raise BenchError(f"determinism: {k} differs between reps of "
                                 f"one seed ({first.get(k)} vs {other['det'].get(k)})")


def crit_rep(exe, workload, seed, ops):
    spans_per_trace = SPANS_PER_TRACE_GUESS[workload]
    for _ in range(4):
        stride = max(1, math.ceil(ops * spans_per_trace / SPAN_BUDGET))
        out = rep(exe, workload, seed, "crit", stride)
        det = out["det"]
        if det["obs.spans_dropped"] == 0:
            return out
        spans_per_trace = math.ceil(
            1.25 * det["obs.spans_opened"] / max(1.0, det["obs.traces_started"]))
        log(f"crit rep at stride {stride} dropped {det['obs.spans_dropped']:.0f}"
            f" spans; retrying at {spans_per_trace} spans per trace")
    raise BenchError("causal trace still drops spans; crit.* would be partial")


def run(args):
    exe = build()
    seed, seconds = args.seed, args.seconds
    plain, steps = [], []
    start = time.monotonic()
    if args.trace == 0:
        while len(plain) < 3 or time.monotonic() - start < seconds:
            plain.append(rep(exe, args.workload, seed, "plain"))
    else:
        while len(plain) < 2 or time.monotonic() - start < seconds:
            plain.append(rep(exe, args.workload, seed, "plain"))
            steps.append(rep(exe, args.workload, seed, "layers"))
    check_same(plain)
    det = plain[0]["det"]
    windows = len(plain)

    if args.trace == 0:
        metrics = {}
        for name, unit in END_TO_END.items():
            if name in ("host_ops_per_s", "setup_s", "peak_rss_mb"):
                value = statistics.median([r["host"][name] for r in plain])
            else:
                value = det[name]
            metrics[name] = {"value": value, "unit": unit}
    else:
        # Stepping must dispatch exactly the untraced window.
        check_same(plain[:1] + steps)
        crit = crit_rep(exe, args.workload, seed, det["attempted"])
        check_same([plain[0], crit], keys=[k for k in det if k != "invariants.witnesses"])
        windows += len(steps) + 1
        overhead = (statistics.median([r["host"]["window_s"] for r in steps]) /
                    statistics.median([r["host"]["window_s"] for r in plain]))
        metrics = {}
        for name, (unit, source) in PER_LAYER.items():
            if source == "steps":
                value = statistics.median([r["host"][name] for r in steps])
            elif source == "plain":
                value = statistics.median([r["host"][name] for r in plain])
            elif source == "overhead":
                value = overhead
            elif source == "det":
                value = det[name]
            else:
                value = crit["det"][name]
            metrics[name] = {"value": value, "unit": unit}

    attempted = int(det["attempted"]) * windows
    failed = int(det["failed"]) * windows
    log(f"{args.workload} seed {seed}: {windows} windows, {det['sim_ops']:.0f} "
        f"ops each, failed_frac {det['failed_frac']}, anomalies: "
        f"endorse.rejected {det['endorse.rejected']:.0f}, "
        f"mig.state_mismatch_rejected {det['mig.state_mismatch_rejected']:.0f}, "
        f"pbft.view_changes {det['pbft.view_changes']:.0f}, "
        f"sync.retries {det['sync.retries']:.0f}")
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the workload's default seed)")
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed is None:
        args.seed = WORKLOADS[args.workload]["seeds"][0]
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    try:
        result = run(args)
    except (BuildError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        return 2
    except BenchError as e:
        log(f"perfbench: {e}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
