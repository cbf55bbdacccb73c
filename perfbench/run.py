#!/usr/bin/env python3
"""Benchmark of the vdc-power simulator; see perfbench/README.md.

    python3 perfbench/run.py --workload testbed --seed 1 --seconds 30 --trace 0

Builds perfbench/ (which compiles the simulator library from ../src) into
.bench_build, or $CARGO_TARGET_DIR when set, then runs repetitions of one
workload, each in a process of its own, until --seconds of host time are
used. With --trace 0 it reports the end-to-end metrics from plain
repetitions, host timings rescaled by the reference kernel's passes; with
--trace 1 it alternates plain and traced repetitions and
reports the per-layer metrics. Every repetition's simulated outputs must be
bit-identical to the first one's; a mismatch, a failed output check, a crash
or a non-zero exit fails that repetition. The last line printed is one JSON
object with the keys correct, attempted, failed and metrics; the exit code
is 0 only when no repetition failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TARGET = "vdc_perfbench"

MIN_REPS = 3             # plain repetitions, at least
MIN_TRACED_REPS = 2      # traced repetitions, at least (--trace 1)
DEADLINE_S = 150.0       # start no repetition after this much wall time
REP_TIMEOUT_S = 120.0
BUILD_TIMEOUT_S = 840.0
# End-to-end host timings are rescaled to the core speed at which one pass
# of the reference kernel (reference.cpp) takes this long; see README.md.
REFERENCE_S = 0.08

END_TO_END = {
    "sim_s_per_s": "s/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "energy_kj": "kJ",
}

# Spans pooled over the traced repetitions: median, tail (".tail") and
# sample count (".n").
SPANS = {
    "sim.advance_ms": "ms",
    "core.control_tick_ms": "ms",
    "core.optimizer_tick_ms": "ms",
    "control.mpc_step_us": "us",
    "datacenter.arbitrate_us": "us",
    "consolidate.plan_ms": "ms",
    "telemetry.append_ns": "ns",
    "trace.sample_us": "us",
}
# Set-up phases: median over every set-up of the traced repetitions.
SETUP_SPANS = {
    "core.identify_s": "s",
    "core.construct_s": "s",
    "trace.generate_s": "s",
}
# Per-repetition values: median over the traced repetitions.
VALUES = {
    "sim.advance_s": "s",
    "sim.advance_pct": "%",
    "sim.events_per_s": "1/s",
    "app.resident_jobs_mean": "count",
    "core.control_tick_s": "s",
    "core.control_tick_pct": "%",
    "core.optimizer_tick_s": "s",
    "core.optimizer_tick_pct": "%",
    "core.unattributed_pct": "%",
    "control.solves": "count",
    "control.qp_iterations": "count",
    "control.qp_unconverged": "count",
    "datacenter.active_servers_mean": "count",
    "consolidate.plan_pct": "%",
    "consolidate.unplaced": "count",
    "consolidate.vms_planned": "count",
    "telemetry.series": "count",
    "trace.sample_pct": "%",
}
# Simulated outputs, identical in every repetition.
OUTPUTS = {
    "sim.events": ("events", "count"),
    "sim.barriers": ("barriers", "count"),
    "app.requests": ("requests", "count"),
    "app.resident_jobs_max": ("resident_jobs_max", "count"),
    "control.p90_err_pct": ("p90_err_pct", "%"),
    "datacenter.overload_pct": ("overload_pct", "%"),
    "consolidate.plans": ("plans", "count"),
    "consolidate.migrations": ("migrations", "count"),
}
OVERHEAD = ("bench.tracing_overhead_pct", "%")
HOST_SPEED = ("bench.host_speed", "ratio")


def per_layer_units():
    units = {}
    for name, unit in SPANS.items():
        units[name] = unit
        units[name + ".tail"] = unit
        units[name + ".n"] = "count"
    units.update(SETUP_SPANS)
    units.update(VALUES)
    units.update({name: unit for name, (_, unit) in OUTPUTS.items()})
    units[OVERHEAD[0]] = OVERHEAD[1]
    units[HOST_SPEED[0]] = HOST_SPEED[1]
    return units


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "perfbench-build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(build_dir), "--target", TARGET, "-j", jobs]]
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if done.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(step)}")
    binary = build_dir / TARGET
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def run_rep(binary, workload, seed, traced):
    """One repetition in its own process; returns (record, error)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return None, "timed out"
    if done.returncode != 0:
        return None, f"exit code {done.returncode}: {done.stderr.strip()[-400:]}"
    try:
        return json.loads(done.stdout.strip().splitlines()[-1]), None
    except (json.JSONDecodeError, IndexError):
        return None, "no result line"


def tail(samples):
    """The highest percentile with at least ten samples beyond it, or the
    median when no percentile above the median has ten beyond it."""
    ordered = sorted(samples)
    return ordered[-11] if len(ordered) >= 21 else statistics.median(ordered)


def host_speed(records):
    """How fast the core ran, relative to the nominal speed: REFERENCE_S
    over the median reference pass of `records`."""
    return REFERENCE_S / statistics.median(t for r in records for t in r["reference_s"])


def end_to_end(plain):
    speed = host_speed(plain)
    return {
        "sim_s_per_s": statistics.median(r["sim_seconds"] / r["run_s"] for r in plain) / speed,
        "setup_s": statistics.median(r["setup_s"] for r in plain) * speed,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "energy_kj": plain[0]["outputs"]["energy_kj"],
    }


def per_layer(plain, traced):
    values = {}
    for name in SPANS:
        pooled = [x for r in traced for x in r["spans"].get(name, [])]
        values[name] = statistics.median(pooled) if pooled else 0.0
        values[name + ".tail"] = tail(pooled) if pooled else 0.0
        values[name + ".n"] = len(pooled)
    for name in SETUP_SPANS:
        pooled = [x for r in traced for x in r["spans"].get(name, [])]
        values[name] = statistics.median(pooled) if pooled else 0.0
    for name in VALUES:
        values[name] = statistics.median(r["values"].get(name, 0.0) for r in traced)
    for name, (key, _) in OUTPUTS.items():
        values[name] = traced[0]["outputs"][key]
    traced_work = statistics.median(r["run_s"] - r["replay_s"] for r in traced)
    untraced = statistics.median(r["run_s"] for r in plain)
    values[OVERHEAD[0]] = 100.0 * (traced_work / untraced - 1.0)
    values[HOST_SPEED[0]] = host_speed(plain + traced)
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    info = subprocess.run([str(binary), "--info"], capture_output=True, text=True,
                          check=True, timeout=60)
    info = json.loads(info.stdout)
    if args.workload not in info["workloads"]:
        fail(f"unknown workload {args.workload!r} (known: {', '.join(info['workloads'])})")
    header = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "hardware_concurrency": info["hardware_concurrency"],
        "threads": info["threads"],
        "build_type": info["build_type"],
        "vdc_checks": info["vdc_checks"],
    }
    print("# perfbench " + json.dumps(header), flush=True)

    start = time.monotonic()
    reference = None
    plain, traced = [], []
    attempted = failed = 0
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        want_traced = args.trace == 1 and len(traced) <= len(plain) - 1
        enough = len(plain) >= MIN_REPS and (args.trace == 0 or len(traced) >= MIN_TRACED_REPS)
        if elapsed > DEADLINE_S or (enough and elapsed + longest > args.seconds):
            break
        if attempted >= MIN_REPS + MIN_TRACED_REPS and not plain + traced:
            break  # nothing ever succeeds; stop early
        rep_start = time.monotonic()
        record, error = run_rep(binary, args.workload, args.seed, want_traced)
        longest = max(longest, time.monotonic() - rep_start)
        attempted += 1
        if record is not None and record["errors"]:
            error = "; ".join(record["errors"])
        elif record is not None:
            if reference is None:
                reference = record["outputs"]
            elif record["outputs"] != reference:
                error = f"simulated outputs differ from the first repetition: {record['outputs']}"
        kind = "traced" if want_traced else "plain"
        if error is not None:
            failed += 1
            print(f"# rep {attempted} {kind} FAILED: {error}", flush=True)
            continue
        (traced if want_traced else plain).append(record)
        print(f"# rep {attempted} {kind} setup_s={record['setup_s']:.4f} "
              f"run_s={record['run_s']:.4f} reference_s={record['reference_s']} "
              f"outputs={json.dumps(record['outputs'])}", flush=True)

    metrics = {}
    if plain and (args.trace == 0 or traced):
        if args.trace == 0:
            values, units = end_to_end(plain), END_TO_END
        else:
            values, units = per_layer(plain, traced), per_layer_units()
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    else:
        failed = max(failed, 1)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
