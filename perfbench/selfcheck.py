#!/usr/bin/env python3
"""Steadiness self-check of the benchmark.

    python3 perfbench/selfcheck.py                      # every workload, 10 seeds
    python3 perfbench/selfcheck.py --workloads trace fleet --runs 5 --rounds 2

Runs perfbench/run.py --trace 0 once per seed (seeds 1..N) on each workload
and reports, for every end-to-end metric, the median and quartiles of the N
values and their spread: the distance between the first and the third
quartile as a share of the median (statistics.quantiles(values, n=4)).
A spread above the metric's bound in BENCHMARK.json is flagged, and so is
one above a third of it (the margin the benchmark is tuned to). The default
set covers every workload, so also trace/sim_s_per_s and fleet/setup_s,
the two figures that were hardest to hold steady on a shared host. With
--rounds 2 the whole set runs twice and a second median that is worse than
the first by more than the bound is flagged as well. Every run also passes
the benchmark's own correctness gate and exercise assertions, or it is
reported as failed. Exits non-zero when anything is flagged or failed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if done.returncode != 0 or result is None or not result["correct"]:
        print(f"  {workload} seed {seed}: FAILED (exit {done.returncode})")
        print("\n".join("    " + line for line in (done.stdout + done.stderr).splitlines()[-8:]))
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--runs", type=int, default=10, help="seeds per workload")
    parser.add_argument("--rounds", type=int, default=1, choices=(1, 2))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    flagged = 0
    for workload in args.workloads:
        medians = []
        for round_index in range(args.rounds):
            runs = [run_once(workload, seed, args.seconds) for seed in range(1, args.runs + 1)]
            if any(r is None for r in runs):
                flagged += 1
                continue
            round_medians = {}
            for metric in spec["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                median, q1, q3, spread = summarize([r[name] for r in runs])
                round_medians[name] = median
                mark = ""
                if spread > bound:
                    mark = "  FLAG: spread above bound"
                    flagged += 1
                elif spread > bound / 3:
                    mark = "  flag: spread above a third of the bound"
                    flagged += 1
                print(f"{workload:8} round {round_index + 1} {name:12} median {median:.6g} "
                      f"q1 {q1:.6g} q3 {q3:.6g} spread {100 * spread:.2f}% "
                      f"(bound {100 * bound:.0f}%){mark}", flush=True)
                print(f"{'':8} values {' '.join(f'{r[name]:.6g}' for r in runs)}", flush=True)
            medians.append(round_medians)
        if len(medians) == 2:
            for metric in spec["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                first, second = medians[0][name], medians[1][name]
                worse = (first - second) / first if metric["better"] == "higher" \
                    else (second - first) / first
                mark = "  FLAG: worse by more than the bound" if worse > bound else ""
                flagged += bool(mark)
                print(f"{workload:8} rounds   {name:12} second vs first {100 * -worse:+.2f}% "
                      f"(+ is better){mark}", flush=True)
    print("selfcheck: " + ("FLAGGED" if flagged else "steady"))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
