#!/usr/bin/env python3
"""Checks that sitebench's end-to-end metrics are steady enough for their bounds.

Usage, from the repository root:

    python3 sitebench/steadiness.py [--runs 10] [--workloads manage,transfer]
        [--seconds S] [--seed-base 1000]

Runs every workload in two sets of --runs runs each, alternating the
sets run by run (run i of set 1, then run i of set 2, each with the
seed of run i), so a slow phase of the host lands on both sets. For each
end-to-end metric it prints each set's median and quartiles, the spread
(third minus first quartile, as a share of the median) and the
set-to-set gap (set 2's median minus set 1's, as a share of set 1's,
signed so that positive is worse), against the metric's bound from
BENCHMARK.json. The two sets run the same code, so a gap of either sign
beyond the bound fails. A spread below a third of the bound is
"steady". setup_s is held only to the gap: set-up runs on one thread,
so its spread reports which vCPU it landed on.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, seconds):
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed ops")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--seed-base", type=int, default=1000)
    args = parser.parse_args()

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        sets = ([], [])
        for i in range(args.runs):
            for s in (0, 1):
                sets[s].append(run_once(spec, workload, args.seed_base + i,
                                        args.seconds))
                print(f"# {workload} set {s + 1} run {i + 1}: " +
                      " ".join(f"{k}={v:.4g}" for k, v in sets[s][-1].items()),
                      flush=True)
        print(f"\n{workload} ({args.runs} runs per set, {args.seconds} s each)")
        print(f"{'metric':<16}{'set1 median [q1, q3]':>33}{'spread':>8}"
              f"{'set2 median [q1, q3]':>33}{'spread':>8}{'gap':>8}"
              f"{'bound':>7}  verdict")
        for name, metric in bounds.items():
            rows = []
            for s in (0, 1):
                median, q1, q3 = summarize([r[name] for r in sets[s]])
                rows.append((median, q1, q3, (q3 - q1) / median))
            worse = rows[1][0] - rows[0][0]
            if metric["better"] == "higher":
                worse = -worse
            gap = worse / rows[0][0]
            bound = metric["bound"]
            spread = max(rows[0][3], rows[1][3])
            verdicts = []
            if abs(gap) > bound:
                verdicts.append("GAP-OVER-BOUND")
            if name != "setup_s":
                if spread > bound:
                    verdicts.append("SPREAD-OVER-BOUND")
                elif spread > bound / 3:
                    verdicts.append("within-bound")
            verdict = " ".join(verdicts) or "steady"
            ok = ok and "OVER" not in verdict
            cells = "".join(
                f"{r[0]:>12.4g} [{r[1]:>8.4g}, {r[2]:>8.4g}]{r[3]:>8.3f}"
                for r in rows)
            print(f"{name:<16}{cells}{gap:>8.3f}{bound:>7.2f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
