#!/usr/bin/env python3
"""Steadiness check: two sets of runs of one commit, compared against the bounds.

    python3 perfbench/steadiness.py

Run from the root of a checkout. Each of the two sets runs every
workload of BENCHMARK.json once per seed (1..10, a different seed per
run) with tracing off. For each end-to-end metric it prints, per set,
the median and the spread: the distance between the first and third
quartile of the ten values as a share of their median. It fails when a
spread exceeds the metric's bound in BENCHMARK.json, when the second
set's median differs from the first set's, in either direction, by more
than the bound, when the share of failed operations differs between
sets, when a run reports incorrect outputs, or when one seed's history
hashes differ between sets.
Raw outputs go to .bench_work/steadiness/.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

SEEDS = range(1, 11)
SETS = 2


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_set(bench, workload, seeds, out_dir):
    results = []
    for seed in seeds:
        cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        (out_dir / f"{workload}-seed{seed}.txt").write_text(proc.stdout + proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} seed {seed} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["hashes"] = re.findall(r"history sha256 ([0-9a-f]{64})", proc.stdout)
        results.append(result)
    return results


def main():
    bench = json.loads(Path("BENCHMARK.json").read_text())
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for s in range(SETS):
            out_dir = Path(".bench_work") / "steadiness" / f"set{s}"
            out_dir.mkdir(parents=True, exist_ok=True)
            sets.append(run_set(bench, workload, SEEDS, out_dir))
        for s, results in enumerate(sets):
            if not all(r["correct"] for r in results):
                failures.append(f"{workload} set {s}: a run reported incorrect outputs")
        shares = {sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in sets}
        if len(shares) > 1:
            failures.append(f"{workload}: failed share differs between sets: {sorted(shares)}")
        if any(r["hashes"] != sets[0][i]["hashes"] for rs in sets for i, r in enumerate(rs)):
            failures.append(f"{workload}: history hashes differ between sets of the same seeds")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in rs] for rs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            row = "  ".join(f"set{s} median {m:.5g} spread {sp:.3f}"
                            for s, (m, sp) in enumerate(zip(medians, spreads)))
            print(f"{workload:10s} {name:17s} bound {bound:.3f}  {row}")
            if max(spreads) > bound:
                failures.append(f"{workload} {name}: spread {max(spreads):.3f} > bound {bound}")
            for m in medians[1:]:
                moved = abs(m - medians[0]) / medians[0]
                if moved > bound:
                    failures.append(f"{workload} {name}: median moved by {moved:.3f} > bound {bound}")
    for f in failures:
        print(f"FAIL: {f}")
    print("steady" if not failures else f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
