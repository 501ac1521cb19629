#!/usr/bin/env python3
"""Benchmark of the evocnn two-step evolver: one command per workload.

    python3 perfbench/run.py --workload cae_conv --seed 1 --seconds 45 --trace 0

Run from the root of a checkout. A run executes the workload's whole
fixed set of trajectories, each a fresh process, with inputs drawn from
--seed, so every run of a workload does the same work. The set is sized
to take about two thirds of --seconds on the reference machine; a run
that cannot finish it within RUN_LIMIT_S fails without a result. Every
trajectory's
outputs are checked against independent computations. The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1). See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, prepare  # noqa: E402

TRAJECTORY_TIMEOUT_S = 150
RUN_LIMIT_S = 170


def percentile(values, pct):
    """Linear-interpolated percentile of `values` (numpy's default rule)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_trajectory(workload, k, tdir, root, traced, deadline):
    out = tdir / ("out_traced" if traced else "out")
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(HERE)]))
    cmd = [sys.executable, str(HERE / "trajectory.py"), "--workload", workload.name,
           "--index", str(k), "--inputs", str(tdir / "inputs"), "--out", str(out)]
    if traced:
        cmd.append("--trace")
    timeout = min(TRAJECTORY_TIMEOUT_S, max(deadline - time.monotonic(), 1.0))
    proc = subprocess.run(cmd, env=env, cwd=root, timeout=timeout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"trajectory {k} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads((out / "record.json").read_text())


def end_to_end(workload, records, facts):
    """Round times and training work pooled over the run's trajectories;
    set-up, memory and quality as medians over them. See README.md."""
    seconds = [r[1] for rec in records for r in rec["rounds"]]
    completed = sum(r[2] for rec in records for r in rec["rounds"])
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in records), "s"),
        "wall_s": (sum(r["wall_s"] for r in records), "s"),
        "rounds_per_s": (completed / sum(seconds), "1/s"),
        "round_p50_ms": (1000.0 * statistics.median(seconds), "ms"),
        "round_tail_ms": (1000.0 * percentile(seconds, workload.tail_pct), "ms"),
        "train_gmac_per_s": (
            sum(f["train_macs"] for f in facts) / sum(f["train_seconds"] for f in facts) / 1e9,
            "GMAC/s",
        ),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in records), "MB"),
        "best_recon_acc": (statistics.median(r["best_recon_acc"] for r in records), "fraction"),
        "test_accuracy": (statistics.median(r["test_accuracy"] for r in records), "fraction"),
    }


def per_layer(records, untraced_walls):
    """Per-trajectory means of the traced layer metrics, plus the tracing overhead."""
    from tracing import COUNT_METRICS, SPAN_METRICS

    names = [*SPAN_METRICS.values(), *COUNT_METRICS]
    n = len(records)
    out = {}
    for name in names:
        value = sum(r["layers"][name] for r in records) / n
        unit = "s" if name.endswith("_s") else ("bytes" if name.endswith("_bytes") else "count")
        out[name] = (value, unit)
    overhead = statistics.median(
        r["wall_s"] / w - 1.0 for r, w in zip(records, untraced_walls)
    )
    out["trace.overhead_pct"] = (100.0 * overhead, "%")
    return out


def main():
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "evocnn" / "__init__.py").is_file():
        print(f"error: {root} holds no src/evocnn; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from checks import check_trajectory

    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S
    work = root / ".bench_work" / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    traces = root / ".bench_work" / "traces"
    records, facts, problems, untraced_walls = [], [], [], []
    attempted = failed = 0
    try:
        for k in range(workload.trajectories):
            tdir = work / f"t{k}"
            prepare(workload, args.seed, k, tdir / "inputs")
            record = run_trajectory(workload, k, tdir, root, False, deadline)
            # a traced run runs each trajectory twice: untraced for the overhead, then traced
            if args.trace:
                untraced_walls.append(record["wall_s"])
                record = run_trajectory(workload, k, tdir, root, True, deadline)
                traces.mkdir(parents=True, exist_ok=True)
                shutil.copy(tdir / "out_traced" / "spans.jsonl",
                            traces / f"{workload.name}-seed{args.seed}-t{k}.jsonl")
            out = tdir / ("out_traced" if args.trace else "out")
            found, fact = check_trajectory(workload, tdir / "inputs", out, record)
            problems += [f"trajectory {k}: {p}" for p in found]
            records.append(record)
            facts.append(fact)
            attempted += workload.seeds_per_trajectory + len(record["rounds"])
            failed += sum(not r[2] for r in record["rounds"])
            shutil.rmtree(tdir)
            print(f"trajectory {k}: wall {record['wall_s']:.3f}s setup {record['setup_s']:.3f}s "
                  f"peak rss {record['peak_rss_mb']:.1f}MB rounds {len(record['rounds'])} history sha256 {fact['history_sha256']}",
                  flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in problems:
        print(f"CHECK FAILED: {p}", flush=True)
    metrics = per_layer(records, untraced_walls) if args.trace else end_to_end(workload, records, facts)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
