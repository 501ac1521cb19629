#!/usr/bin/env python3
"""Trivial baselines for the quality metrics, on the benchmark's own inputs.

    python3 perfbench/baselines.py

Run from the root of a checkout. For every workload and seed 1..10 it builds
each trajectory's inputs and reports, as medians over the trajectories:

- mean-image reconstruction accuracy: 1 - MSE of predicting every
  validation (and test) image by the per-pixel mean of the training
  split, the constant predictor a CAE must beat;
- constant reconstruction accuracy: 1 - MSE of predicting 0.5 for
  every validation pixel, what an autoencoder collapsed to a constant
  output scores;
- majority-class test accuracy, next to chance (1/10).
"""

from __future__ import annotations

import statistics
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(Path.cwd() / "src")]

from checks import load_splits  # noqa: E402
from workloads import WORKLOADS, prepare  # noqa: E402


def baselines(workload, seed):
    val_acc, test_acc, const_acc, majority = [], [], [], []
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        for k in range(workload.trajectories):
            directory = Path(tmp) / f"t{k}"
            prepare(workload, seed, k, directory)
            splits = load_splits(workload, directory, k)
            mean = splits["train"][0].mean(axis=0)
            val_acc.append(1.0 - float(np.mean((splits["val"][0] - mean) ** 2)))
            test_acc.append(1.0 - float(np.mean((splits["test"][0] - mean) ** 2)))
            const_acc.append(1.0 - float(np.mean((splits["val"][0] - 0.5) ** 2)))
            common = np.bincount(splits["train"][1]).argmax()
            majority.append(float(np.mean(splits["test"][1] == common)))
    return tuple(statistics.median(v) for v in (val_acc, test_acc, const_acc, majority))


def main():
    print("workload   seed  mean-image val  mean-image test  constant val  majority test  chance")
    for workload in WORKLOADS.values():
        for seed in range(1, 11):
            val, test, const, majority = baselines(workload, seed)
            print(f"{workload.name:10s} {seed:4d}  {val:14.4f}  {test:15.4f}  {const:12.4f}  "
                  f"{majority:13.3f}  0.100")


if __name__ == "__main__":
    main()
