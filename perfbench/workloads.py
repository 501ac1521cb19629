"""Workload definitions and input preparation.

A run of a workload is a sequence of trajectories. Trajectory k is one
seeded, single-worker evolution (two of them, for `two_step`) run in a
fresh process, with `master_seed = k` and its own inputs drawn from
(workload seed, k). Every trajectory of a workload does the same kind
and number of operations; which architectures evolve, and so how long
each round takes, depends on the trajectory's inputs and seed. A run
pools many trajectories so that its medians and totals average over
that spread.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import inputs


@dataclass(frozen=True)
class Step:
    """One evolution step's settings; a workload's first step evolves
    autoencoders, its second, when present, classifiers."""

    seeds: int           # seeds_per_worker
    rounds: int          # round_budget
    epochs: int
    batch_size: int
    learning_rate: float = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    source: str          # "cifar10" or "evod": the program input format handed over
    samples: int         # images generated per trajectory (all splits)
    side: int            # image side length; CIFAR-10 batches are always 32
    steps: tuple
    trajectories: int    # trajectories per run, k = 0 .. trajectories-1
    # train : val : test shares of the EVOD caches; 45:5:10 is the program's CIFAR split
    evod_split: tuple = (45, 5, 10)

    @property
    def seeds_per_trajectory(self):
        return sum(s.seeds for s in self.steps)

    @property
    def tail_pct(self):
        """Highest whole percentile with at least ten of a run's rounds beyond it."""
        rounds = self.trajectories * sum(s.rounds for s in self.steps)
        return math.floor(100 * (1 - 10 / rounds))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cae_conv",
            why="step 1 alone on CIFAR-shaped 32x32x3 images: the conv, pool and "
                "upsample layers do nearly all the work",
            source="cifar10",
            samples=120,
            side=32,
            steps=(Step(seeds=2, rounds=4, epochs=1, batch_size=30),),
            trajectories=20,
        ),
        Workload(
            name="two_step",
            why="all four steps: short CAE step, TOPSIS pick and EVOD encode, long "
                "classifier step on encoded data, composition and test accuracy",
            source="evod",
            samples=480,
            side=8,
            steps=(
                Step(seeds=2, rounds=1, epochs=4, batch_size=15, learning_rate=1.0),
                Step(seeds=8, rounds=4, epochs=5, batch_size=30, learning_rate=0.1),
            ),
            trajectories=16,
        ),
        Workload(
            name="pop_scale",
            why="step 1 with a large seeded population, tiny images and one epoch: "
                "selection and the population store bound each round",
            source="evod",
            samples=60,
            side=8,
            steps=(Step(seeds=200, rounds=125, epochs=1, batch_size=15),),
            trajectories=6,
            # one training batch of 15 images, 30 validation images
            evod_split=(1, 2, 1),
        ),
    )
}


def prepare(workload: Workload, seed: int, k: int, directory):
    """Write trajectory k's inputs under `directory` in the workload's format."""
    directory.mkdir(parents=True, exist_ok=True)
    pixels, labels = inputs.make_images(
        inputs.sub_seed(seed, k), workload.samples, workload.side
    )
    if workload.source == "cifar10":
        inputs.write_cifar_batch(directory / "data_batch_1.bin", pixels, labels)
        return
    # evod caches hold the splits themselves: cut the shuffled samples by evod_split
    x = pixels.astype("<f4") / 255.0
    start = 0
    shares = workload.evod_split
    for tag, upto in zip(("train", "val", "test"), itertools.accumulate(shares)):
        end = upto * workload.samples // sum(shares)
        inputs.write_evod(directory / f"{tag}.evod", x[start:end], labels[start:end])
        start = end
