"""Tournament comparison: scalar fitness for classifiers, Pareto front
rank plus same-front isolation for autoencoders."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class FitnessRecord:
    """Exactly one of scalar (classifier accuracy) or pair
    (compression, reconstruction accuracy) is set."""

    scalar: float | None = None
    pair: tuple | None = None

    def __post_init__(self):
        if (self.scalar is None) == (self.pair is None):
            raise ValueError("exactly one of scalar/pair must be set")


def dominates(a, b) -> bool:
    """a >= b in both objectives and > in at least one."""
    return a[0] >= b[0] and a[1] >= b[1] and (a[0] > b[0] or a[1] > b[1])


def pareto_fronts(pairs):
    """Non-dominated sorting; front 0 is the non-dominated set.

    Returns a list of index lists partitioning range(len(pairs)).
    """
    if not pairs:
        raise ValueError("pairs must be non-empty")
    n = len(pairs)
    dominated_by = [[] for _ in range(n)]  # i dominates these
    count = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if dominates(pairs[i], pairs[j]):
                dominated_by[i].append(j)
                count[j] += 1
            elif dominates(pairs[j], pairs[i]):
                dominated_by[j].append(i)
                count[i] += 1
    fronts = []
    current = [i for i in range(n) if count[i] == 0]
    while current:
        fronts.append(current)
        nxt = []
        for i in current:
            for j in dominated_by[i]:
                count[j] -= 1
                if count[j] == 0:
                    nxt.append(j)
        current = sorted(nxt)
    return fronts


def isolation(ind, front, mode="mean"):
    """Distance of `ind` to the rest of its front in raw objective space.

    mode "mean" averages Euclidean distances; "nearest" takes the
    minimum. Singleton fronts are infinitely isolated.
    """
    if ind not in front:
        raise ValueError("ind must be a member of front")
    others = list(front)
    others.remove(ind)  # one occurrence only; value-equal peers still count
    if not others:
        return math.inf
    dists = [math.dist(ind, p) for p in others]
    if mode == "nearest":
        return min(dists)
    return sum(dists) / len(dists)


def tournament_compare(id_a, id_b, records, rng, isolation_mode="mean"):
    """Pick winner and loser of a k=2 tournament.

    `records` maps id -> FitnessRecord for the population snapshot
    (must contain both contestants). Returns (winner, loser, reason)
    with reason in {scalar, front, isolation, coin}.
    """
    if id_a == id_b:
        raise ValueError("contestants must differ")
    rec_a, rec_b = records[id_a], records[id_b]

    def coin():
        return (id_a, id_b, "coin") if rng.integers(2) else (id_b, id_a, "coin")

    if rec_a.scalar is not None:
        if rec_a.scalar == rec_b.scalar:
            return coin()
        if rec_a.scalar > rec_b.scalar:
            return id_a, id_b, "scalar"
        return id_b, id_a, "scalar"

    ids = sorted(records)
    pairs = [records[i].pair for i in ids]
    fronts = pareto_fronts(pairs)
    rank = {}
    front_of = {}
    for r, front in enumerate(fronts):
        for i in front:
            rank[ids[i]] = r
            front_of[ids[i]] = [pairs[j] for j in front]
    if rank[id_a] != rank[id_b]:
        winner = id_a if rank[id_a] < rank[id_b] else id_b
        loser = id_b if winner == id_a else id_a
        return winner, loser, "front"
    iso_a = isolation(rec_a.pair, front_of[id_a], isolation_mode)
    iso_b = isolation(rec_b.pair, front_of[id_b], isolation_mode)
    if iso_a == iso_b:
        return coin()
    winner = id_a if iso_a > iso_b else id_b
    loser = id_b if winner == id_a else id_a
    return winner, loser, "isolation"
