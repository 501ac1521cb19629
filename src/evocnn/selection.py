"""Tournament comparison: scalar fitness for classifiers, Pareto front
rank plus same-front isolation for autoencoders."""

from __future__ import annotations

import math
from bisect import bisect_right
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
    """Non-dominated sorting of two-objective pairs (both maximised);
    front 0 is the non-dominated set, front k+1 what front k dominates.

    Returns a list of index lists partitioning range(len(pairs)), each
    front in ascending index order: `tournament_compare` hands fronts to
    `isolation`, whose distance sum follows that order, so seeded
    histories depend on it.

    One sweep in O(N log N) (Jensen, IEEE TEC 7(5), 2003): visit the
    distinct pairs in descending order. Every pair visited earlier is at
    least as large in the first objective, so it dominates the current
    pair exactly when its second objective is at least as large. Within
    a front the second objective therefore rises along the sweep, and
    the fronts' highest second objectives so far fall with the front
    number. The pair joins the first front whose highest is below its
    own, found by bisection; identical pairs share a front.
    """
    if not pairs:
        raise ValueError("pairs must be non-empty")
    order = sorted(range(len(pairs)), key=pairs.__getitem__, reverse=True)
    fronts = []
    neg_top = []  # -(highest second objective) of each front, ascending
    previous = None
    for i in order:
        pair = pairs[i]
        if pair != previous:
            rank = bisect_right(neg_top, -pair[1])
            if rank == len(fronts):
                fronts.append([])
                neg_top.append(-pair[1])
            else:
                neg_top[rank] = -pair[1]
            previous = pair
        fronts[rank].append(i)
    for front in fronts:
        front.sort()
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
        members = [pairs[j] for j in front]
        for i in front:
            rank[ids[i]] = r
            front_of[ids[i]] = members
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
