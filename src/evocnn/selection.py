"""Tournament comparison by Pareto front rank plus same-front isolation,
for classifiers (one objective) and autoencoders (two) alike."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass


@dataclass(frozen=True)
class FitnessRecord:
    """Maximised objectives: (validation accuracy,) for a classifier,
    (compression, reconstruction accuracy) for an autoencoder."""

    values: tuple

    def __post_init__(self):
        if len(self.values) not in (1, 2):
            raise ValueError(f"a record holds one or two objectives, got {self.values!r}")

    @property
    def pair(self):
        """An autoencoder's (compression, reconstruction accuracy)."""
        return self.values


def pareto_fronts(points):
    """Non-dominated sorting of points of one or two maximised objectives;
    front 0 is the non-dominated set, front k+1 what front k dominates.
    With one objective, equal values share a front.

    Returns a list of index lists partitioning range(len(points)), each
    front in ascending index order: `tournament_compare` hands fronts to
    `isolation`, whose distance sum follows that order, so seeded
    histories depend on it.

    One sweep in O(N log N) (Jensen, IEEE TEC 7(5), 2003): visit the
    distinct points in descending order. Every point visited earlier is
    at least as large in the first objective, so it dominates the
    current point exactly when its last objective is at least as large.
    Within a front the last objective therefore rises along the sweep,
    and the fronts' highest last objectives so far fall with the front
    number. The point joins the first front whose highest is below its
    own, found by bisection; identical points share a front.
    """
    if not points:
        raise ValueError("points must be non-empty")
    order = sorted(range(len(points)), key=points.__getitem__, reverse=True)
    fronts = []
    neg_top = []  # -(highest last objective) of each front, ascending
    previous = None
    for i in order:
        p = points[i]
        if p != previous:
            rank = bisect_right(neg_top, -p[-1])
            if rank == len(fronts):
                fronts.append([])
                neg_top.append(-p[-1])
            else:
                neg_top[rank] = -p[-1]
            previous = p
        fronts[rank].append(i)
    for front in fronts:
        front.sort()
    return fronts


def isolation(ind, front):
    """Mean Euclidean distance of `ind` to the rest of its front in raw
    objective space. Singleton fronts are infinitely isolated.
    """
    if ind not in front:
        raise ValueError("ind must be a member of front")
    others = list(front)
    others.remove(ind)  # one occurrence only; value-equal peers still count
    if not others:
        return math.inf
    dists = [math.dist(ind, p) for p in others]
    return sum(dists) / len(dists)


def tournament_compare(id_a, id_b, records, rng):
    """Pick winner and loser of a k=2 tournament: the lower Pareto front
    wins, then the more isolated member of a shared front, then a coin.

    `records` maps id -> FitnessRecord for the population snapshot
    (must contain both contestants). Returns (winner, loser, reason) with
    reason in {scalar, front, isolation, coin}, "scalar" being a front
    decision on one objective. There equal values share a front at
    isolation 0, so the higher value wins and a tie is a coin.
    """
    if id_a == id_b:
        raise ValueError("contestants must differ")
    rec_a, rec_b = records[id_a], records[id_b]

    def ordered(a_wins, reason):
        return (id_a, id_b, reason) if a_wins else (id_b, id_a, reason)

    ids = sorted(records)
    points = [records[i].values for i in ids]
    rank, front_of = {}, {}
    for r, front in enumerate(pareto_fronts(points)):
        members = [points[j] for j in front]
        for i in front:
            rank[ids[i]] = r
            front_of[ids[i]] = members
    if rank[id_a] != rank[id_b]:
        return ordered(rank[id_a] < rank[id_b], "scalar" if len(rec_a.values) == 1 else "front")
    iso_a = isolation(rec_a.values, front_of[id_a])
    iso_b = isolation(rec_b.values, front_of[id_b])
    if iso_a == iso_b:
        return ordered(rng.integers(2), "coin")
    return ordered(iso_a > iso_b, "isolation")
