"""TOPSIS ranking of (compression, accuracy) alternatives.

Both criteria already live in [0,1] and the ideal alternatives are
fixed at 1.0 / 0.0, so weighted raw values are used directly with no
decision-matrix normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Alternative:
    id: object  # an individual's id (a worker's id string), or any sortable identifier
    compression: float
    accuracy: float

    def __post_init__(self):
        for name, v in (("compression", self.compression), ("accuracy", self.accuracy)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} {v} outside [0,1]")


@dataclass(frozen=True)
class TopsisWeights:
    w_compression: float = 0.5
    w_accuracy: float = 0.5

    def __post_init__(self):
        if self.w_compression < 0 or self.w_accuracy < 0:
            raise ValueError("weights must be non-negative")
        total = self.w_compression + self.w_accuracy
        if total <= 0:
            raise ValueError("weight sum must be positive")
        object.__setattr__(self, "w_compression", self.w_compression / total)
        object.__setattr__(self, "w_accuracy", self.w_accuracy / total)


def topsis_score(alt: Alternative, w: TopsisWeights) -> float:
    """Closeness d-/(d+ + d-) to the (1,1)/(0,0) ideal alternatives."""
    v = (w.w_compression * alt.compression, w.w_accuracy * alt.accuracy)
    pos = (w.w_compression, w.w_accuracy)
    d_pos = math.dist(v, pos)
    d_neg = math.dist(v, (0.0, 0.0))
    return d_neg / (d_pos + d_neg)


def topsis_rank(alts, w: TopsisWeights):
    """Alternatives with scores, best first; ties broken by lower id."""
    if not alts:
        raise ValueError("no alternatives to rank")
    scored = [(alt, topsis_score(alt, w)) for alt in alts]
    scored.sort(key=lambda pair: (-pair[1], pair[0].id))
    return scored


def select_best(alts, w: TopsisWeights) -> Alternative:
    return topsis_rank(alts, w)[0][0]
