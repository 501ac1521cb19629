"""Shared-filesystem population of individuals.

Workers never talk to each other; all coordination goes through a
population directory where the only commit primitive is an atomic
rename. An individual becomes visible only when its fully written
directory (genome, weights, fitness sidecar) is renamed into live/
(publish-last rule), and dies by a rename into dead/.

A fitness sidecar is written before the publish rename and never
rewritten, and ids are never reused, so what a store once read for an
id stays true for as long as the id is live. `load_all_fitness` relies
on this: it lists live/ on every call but parses each sidecar once.
"""

from __future__ import annotations

import math
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

from .selection import FitnessRecord

GENOME_FILE = "genome.txt"
WEIGHTS_FILE = "weights.bin"
FITNESS_FILE = "fitness.csv"

_SUBDIRS = ("live", "claimed", "dead", "tmp", "logs")


class StoreError(Exception):
    pass


class IdCollision(StoreError):
    pass


@dataclass(frozen=True)
class FitnessMeta:
    """Parsed fitness sidecar."""

    id: str
    kind: str
    record: FitnessRecord
    wall_seconds: float
    worker_id: str
    generation: int
    parent_id: str | None
    mutation: str


def format_fitness_line(meta: FitnessMeta) -> str:
    if meta.record.scalar is not None:
        metric = repr(meta.record.scalar)
    else:
        metric = f"{meta.record.pair[0]!r}:{meta.record.pair[1]!r}"
    parent = meta.parent_id if meta.parent_id is not None else "-"
    return (
        f"{meta.id},{meta.kind},{metric},{meta.wall_seconds!r},"
        f"{meta.worker_id},{meta.generation},{parent},{meta.mutation}\n"
    )


def parse_fitness_line(line: str) -> FitnessMeta:
    """Inverse of `format_fitness_line`; raises StoreError on any
    malformed line, including non-finite metrics and wall times."""
    parts = line.strip().split(",")
    if len(parts) != 8:
        raise StoreError(f"bad fitness line {line!r}")
    iid, kind, metric, wall, worker, gen, parent, mutation = parts
    try:
        values = [float(v) for v in metric.split(":")] + [float(wall)]
        generation = int(gen)
    except ValueError:
        raise StoreError(f"bad number in fitness line {line!r}") from None
    if len(values) > 3 or not all(math.isfinite(v) for v in values):
        raise StoreError(f"bad metric or wall time in fitness line {line!r}")
    *metrics, wall_seconds = values
    if len(metrics) == 2:
        record = FitnessRecord(pair=tuple(metrics))
    else:
        record = FitnessRecord(scalar=metrics[0])
    return FitnessMeta(
        id=iid,
        kind=kind,
        record=record,
        wall_seconds=wall_seconds,
        worker_id=worker,
        generation=generation,
        parent_id=None if parent == "-" else parent,
        mutation=mutation,
    )


class PopulationStore:
    """Multi-process population directory with live/claimed/dead states."""

    def __init__(self, root):
        self.root = Path(root)
        for sub in _SUBDIRS:
            (self.root / sub).mkdir(parents=True, exist_ok=True)
        self.live = self.root / "live"
        self.dead = self.root / "dead"
        self.tmp = self.root / "tmp"
        self.logs = self.root / "logs"
        self._fitness = {}  # id -> FitnessMeta of the last live listing

    # -- write path ---------------------------------------------------------

    def publish(self, individual_id, genome_text, weights_blob, meta: FitnessMeta):
        """Write everything to a temp dir, then rename into live/."""
        staging = self.tmp / f"{individual_id}.{os.getpid()}"
        staging.mkdir(parents=True)
        try:
            (staging / GENOME_FILE).write_text(genome_text)
            (staging / WEIGHTS_FILE).write_bytes(weights_blob)
            (staging / FITNESS_FILE).write_text(format_fitness_line(meta))
            target = self.live / individual_id
            try:
                staging.rename(target)
            except OSError as exc:
                raise IdCollision(f"id {individual_id} already published") from exc
        except IdCollision:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        return individual_id

    def kill(self, individual_id) -> bool:
        """live/<id> -> dead/<id>; False when already gone (normal race).

        Weights of dead individuals are dropped; metadata is kept so
        the evolution history can still be exported.
        """
        src = self.live / individual_id
        dst = self.dead / individual_id
        try:
            src.rename(dst)
        except OSError:
            return False
        try:
            (dst / WEIGHTS_FILE).unlink()
        except OSError:
            pass
        return True

    # -- read path ----------------------------------------------------------

    def list_live(self):
        return sorted(p.name for p in self.live.iterdir() if not p.name.startswith("."))

    def list_dead(self):
        return sorted(p.name for p in self.dead.iterdir() if not p.name.startswith("."))

    def sample_pair(self, snapshot, rng):
        """Two distinct ids of a `load_all_fitness` snapshot, uniform
        without replacement over its sorted ids; None when it holds
        fewer than two."""
        ids = sorted(snapshot)
        if len(ids) < 2:
            return None
        picked = rng.choice(len(ids), size=2, replace=False)
        return ids[int(picked[0])], ids[int(picked[1])]

    def load_fitness(self, individual_id, dirname="live") -> FitnessMeta:
        path = self.root / dirname / individual_id / FITNESS_FILE
        return parse_fitness_line(path.read_text())

    def load_all_fitness(self):
        """Snapshot of live fitness records, as a new dict.

        Lists live/ on every call but reads only the sidecars of ids not
        seen before (see the module docstring); entries that vanish or
        fail to parse are skipped and not remembered (stale snapshots are
        tolerated). Only the ids of this listing are kept.
        """
        known = {}
        for iid in self.list_live():
            meta = self._fitness.get(iid)
            if meta is None:
                try:
                    meta = self.load_fitness(iid)
                except (OSError, StoreError):
                    continue
            known[iid] = meta
        self._fitness = known
        return dict(known)

    def load_genome_text(self, individual_id) -> str:
        return (self.live / individual_id / GENOME_FILE).read_text()

    def load_weights(self, individual_id) -> bytes:
        return (self.live / individual_id / WEIGHTS_FILE).read_bytes()

    # -- logs ---------------------------------------------------------------

    def round_log_path(self, worker_id):
        return self.logs / f"rounds_{worker_id}.csv"

    def append_round_log(self, worker_id, round_id, id_a, id_b, winner, reason):
        with open(self.round_log_path(worker_id), "a") as fh:
            fh.write(f"{round_id},{worker_id},{id_a},{id_b},{winner},{reason}\n")

    def claim_log_path(self, worker_id):
        return self.logs / f"claims_{worker_id}.log"

    def append_claim(self, worker_id, individual_id):
        with open(self.claim_log_path(worker_id), "a") as fh:
            fh.write(f"{individual_id}\n")

    def read_round_logs(self):
        rows = []
        for path in sorted(self.logs.glob("rounds_*.csv")):
            for line in path.read_text().splitlines():
                if line.strip():
                    rows.append(line.split(","))
        return rows

    def read_claim_logs(self):
        claims = {}
        for path in sorted(self.logs.glob("claims_*.log")):
            worker = path.stem.replace("claims_", "")
            claims[worker] = [l for l in path.read_text().splitlines() if l.strip()]
        return claims
