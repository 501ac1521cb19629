"""Shared-filesystem population of individuals.

Workers never talk to each other; all coordination goes through a
population directory where the only commit primitive is an atomic
rename. An individual becomes visible only when its fully written
directory (genome, weights, fitness sidecar) is renamed into live/
(publish-last rule), and dies by a rename into dead/. A publish is named
by its sidecar: the id in it names the directory, its staging directory
and its claim-log line. Before it writes anything, a publish appends the
id to its worker's claim log, so the logs record every publish in the
order each worker made it.

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
    metric = ":".join(map(repr, meta.record.values))
    parent = meta.parent_id if meta.parent_id is not None else "-"
    return (
        f"{meta.id},{meta.kind},{metric},{meta.wall_seconds!r},"
        f"{meta.worker_id},{meta.generation},{parent},{meta.mutation}\n"
    )


def parse_fitness_line(line: str) -> FitnessMeta:
    """Inverse of `format_fitness_line`; raises StoreError on any
    malformed line, including a metric outside [0, 1] and a wall time
    that is negative or not finite."""
    parts = line.strip().split(",")
    if len(parts) != 8:
        raise StoreError(f"bad fitness line {line!r}")
    iid, kind, metric, wall, worker, gen, parent, mutation = parts
    numbers = [*metric.split(":"), wall]
    try:
        values = [float(v) for v in numbers]
        generation = int(gen)
    except ValueError:
        raise StoreError(f"bad number in fitness line {line!r}") from None
    # only the spellings format_fitness_line writes: float() and int() also
    # read ' 0.5', '+1.0', '0_0.9', '1_0' and non-ASCII digits
    if list(map(repr, values)) != numbers or repr(generation) != gen or generation < 0:
        raise StoreError(f"number not spelled as written in fitness line {line!r}")
    *metrics, wall_seconds = values
    if len(metrics) > 2 or not all(0 <= v <= 1 for v in metrics) or not 0 <= wall_seconds < math.inf:
        raise StoreError(f"bad metric or wall time in fitness line {line!r}")
    return FitnessMeta(
        id=iid,
        kind=kind,
        record=FitnessRecord(tuple(metrics)),
        wall_seconds=wall_seconds,
        worker_id=worker,
        generation=generation,
        parent_id=None if parent == "-" else parent,
        mutation=mutation,
    )


class PopulationStore:
    """Multi-process population directory with live/ and dead/ states
    (claimed/ is made, but nothing moves an individual there yet)."""

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

    def publish(self, genome_text, weights_blob, meta: FitnessMeta):
        """Append meta.id to meta.worker_id's claim log, write everything to
        a temp dir, then rename into live/<meta.id>. An id that is live or
        dead already raises IdCollision (a dead one before it is logged). A
        publish that raises removes its temp dir."""
        iid = meta.id
        if (self.dead / iid).exists():
            # a step rerun on the same directory draws the first run's ids again
            raise IdCollision(f"id {iid} already published and killed")
        with open(self.logs / f"claims_{meta.worker_id}.log", "a") as fh:
            fh.write(f"{iid}\n")
        staging = self.tmp / f"{iid}.{os.getpid()}"
        staging.mkdir(parents=True)
        try:
            (staging / GENOME_FILE).write_text(genome_text)
            (staging / WEIGHTS_FILE).write_bytes(weights_blob)
            (staging / FITNESS_FILE).write_text(format_fitness_line(meta))
            try:
                staging.rename(self.live / iid)
            except OSError as exc:
                raise IdCollision(f"id {iid} already published") from exc
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise

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
        """The sidecar of live/ (or dirname/) <id>; a malformed one raises
        StoreError naming its path."""
        path = self.root / dirname / individual_id / FITNESS_FILE
        try:
            return parse_fitness_line(path.read_text())
        except StoreError as exc:
            raise StoreError(f"{path}: {exc}") from None

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

    def load_published_fitness(self):
        """The sidecar of each id in the claim logs that reached live/ or
        dead/, once each, in publish order: each worker's ids in the order
        it logged them, the workers in the order of their log names. An id
        whose publish never reached live/ (its worker was killed mid-publish,
        or the id collided) has none."""
        logged = dict.fromkeys(iid for ids in self.read_claim_logs().values() for iid in ids)
        metas = []
        for iid in logged:
            # a kill moves live/ -> dead/, so this order misses no id killed meanwhile
            for dirname in ("live", "dead"):
                try:
                    metas.append(self.load_fitness(iid, dirname))
                    break
                except FileNotFoundError:
                    pass
        return metas

    def load_genome_text(self, individual_id) -> str:
        return (self.live / individual_id / GENOME_FILE).read_text()

    def load_weights(self, individual_id) -> bytes:
        return (self.live / individual_id / WEIGHTS_FILE).read_bytes()

    # -- logs ---------------------------------------------------------------

    def append_round_log(self, worker_id, round_id, id_a, id_b, winner, reason):
        with open(self.logs / f"rounds_{worker_id}.csv", "a") as fh:
            fh.write(f"{round_id},{worker_id},{id_a},{id_b},{winner},{reason}\n")

    def mark_idle(self, worker_id, idle=True):
        """Mark a worker that publishes nothing until a peer does (it is idle
        or has finished), or clear its mark."""
        mark = self.logs / f"idle_{worker_id}"
        if idle:
            mark.touch()
        else:
            mark.unlink(missing_ok=True)

    def idle_count(self):
        return sum(1 for _ in self.logs.glob("idle_*"))

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
