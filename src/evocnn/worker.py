"""Worker process: seed, then loop snapshot -> sample -> compare -> read
winner -> kill loser -> mutate -> train -> publish against the shared
population directory."""

from __future__ import annotations

import hashlib
import logging
import time

import numpy as np

from . import data as dt
from . import engine as eng
from . import genome as gn
from . import mutation as mu
from .config import RunConfig
from .popstore import FitnessMeta, PopulationStore, StoreError
from .selection import tournament_compare

log = logging.getLogger(__name__)

IDLE_SNAPSHOTS_MAX = 20  # snapshots in a row, 50 ms apart, after which no worker could publish


def worker_seed_for(master_seed, worker_index):
    digest = hashlib.sha256(f"{master_seed}:{worker_index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def load_run_data(cfg: RunConfig):
    """(train, val, test) datasets for this run's data source; a label
    outside [0, n_classes) raises DataError."""
    if cfg.data_source == "synth":
        raw = dt.synth_dataset(
            classes=cfg.n_classes,
            count=cfg.synth_count,
            size=cfg.synth_size,
            seed=cfg.synth_seed,
        )
        splits = dt.split(raw, seed=cfg.synth_seed)
    elif cfg.data_source == "cifar10":
        raw = dt.load_cifar10(cfg.dataset_dir)
        splits = dt.split(raw, seed=cfg.master_seed)
    elif cfg.data_source == "evod":
        splits = tuple(
            dt.read_evod(f"{cfg.evod_prefix}{tag}.evod", split=tag)
            for tag in ("train", "val", "test")
        )
    else:
        raise ValueError(f"unknown data source {cfg.data_source!r}")
    top = max(int(ds.y.max()) for ds in splits)
    if top >= cfg.n_classes:
        # the classifier head has n_classes units; a larger label fails deep in training
        raise dt.DataError(f"label {top} is out of range for n_classes = {cfg.n_classes}")
    return splits


# ---------------------------------------------------------------------------
# Building and training one individual
# ---------------------------------------------------------------------------

def build_network(g: gn.Genome, input_shape, rng, n_classes=10) -> eng.Network:
    layers = [eng.layer_from_spec(s) for s in gn.network_specs(g, input_shape, n_classes=n_classes)]
    for layer in layers:
        layer.init_weights(rng)
    return eng.Network(layers)


def train_individual(g: gn.Genome, view: eng.DatasetView, cfg: RunConfig, rng,
                     input_shape, parent=None):
    """Train one genome; returns (network, TrainReport).

    `parent` is an optional (parent_genome, parent_network, genes_from)
    triple for weight inheritance, genes_from as `mutation.apply_mutation`
    reports it.
    """
    net = build_network(g, input_shape, rng, n_classes=cfg.n_classes)
    if parent is not None:
        gn.inherit_weights(net, g, *parent, input_shape, cfg.n_classes, rng)
    report = eng.train_network(net, gn.GENOME_KINDS[g.kind], view, cfg.epochs, cfg.batch_size,
                               g.learning_rate, cfg.momentum, rng)
    return net, report


# ---------------------------------------------------------------------------
# Round loop
# ---------------------------------------------------------------------------

class Worker:
    def __init__(self, cfg: RunConfig, index: int, kind: str, datasets=None):
        if kind not in gn.GENOME_KINDS:
            raise ValueError(f"worker kind must be one of {sorted(gn.GENOME_KINDS)}, got {kind!r}")
        self.cfg = cfg
        self.index = index
        self.kind = kind
        self.worker_id = f"w{index}"
        train, val, _test = datasets or load_run_data(cfg)
        if cfg.batch_size > train.n:
            # batches drop the remainder, so no epoch would train on anything
            raise dt.DataError(f"batch_size {cfg.batch_size} exceeds the {train.n} training samples")
        self.rng = np.random.default_rng(worker_seed_for(cfg.master_seed, index))
        self.store = PopulationStore(cfg.population_root)
        self.view = eng.DatasetView(train.x, train.y, val.x, val.y)
        self.input_shape = train.sample_shape
        self.counter = 0
        self.idle_snapshots = 0

    def _next_id(self):
        self.counter += 1
        suffix = "".join(f"{b:02x}" for b in self.rng.integers(0, 256, 4, dtype=np.uint8))
        return f"{self.worker_id}-{self.counter}-{suffix}"

    def _publish(self, g, net, report):
        meta = FitnessMeta(
            id=g.id,
            kind=g.kind,
            record=gn.fitness_record(g, self.input_shape, report.metric),
            wall_seconds=report.wall_seconds,
            worker_id=self.worker_id,
            generation=g.generation,
            parent_id=g.parent_id,
            mutation=g.mutation_applied,
        )
        self.store.publish(g.id, gn.serialize(g), eng.serialize_network(net), meta)

    def seed_population(self):
        for _ in range(self.cfg.seeds_per_worker):
            g = gn.seed_genome(self.kind, self._next_id(), self.cfg.learning_rate)
            net, report = train_individual(g, self.view, self.cfg, self.rng, self.input_shape)
            self.store.append_claim(self.worker_id, g.id)
            self._publish(g, net, report)

    def run_round(self, round_index):
        """One tournament round; returns True when a child was published."""
        snapshot = self.store.load_all_fitness()
        pair = self.store.sample_pair(snapshot, self.rng)
        if pair is None:
            # counted only while every worker is idle or finished, so that no
            # publish can come; a wall budget ends the wait by itself
            self.store.mark_idle(self.worker_id)
            stalled = self.cfg.round_budget and self.store.idle_count() >= self.cfg.workers
            self.idle_snapshots = self.idle_snapshots + 1 if stalled else 0
            if self.idle_snapshots >= IDLE_SNAPSHOTS_MAX:
                raise StoreError(f"{len(snapshot)} live individual(s) and no worker left to publish")
            time.sleep(0.05)
            return False
        self.store.mark_idle(self.worker_id, False)
        id_a, id_b = pair
        records = {iid: meta.record for iid, meta in snapshot.items()}
        winner, loser, reason = tournament_compare(id_a, id_b, records, self.rng)
        # read the winner before touching the loser: a round abandoned
        # here has killed nothing
        try:
            parent = gn.deserialize(self.store.load_genome_text(winner))
            parent_net = eng.deserialize_network(self.store.load_weights(winner))
            specs = gn.network_specs(parent, self.input_shape, self.cfg.n_classes)
            if [s["kind"] for s in specs] != [layer.kind for layer in parent_net.layers]:
                raise gn.GenomeError(f"{winner}'s weights do not follow its genome")
        except (OSError, StoreError, gn.GenomeError, eng.EngineError):
            log.info("round abandoned: winner %s vanished, unreadable or mismatched", winner)
            return False
        # the kill is the loser's claim: when another worker took the loser
        # first, publishing here would grow the population
        if not self.store.kill(loser):
            log.info("round abandoned: loser %s already taken", loser)
            return False
        child_id = self._next_id()
        mutated = mu.mutate_valid(parent, self.input_shape, self.rng, child_id)
        if mutated is mu.EXHAUSTED:
            log.info("mutation retries exhausted for %s; falling back to Identity", winner)
            mutated = mu.apply_mutation(parent, mu.MutationKind.Identity, self.rng, child_id)
        child, genes_from = mutated
        net, report = train_individual(
            child, self.view, self.cfg, self.rng, self.input_shape,
            parent=(parent, parent_net, genes_from),
        )
        self.store.append_claim(self.worker_id, child.id)
        self._publish(child, net, report)
        self.store.append_round_log(
            self.worker_id, f"{self.worker_id}r{round_index}", id_a, id_b, winner, reason
        )
        return True

    def run(self):
        """Seed, then loop rounds until the round or wall budget expires. A
        worker that returns or raises stays marked idle."""
        try:
            self.seed_population()
            completed = 0
            t0 = time.monotonic()
            while True:
                if self.cfg.round_budget and completed >= self.cfg.round_budget:
                    return completed
                if self.cfg.wall_budget and time.monotonic() - t0 >= self.cfg.wall_budget:
                    return completed
                if self.run_round(completed):
                    completed += 1
        finally:
            self.store.mark_idle(self.worker_id)
