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
from .selection import FitnessRecord, tournament_compare

log = logging.getLogger(__name__)


def worker_seed_for(master_seed, worker_index):
    digest = hashlib.sha256(f"{master_seed}:{worker_index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def load_run_data(cfg: RunConfig):
    """(train, val, test) datasets for this run's data source."""
    if cfg.data_source == "synth":
        raw = dt.synth_dataset(
            classes=cfg.synth_classes,
            count=cfg.synth_count,
            size=cfg.synth_size,
            channels=cfg.synth_channels,
            seed=cfg.synth_seed,
        )
        return dt.split(raw, seed=cfg.synth_seed)
    if cfg.data_source == "cifar10":
        raw = dt.load_cifar10(cfg.dataset_dir)
        return dt.split(raw, seed=cfg.master_seed)
    if cfg.data_source == "evod":
        return tuple(
            dt.read_evod(f"{cfg.evod_prefix}{tag}.evod", split=tag)
            for tag in ("train", "val", "test")
        )
    raise ValueError(f"unknown data source {cfg.data_source!r}")


def n_classes_for(cfg: RunConfig):
    if cfg.data_source == "synth":
        return cfg.synth_classes
    return cfg.n_classes


# ---------------------------------------------------------------------------
# Building and training one individual
# ---------------------------------------------------------------------------

def build_network(g: gn.Genome, input_shape, rng, n_classes=10) -> eng.Network:
    layers = [eng.layer_from_spec(s) for s in gn.network_specs(g, input_shape, n_classes=n_classes)]
    for layer in layers:
        layer.init_weights(rng)
    return eng.Network(layers)


def _overlay_parent_weights(net, child, parent, parent_net, input_shape, rng):
    """Carry parent weights into the child network.

    Structurally identical genomes copy the whole network (decoder /
    head included). Otherwise genome-layer convs inherit per the
    overlap rule; the classifier head survives when its shape matches.
    """
    if parent.layers == child.layers:
        for dst, src in zip(net.layers, parent_net.layers):
            for d, s in zip(dst.params(), src.params()):
                d[...] = s
        return
    aligned_parent = []
    for i, gene in enumerate(parent.layers):
        if gene.kind == "conv":
            layer = parent_net.layers[i]
            aligned_parent.append({"w": layer.w, "b": layer.b})
        else:
            aligned_parent.append(None)
    inherited = gn.inherit_weights(aligned_parent, parent, child, input_shape, rng)
    for i, entry in enumerate(inherited):
        if entry is not None:
            net.layers[i].set_params(entry["w"], entry["b"])
    if child.kind == gn.CLASSIFIER:
        head, parent_head = net.layers[-1], parent_net.layers[-1]
        if parent_head.kind == "dense" and parent_head.w.shape == head.w.shape:
            head.set_params(parent_head.w.copy(), parent_head.b.copy())


def train_individual(g: gn.Genome, view: eng.DatasetView, cfg: RunConfig, rng,
                     input_shape, n_classes=10, parent=None):
    """Train one genome; returns (network, TrainReport).

    `parent` is an optional (parent_genome, parent_network) pair for
    weight inheritance.
    """
    net = build_network(g, input_shape, rng, n_classes=n_classes)
    if parent is not None:
        _overlay_parent_weights(net, g, parent[0], parent[1], input_shape, rng)
    kind = "encoder" if g.kind == gn.ENCODER else "classifier"
    report = eng.train_network(
        net, kind, view, cfg.epochs, cfg.batch_size, g.learning_rate, cfg.momentum, rng
    )
    return net, report


# ---------------------------------------------------------------------------
# Round loop
# ---------------------------------------------------------------------------

class Worker:
    def __init__(self, cfg: RunConfig, index: int, kind: str, store=None, datasets=None):
        if kind not in (gn.ENCODER, gn.CLASSIFIER):
            raise ValueError(f"worker kind must be Encoder or Classifier, got {kind!r}")
        self.cfg = cfg
        self.index = index
        self.kind = kind
        self.worker_id = f"w{index}"
        self.rng = np.random.default_rng(worker_seed_for(cfg.master_seed, index))
        self.store = store or PopulationStore(cfg.population_root)
        train, val, _test = datasets or load_run_data(cfg)
        self.view = eng.DatasetView(train.x, train.y, val.x, val.y)
        self.input_shape = train.sample_shape
        self.n_classes = n_classes_for(cfg)
        self.counter = 0

    def _next_id(self):
        self.counter += 1
        suffix = "".join(f"{b:02x}" for b in self.rng.integers(0, 256, 4, dtype=np.uint8))
        return f"{self.worker_id}-{self.counter}-{suffix}"

    def _fitness_record(self, g, report):
        if self.kind == gn.ENCODER:
            comp = gn.compression_ratio(g, self.input_shape)
            return FitnessRecord(pair=(comp, report.metric))
        return FitnessRecord(scalar=report.metric)

    def _publish(self, g, net, report):
        meta = FitnessMeta(
            id=g.id,
            kind=g.kind,
            record=self._fitness_record(g, report),
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
            net, report = train_individual(
                g, self.view, self.cfg, self.rng, self.input_shape, self.n_classes
            )
            self.store.append_claim(self.worker_id, g.id)
            self._publish(g, net, report)

    def run_round(self, round_index):
        """One tournament round; returns True when a child was published."""
        snapshot = self.store.load_all_fitness()
        pair = self.store.sample_pair(snapshot, self.rng)
        if pair is None:
            time.sleep(0.05)
            return False
        id_a, id_b = pair
        records = {iid: meta.record for iid, meta in snapshot.items()}
        winner, loser, reason = tournament_compare(
            id_a, id_b, records, self.rng, self.cfg.isolation_mode
        )
        # read the winner before touching the loser: a round abandoned
        # here has killed nothing
        try:
            parent = gn.deserialize(self.store.load_genome_text(winner))
            parent_net = eng.deserialize_network(self.store.load_weights(winner))
        except (OSError, StoreError, gn.GenomeError, eng.EngineError):
            log.info("round abandoned: winner %s vanished or unreadable", winner)
            return False
        # the kill is the loser's claim: when another worker took the loser
        # first, publishing here would grow the population
        if not self.store.kill(loser):
            log.info("round abandoned: loser %s already taken", loser)
            return False
        child_id = self._next_id()
        child = mu.mutate_valid(
            parent, self.input_shape, self.rng, child_id,
            max_tries=self.cfg.mutation_max_tries,
        )
        if child is mu.EXHAUSTED:
            log.info("mutation retries exhausted for %s; falling back to Identity", winner)
            child = mu.apply_mutation(parent, mu.MutationKind.Identity, self.rng, child_id)
        net, report = train_individual(
            child, self.view, self.cfg, self.rng, self.input_shape, self.n_classes,
            parent=(parent, parent_net),
        )
        self.store.append_claim(self.worker_id, child.id)
        self._publish(child, net, report)
        self.store.append_round_log(
            self.worker_id, f"{self.worker_id}r{round_index}", id_a, id_b, winner, reason
        )
        return True

    def run(self):
        """Seed, then loop rounds until the round or wall budget expires."""
        self.seed_population()
        completed = 0
        t0 = time.monotonic()
        while True:
            if self.cfg.round_budget and completed >= self.cfg.round_budget:
                break
            if self.cfg.wall_budget and time.monotonic() - t0 >= self.cfg.wall_budget:
                break
            if self.run_round(completed):
                completed += 1
        return completed
