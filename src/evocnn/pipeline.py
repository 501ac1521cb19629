"""Orchestration of the four-step method plus reporting.

Step 1 evolves autoencoders, step 2 picks one by TOPSIS and encodes
the dataset, step 3 evolves classifiers on the encoded data, step 4
composes encoder + classifier into the final network. Workers are OS
processes coordinated only through the population directory.
"""

from __future__ import annotations

import csv
import math
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import data as dt
from . import engine as eng
from . import genome as gn
from .config import RunConfig, save_config
from .fileio import replacing
from .mcdm import Alternative, TopsisWeights, select_best
from .popstore import PopulationStore
from .selection import pareto_fronts
from .worker import Worker, load_run_data, read_individual

# Short name of each evolution step, used on the command line and in run directories.
STEP_KINDS = {k.step: kind for kind, k in gn.GENOME_KINDS.items()}


class PipelineError(Exception):
    pass


def step_population_root(cfg: RunConfig, kind: str) -> Path:
    return Path(cfg.population_root) / gn.GENOME_KINDS[kind].step


def _existing_store(root) -> PopulationStore:
    """The population store at root, which a step has run in; PipelineError,
    before anything is created, when root is no directory."""
    if not Path(root).is_dir():
        raise PipelineError(f"{root} is missing: run its evolution step first")
    return PopulationStore(root)


@dataclass
class StepSummary:
    networks_generated: int
    best_metric: float
    history_csv: str


# ---------------------------------------------------------------------------
# History export
# ---------------------------------------------------------------------------

def export_history(population_root, out_csv):
    """Write one row per individual ever published, live or dead, in publish
    order (`PopulationStore.load_published_fitness`), and return their
    sidecars in that order. The offset column is the row's rank in that
    order (0-based)."""
    metas = _existing_store(population_root).load_published_fitness()
    with replacing(out_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["offset", "id", "worker_id", "metric", "metric2", "generation", "mutation", "parent_id"]
        )
        writer.writerows([
            [seq, meta.id, meta.worker_id, *[*map(repr, meta.record.values), ""][:2],
             meta.generation, meta.mutation, meta.parent_id or "-"]
            for seq, meta in enumerate(metas)
        ])
    return metas


def report_step(cfg: RunConfig, kind: str) -> StepSummary:
    """Export a step's history to `history_<step>.csv` under report_dir and
    summarise it; a record's validation metric is its last objective."""
    history = Path(cfg.report_dir) / f"history_{gn.GENOME_KINDS[kind].step}.csv"
    metas = export_history(step_population_root(cfg, kind), history)
    return StepSummary(
        networks_generated=len(metas),
        best_metric=max([0.0] + [meta.record.values[-1] for meta in metas]),
        history_csv=str(history),
    )


# ---------------------------------------------------------------------------
# Evolution steps
# ---------------------------------------------------------------------------

def run_step(cfg: RunConfig, kind: str) -> StepSummary:
    """Run one evolution step: a single worker runs in this process,
    more run as cfg.workers worker processes."""
    name = gn.GENOME_KINDS[kind].step
    step_cfg = replace(cfg, population_root=str(step_population_root(cfg, kind)))
    if cfg.workers == 1:
        Worker(step_cfg, 0, kind).run()
    else:
        cfg_path = Path(cfg.report_dir) / f"worker_{name}.cfg"
        save_config(step_cfg, cfg_path)
        procs = [
            subprocess.Popen(
                [
                    sys.executable, "-m", "evocnn.cli", "worker",
                    "--config", str(cfg_path), "--index", str(i), "--step", name,
                ]
            )
            for i in range(cfg.workers)
        ]
        codes = [p.wait() for p in procs]
        failed = [f"worker {i} exited with code {code}" for i, code in enumerate(codes) if code]
        if failed:
            raise PipelineError(f"{name} step: " + "; ".join(failed))
    return report_step(cfg, kind)


def live_cae_alternatives(store: PopulationStore):
    """The live autoencoders on Pareto front 0, as TOPSIS alternatives."""
    fitness = store.load_all_fitness()
    pairs = {iid: meta.record.pair for iid, meta in fitness.items()}
    if not pairs:
        raise PipelineError("no evaluated autoencoders in the population")
    ids = sorted(pairs)
    fronts = pareto_fronts([pairs[i] for i in ids])
    return [Alternative(ids[i], *pairs[ids[i]]) for i in fronts[0]]


def load_encoder(cfg: RunConfig, encoder_id, input_shape):
    """A stored autoencoder's encoder, the layers of its genes with the
    decoder dropped, and the shape it encodes input_shape to."""
    store = _existing_store(step_population_root(cfg, gn.ENCODER))
    g, net = read_individual(store, encoder_id, input_shape, cfg.n_classes)
    return eng.Network(net.layers[: len(g.layers)]), gn.infer_shapes(g, input_shape)[-1]


def finalize_cae_step(cfg: RunConfig):
    """Pick the TOPSIS-best front-0 autoencoder and cache the encoded
    train/val/test splits next to its id. Returns (encoder id, prefix)."""
    store = _existing_store(step_population_root(cfg, gn.ENCODER))
    weights = TopsisWeights(cfg.w_compression, cfg.w_accuracy)
    encoder_id = select_best(live_cae_alternatives(store), weights).id
    datasets = load_run_data(cfg)
    encoder_net, _shape = load_encoder(cfg, encoder_id, datasets[0].sample_shape)
    prefix = _encoded_prefix(cfg, encoder_id)
    for tag, ds in zip(dt.SPLITS, datasets):
        dt.write_evod(f"{prefix}{tag}.evod", dt.encode_dataset(encoder_net, ds))
    with replacing(Path(cfg.report_dir) / "chosen_cae.txt") as fh:
        fh.write(f"{encoder_id}\n")
    return encoder_id, prefix


def _encoded_prefix(cfg: RunConfig, encoder_id) -> str:
    return str(Path(cfg.report_dir) / f"encoded_{encoder_id}_")


def chosen_encoder_id(cfg: RunConfig) -> str:
    """The encoder `finalize_cae_step` picked for this run; PipelineError naming
    chosen_cae.txt unless it is one line holding a live step-1 autoencoder's id."""
    path = Path(cfg.report_dir) / "chosen_cae.txt"
    if not path.exists():
        raise PipelineError(f"{path} is missing: pick and encode a CAE first")
    store = _existing_store(step_population_root(cfg, gn.ENCODER))
    # a byte that is not ASCII decodes to U+FFFD, which no store id holds
    encoder_id = path.read_bytes().removesuffix(b"\n").decode("ascii", "replace")
    if encoder_id not in store.list_live():
        raise PipelineError(f"{path} is not one line holding the id of a live step-1 autoencoder")
    return encoder_id


def classifier_config(cfg: RunConfig, encoder_id) -> RunConfig:
    """Step 3's config: the run's config, `n_classes` included, reading the
    encoder's EVOD caches."""
    return replace(cfg, data_source="evod", evod_prefix=_encoded_prefix(cfg, encoder_id))


def best_classifier_id(cfg: RunConfig):
    """The live classifier of highest validation accuracy (largest id on a tie)."""
    fitness = _existing_store(step_population_root(cfg, gn.CLASSIFIER)).load_all_fitness()
    if not fitness:
        raise PipelineError("no evaluated classifiers in the population")
    return max((meta.record.values, iid) for iid, meta in fitness.items())[1]


def compose_final(cfg: RunConfig, encoder_id, classifier_id):
    """Encoder + classifier as one network, evaluated on the test split.

    Returns (composed Network, test accuracy); PipelineError when the
    accuracy is NaN, as a diverged classifier's non-finite logits make it.
    """
    test = load_run_data(cfg)[2]
    encoder, encoded_shape = load_encoder(cfg, encoder_id, test.sample_shape)
    # the classifier is read on the shape the encoder makes, so one built
    # for another shape raises GenomeError here, before any forward pass
    clf_store = _existing_store(step_population_root(cfg, gn.CLASSIFIER))
    _g, clf_net = read_individual(clf_store, classifier_id, encoded_shape, cfg.n_classes)
    composed = eng.Network(encoder.layers + clf_net.layers)
    accuracy = eng.classifier_accuracy(composed, test.x, test.y)
    if math.isnan(accuracy):
        raise PipelineError(f"{encoder_id} + {classifier_id} makes non-finite logits on the test split")
    return composed, accuracy

