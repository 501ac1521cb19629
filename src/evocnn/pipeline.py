"""Orchestration of the four-step method plus reporting.

Step 1 evolves autoencoders, step 2 picks one by TOPSIS and encodes
the dataset, step 3 evolves classifiers on the encoded data, step 4
composes encoder + classifier into the final network. Workers are OS
processes coordinated only through the population directory.
"""

from __future__ import annotations

import csv
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import data as dt
from . import engine as eng
from . import genome as gn
from .config import RunConfig, save_config
from .mcdm import Alternative, TopsisWeights, select_best
from .popstore import PopulationStore
from .selection import pareto_fronts
from .worker import Worker, load_run_data, n_classes_for

# Short name of each evolution step, used on the command line and in run directories.
STEP_KINDS = {"cae": gn.ENCODER, "clf": gn.CLASSIFIER}
_STEP_NAMES = {kind: name for name, kind in STEP_KINDS.items()}


class PipelineError(Exception):
    pass


def step_population_root(cfg: RunConfig, kind: str) -> Path:
    return Path(cfg.population_root) / _STEP_NAMES[kind]


@dataclass
class StepSummary:
    kind: str
    networks_generated: int
    best_metric: float
    history_csv: str
    worker_rounds: list


# ---------------------------------------------------------------------------
# History export
# ---------------------------------------------------------------------------

def export_history(population_root, out_csv):
    """One row per individual ever published, in publish order.

    The offset column is the publish rank (0-based), which doubles as a
    deterministic time axis for round-budgeted runs; wall-clock ordering
    comes from sidecar mtimes.
    """
    store = PopulationStore(population_root)
    entries = []
    for dirname, lister in (("live", store.list_live), ("dead", store.list_dead)):
        for iid in lister():
            try:
                meta = store.load_fitness(iid, dirname)
                mtime = (store.root / dirname / iid / "fitness.csv").stat().st_mtime_ns
            except OSError:
                continue
            entries.append((mtime, meta.generation, meta.id, meta))
    entries.sort(key=lambda e: (e[1], e[0], e[2]))
    rows = []
    for seq, (_, _, _, meta) in enumerate(entries):
        if meta.record.scalar is not None:
            metric, metric2 = repr(meta.record.scalar), ""
        else:
            metric, metric2 = repr(meta.record.pair[0]), repr(meta.record.pair[1])
        rows.append(
            [
                str(seq),
                meta.id,
                meta.worker_id,
                metric,
                metric2,
                str(meta.generation),
                meta.mutation,
                meta.parent_id or "-",
            ]
        )
    out = Path(out_csv)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["offset", "id", "worker_id", "metric", "metric2", "generation", "mutation", "parent_id"]
        )
        writer.writerows(rows)
    return rows


def _best_metric(rows, kind):
    col = 4 if kind == gn.ENCODER else 3  # CAE: reconstruction accuracy
    best = 0.0
    for row in rows:
        if row[col]:
            best = max(best, float(row[col]))
    return best


# ---------------------------------------------------------------------------
# Evolution steps
# ---------------------------------------------------------------------------

def run_step(cfg: RunConfig, kind: str, in_process=False) -> StepSummary:
    """Launch cfg.workers worker processes for one evolution step.

    `in_process=True` runs workers sequentially in this process (used
    by tests and single-worker deterministic runs).
    """
    root = step_population_root(cfg, kind)
    name = _STEP_NAMES[kind]
    step_cfg = replace(cfg, population_root=str(root))
    report_dir = Path(cfg.report_dir)
    report_dir.mkdir(parents=True, exist_ok=True)
    rounds = []
    if in_process or cfg.workers == 1:
        for i in range(cfg.workers):
            rounds.append(Worker(step_cfg, i, kind).run())
    else:
        cfg_path = report_dir / f"worker_{name}.cfg"
        save_config(step_cfg, cfg_path)
        procs = [
            subprocess.Popen(
                [
                    sys.executable, "-m", "evocnn.cli", "worker",
                    "--config", str(cfg_path), "--index", str(i), "--kind", kind,
                ]
            )
            for i in range(cfg.workers)
        ]
        for p in procs:
            code = p.wait()
            if code != 0:
                # shared-nothing: others keep their results
                print(f"worker exited with code {code}", file=sys.stderr)
            rounds.append(code)
    history = report_dir / f"history_{name}.csv"
    rows = export_history(root, history)
    return StepSummary(
        kind=kind,
        networks_generated=len(rows),
        best_metric=_best_metric(rows, kind),
        history_csv=str(history),
        worker_rounds=rounds,
    )


def live_cae_alternatives(store: PopulationStore):
    """(alternatives on Pareto front 0, id -> (compression, accuracy))."""
    fitness = store.load_all_fitness()
    pairs = {iid: meta.record.pair for iid, meta in fitness.items() if meta.record.pair}
    if not pairs:
        raise PipelineError("no evaluated autoencoders in the population")
    ids = sorted(pairs)
    fronts = pareto_fronts([pairs[i] for i in ids])
    front0 = [ids[i] for i in fronts[0]]
    alts = [
        Alternative(id=iid, compression=pairs[iid][0], accuracy=min(pairs[iid][1], 1.0))
        for iid in front0
    ]
    return alts, pairs


def finalize_cae_step(cfg: RunConfig, datasets=None):
    """Pick the TOPSIS-best front-0 autoencoder and cache the encoded
    train/val/test splits next to its id. Returns (encoder id, prefix)."""
    store = PopulationStore(step_population_root(cfg, gn.ENCODER))
    alts, _ = live_cae_alternatives(store)
    weights = TopsisWeights(cfg.w_compression, cfg.w_accuracy)
    chosen = select_best(alts, weights)
    encoder_id = chosen.id
    g = gn.deserialize(store.load_genome_text(encoder_id))
    full_net = eng.deserialize_network(store.load_weights(encoder_id))
    encoder_net = eng.Network(full_net.layers[: len(g.layers)])
    if datasets is None:
        datasets = load_run_data(cfg)
    report_dir = Path(cfg.report_dir)
    report_dir.mkdir(parents=True, exist_ok=True)
    prefix = report_dir / f"encoded_{encoder_id}_"
    for ds in datasets:
        dt.write_evod(f"{prefix}{ds.split}.evod", dt.encode_dataset(encoder_net, ds))
    (report_dir / "chosen_cae.txt").write_text(f"{encoder_id}\n")
    return encoder_id, str(prefix)


def best_classifier_id(cfg: RunConfig):
    store = PopulationStore(step_population_root(cfg, gn.CLASSIFIER))
    fitness = store.load_all_fitness()
    scored = [
        (meta.record.scalar, iid)
        for iid, meta in fitness.items()
        if meta.record.scalar is not None
    ]
    if not scored:
        raise PipelineError("no evaluated classifiers in the population")
    return max(scored)[1]


def compose_final(cfg: RunConfig, encoder_id, classifier_id, datasets=None):
    """Encoder + classifier as one network, evaluated on the test split.

    Returns (composed Network, test accuracy).
    """
    cae_store = PopulationStore(step_population_root(cfg, gn.ENCODER))
    clf_store = PopulationStore(step_population_root(cfg, gn.CLASSIFIER))
    enc_g = gn.deserialize(cae_store.load_genome_text(encoder_id))
    enc_net = eng.deserialize_network(cae_store.load_weights(encoder_id))
    clf_net = eng.deserialize_network(clf_store.load_weights(classifier_id))
    encoder_layers = enc_net.layers[: len(enc_g.layers)]
    composed = eng.Network(encoder_layers + clf_net.layers)
    if datasets is None:
        datasets = load_run_data(cfg)
    test = datasets[2]
    # a mismatch between encoder output and classifier input surfaces as a
    # ShapeError from the first classifier layer during the forward pass
    return composed, eng.classifier_accuracy(composed, test.x, test.y)


def run_full_pipeline(cfg: RunConfig):
    """All four steps end to end; returns a result dict."""
    cae_summary = run_step(cfg, gn.ENCODER)
    datasets = load_run_data(cfg)
    encoder_id, prefix = finalize_cae_step(cfg, datasets)
    # the encoded caches carry no class count; keep the raw source's
    clf_cfg = replace(cfg, data_source="evod", evod_prefix=prefix, n_classes=n_classes_for(cfg))
    clf_summary = run_step(clf_cfg, gn.CLASSIFIER)
    classifier_id = best_classifier_id(cfg)
    composed, test_acc = compose_final(cfg, encoder_id, classifier_id, datasets)
    return {
        "cae_summary": cae_summary,
        "encoder_id": encoder_id,
        "clf_summary": clf_summary,
        "classifier_id": classifier_id,
        "test_accuracy": test_acc,
    }
