"""One trajectory of a workload, run in its own process.

    python3 perfbench/trajectory.py --workload NAME --index K \
        --inputs DIR --out DIR [--trace]

The program's `src` directory must be on PYTHONPATH. The inputs are
already on disk, written by `run.py` in another process, so the peak
RSS recorded here is the program's. BLAS is pinned to one thread
before numpy is imported: the program pins it only in `cli`, which an
in-process run does not import.

Writes `record.json` (timings, outcome, quality) to --out and, when
traced, `spans.jsonl` with every recorded span.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from evocnn import data, engine, genome, mcdm, mutation, pipeline, popstore, selection, worker
from evocnn.config import RunConfig
from tracing import Tracer
from workloads import WORKLOADS

MODULES = {
    "engine": engine, "genome": genome, "mutation": mutation, "selection": selection,
    "mcdm": mcdm, "popstore": popstore, "data": data, "worker": worker, "pipeline": pipeline,
}


class RoundClock:
    """Times every `Worker.run_round` call; the only hook of an untraced run."""

    def __init__(self):
        self.rounds = []  # [kind, seconds, completed]
        self.first_start = None
        original = worker.Worker.run_round
        clock = self

        def timed(self, round_index):
            start = time.perf_counter()
            if clock.first_start is None:
                clock.first_start = start
            completed = original(self, round_index)
            clock.rounds.append([self.kind, time.perf_counter() - start, bool(completed)])
            return completed

        worker.Worker.run_round = timed


def peak_rss_kib():
    """This process's own peak resident set (VmHWM). `ru_maxrss` is no use
    here: Linux carries the launching process's peak across exec into it."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def step_config(base: RunConfig, step):
    return replace(
        base,
        seeds_per_worker=step.seeds,
        round_budget=step.rounds,
        epochs=step.epochs,
        batch_size=step.batch_size,
        learning_rate=step.learning_rate,
    ).check()


def best_live_cae(store):
    """(id, reconstruction accuracy) of the best live autoencoder, lowest id on ties."""
    neg_acc, best_id = min((-m.record.pair[1], iid) for iid, m in store.load_all_fitness().items())
    return best_id, -neg_acc


def recon_accuracy(net, x):
    return float(1.0 - np.mean((net.forward(x) - x) ** 2))


def run(workload, index, inputs_dir: Path, out: Path):
    """Run the workload's steps; returns the outcome fields of the record."""
    base = RunConfig(
        population_root=str(out / "population"),
        report_dir=str(out / "reports"),
        data_source=workload.source,
        dataset_dir=str(inputs_dir),
        evod_prefix=str(inputs_dir) + "/",
        workers=1,
        round_budget=1,
        master_seed=index,
        n_classes=10,
    )
    cae_step = workload.steps[0]
    cae_cfg = step_config(base, cae_step)
    outcome = {}
    cae = pipeline.run_step(cae_cfg, genome.ENCODER)
    if len(workload.steps) == 1:
        return outcome, cae_cfg
    encoder_id, prefix = pipeline.finalize_cae_step(cae_cfg)
    clf_cfg = replace(step_config(base, workload.steps[1]), data_source="evod", evod_prefix=prefix)
    pipeline.run_step(clf_cfg, genome.CLASSIFIER)
    classifier_id = pipeline.best_classifier_id(cae_cfg)
    _composed, accuracy = pipeline.compose_final(cae_cfg, encoder_id, classifier_id)
    outcome.update(
        encoder_id=encoder_id,
        classifier_id=classifier_id,
        evod_prefix=prefix,
        test_accuracy=accuracy,
        cae_networks=cae.networks_generated,
    )
    return outcome, cae_cfg


def main():
    parser = argparse.ArgumentParser(description="Run one benchmark trajectory.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    clock = RoundClock()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install(MODULES)
    t0 = time.perf_counter()
    outcome, cae_cfg = run(workload, args.index, args.inputs, args.out)
    wall = time.perf_counter() - t0
    peak_rss_mb = peak_rss_kib() / 1024.0
    if tracer:
        tracer.uninstall()

    # quality of the step-1 product, outside the timed region
    store = popstore.PopulationStore(pipeline.step_population_root(cae_cfg, genome.ENCODER))
    best_id, best_acc = best_live_cae(store)
    if "test_accuracy" not in outcome:
        test = worker.load_run_data(cae_cfg)[2]
        net = engine.deserialize_network(store.load_weights(best_id))
        outcome["test_accuracy"] = recon_accuracy(net, test.x)

    record = {
        "workload": workload.name,
        "index": args.index,
        "setup_s": clock.first_start - t0,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "rounds": clock.rounds,
        "best_cae_id": best_id,
        "best_recon_acc": best_acc,
        **outcome,
    }
    if tracer:
        record["layers"] = tracer.summary()
        tracer.write_spans(args.out / "spans.jsonl")
    (args.out / "record.json").write_text(json.dumps(record))


if __name__ == "__main__":
    main()
