"""The benchmark's tracer (`perfbench/tracing.py`) wraps program functions
by name. A renamed function, or a call that bypasses the module attribute
the wrapper sits on, would silently read 0 in traced benchmark runs; this
runs short traced steps so tier-1 catches it. The tracer also reads
`train_network`'s arguments by position (the view at 2, the batch size
at 4), so a reordered signature would miscount the trained samples."""

import hashlib
import importlib.util
from pathlib import Path

from evocnn import data, engine, genome, mcdm, mutation, pipeline, popstore, selection, worker
from evocnn.config import RunConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = {
    "engine": engine, "genome": genome, "mutation": mutation, "selection": selection,
    "mcdm": mcdm, "popstore": popstore, "data": data, "worker": worker, "pipeline": pipeline,
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces():
    """A copy of every program module's namespace and of each class it defines."""
    out = {}
    for module in MODULES.values():
        out[module.__name__] = dict(vars(module))
        for name, obj in vars(module).items():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                out[f"{module.__name__}.{name}"] = dict(vars(obj))
    return out


def step_config(tmp_path):
    return RunConfig(
        population_root=str(tmp_path / "pop"),
        report_dir=str(tmp_path / "reports"),
        data_source="synth",
        n_classes=2,
        synth_count=60,
        synth_size=8,
        synth_seed=3,
        seeds_per_worker=2,
        round_budget=6,
        epochs=1,
        batch_size=10,
        master_seed=11,
    ).check()


def traced_step(cfg, kind):
    """Run one step under the tracer; returns its metrics."""
    before = namespaces()
    tracer = load_tracing().Tracer()
    tracer.install(MODULES)
    try:
        assert namespaces() != before
        pipeline.run_step(cfg, kind)
    finally:
        tracer.uninstall()
    assert namespaces() == before
    return tracer.summary()


def test_traced_cae_step_reads_every_hook_and_uninstalls(tmp_path):
    cfg = step_config(tmp_path)
    metrics = traced_step(cfg, genome.ENCODER)
    for name in (
        "mutation.mutate_valid_s", "mutation.attempts", "mutation.valid",
        "genome.network_specs_s", "genome.inherit_weights_s",
        "genome.serialize_s", "genome.deserialize_s",
        "worker.seed_population_s", "worker.run_round_s", "worker.train_individual_s",
        "worker.build_network_s", "worker.rounds_attempted", "worker.rounds_completed",
    ):
        assert metrics[name] > 0, name
    assert metrics["mutation.attempts"] >= metrics["mutation.valid"]
    # the tracer tells an exhausted retry loop from a (child, genes_from) pair
    assert metrics["mutation.valid"] + metrics["mutation.exhausted"] == cfg.round_budget
    assert metrics["worker.rounds_completed"] == cfg.round_budget


def test_traced_clf_step_counts_every_trained_sample(tmp_path):
    cfg = step_config(tmp_path)
    metrics = traced_step(cfg, genome.CLASSIFIER)
    n_train = worker.load_run_data(cfg)[0].n
    trained = cfg.seeds_per_worker + cfg.round_budget
    per_epoch = n_train // cfg.batch_size * cfg.batch_size
    assert metrics["engine.train_samples"] == trained * cfg.epochs * per_epoch
    assert metrics["engine.train_loop_self_s"] > 0
    assert metrics["engine.dense.calls"] > 0


def test_traced_step_history_equals_untraced(tmp_path):
    # the tracer wraps every layer's backward, which training calls with a
    # keyword: a wrapper that rejects it fails the step, and one that
    # changes arguments or results changes what evolves
    digests = []
    for name, run in (("traced", traced_step), ("untraced", pipeline.run_step)):
        cfg = step_config(tmp_path / name)
        run(cfg, genome.ENCODER)
        history = Path(cfg.report_dir) / f"history_{genome.GENOME_KINDS[genome.ENCODER].step}.csv"
        digests.append(hashlib.sha256(history.read_bytes()).hexdigest())
    assert digests[0] == digests[1]
