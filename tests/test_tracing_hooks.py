"""The benchmark's tracer (`perfbench/tracing.py`) wraps program functions
by name. A renamed function, or a call that bypasses the module attribute
the wrapper sits on, would silently read 0 in traced benchmark runs; this
runs a short traced step so tier-1 catches it."""

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


def test_traced_cae_step_reads_every_hook_and_uninstalls(tmp_path):
    cfg = RunConfig(
        population_root=str(tmp_path / "pop"),
        report_dir=str(tmp_path / "reports"),
        data_source="synth",
        synth_classes=2,
        synth_count=60,
        synth_size=8,
        synth_seed=3,
        seeds_per_worker=2,
        round_budget=6,
        epochs=1,
        batch_size=10,
        master_seed=11,
    ).check()
    before = namespaces()
    tracer = load_tracing().Tracer()
    tracer.install(MODULES)
    try:
        assert namespaces() != before
        pipeline.run_step(cfg, genome.ENCODER)
    finally:
        tracer.uninstall()
    assert namespaces() == before

    metrics = tracer.summary()
    for name in (
        "mutation.mutate_valid_s", "mutation.attempts", "mutation.valid",
        "genome.network_specs_s", "genome.inherit_weights_s",
        "genome.serialize_s", "genome.deserialize_s",
        "worker.seed_population_s", "worker.run_round_s", "worker.train_individual_s",
        "worker.build_network_s", "worker.rounds_attempted", "worker.rounds_completed",
    ):
        assert metrics[name] > 0, name
    assert metrics["mutation.attempts"] >= metrics["mutation.valid"]
    assert metrics["worker.rounds_completed"] == cfg.round_budget
