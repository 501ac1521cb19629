"""Per-layer spans, recorded from outside the program.

`Tracer.install` replaces public functions and layer methods of the
program with thin wrappers that record a span (name, start, end,
parent) around each call. Each wrapper is installed where the caller
looks the function up: `worker` imports `tournament_compare` by name,
so the wrapper goes on `worker.tournament_compare`, and `pipeline`
imports `select_best` and `pareto_fronts` by name. Spans stay in memory
until `summary` and `write_spans` run at the end of the trajectory.

A span's self time is its duration minus the durations of the spans it
directly caused. Spans nest strictly (one thread, one worker), so the
children never overlap. Every `<name>_s` metric reported for a span
with children is its self time.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

LAYER_KINDS = ("conv", "pool", "upsample", "crop", "flatten", "dense")

# span name -> per-layer metric holding its self time
SPAN_METRICS = {
    **{f"engine.{k}.{d}": f"engine.{k}.{d}_s" for k in LAYER_KINDS for d in ("forward", "backward")},
    "engine.step": "engine.step_s",
    "engine.train_network": "engine.train_loop_self_s",
    "engine.serialize": "engine.serialize_s",
    "engine.deserialize": "engine.deserialize_s",
    "genome.network_specs": "genome.network_specs_s",
    "genome.inherit_weights": "genome.inherit_weights_s",
    "genome.serialize": "genome.serialize_s",
    "genome.deserialize": "genome.deserialize_s",
    "mutation.mutate_valid": "mutation.mutate_valid_s",
    "selection.tournament_compare": "selection.tournament_compare_s",
    "selection.pareto_fronts": "selection.pareto_fronts_s",
    "mcdm.select_best": "mcdm.select_best_s",
    "popstore.sample_pair": "popstore.sample_pair_s",
    "popstore.load_all_fitness": "popstore.load_all_fitness_s",
    "popstore.publish": "popstore.publish_s",
    "popstore.kill": "popstore.kill_s",
    "popstore.load_weights": "popstore.load_weights_s",
    "popstore.load_genome_text": "popstore.load_genome_text_s",
    "popstore.append_round_log": "popstore.append_log_s",
    "data.load": "data.load_s",
    "data.split": "data.split_s",
    "data.encode_dataset": "data.encode_dataset_s",
    "data.write_evod": "data.write_evod_s",
    "data.read_evod": "data.read_evod_s",
    "worker.seed_population": "worker.seed_population_s",
    "worker.run_round": "worker.run_round_s",
    "worker.train_individual": "worker.train_individual_s",
    "worker.build_network": "worker.build_network_s",
    "pipeline.run_step": "pipeline.run_step_s",
    "pipeline.finalize_cae_step": "pipeline.finalize_cae_step_s",
    "pipeline.compose_final": "pipeline.compose_final_s",
    "pipeline.best_classifier_id": "pipeline.best_classifier_id_s",
    "pipeline.export_history": "pipeline.export_history_s",
}

COUNT_METRICS = (
    *(f"engine.{k}.calls" for k in LAYER_KINDS),
    "engine.weights_bytes",
    "engine.train_samples",
    "engine.diverged",
    "mutation.attempts",
    "mutation.valid",
    "mutation.exhausted",
    "selection.pareto_fronts_calls",
    *(f"selection.reason.{r}" for r in ("front", "isolation", "scalar", "coin")),
    "popstore.fitness_reads",
    "popstore.kill_missed",
    "data.load_calls",
    "data.read_evod_calls",
    "worker.rounds_attempted",
    "worker.rounds_completed",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self._undo = []

    def wrap(self, owner, attr, name, after=None, span=True):
        """Replace owner.attr; `after(tracer, args, result)` counts facts."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if not span:
                result = original(*args, **kwargs)
                if after is not None:
                    after(tracer, args, result)
                return result
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            entry = [name, time.perf_counter(), None, parent]
            tracer.spans.append(entry)
            tracer.stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.stack.pop()
                entry[2] = time.perf_counter()
            if after is not None:
                after(tracer, args, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def parent_name(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def install(self, ev):
        """Wrap the program's layers; `ev` maps module names to modules."""
        eng, gn, mu, wk, pl, dt = (ev[m] for m in ("engine", "genome", "mutation", "worker", "pipeline", "data"))
        store = ev["popstore"].PopulationStore
        layer_classes = {
            "conv": eng.ConvLayer, "pool": eng.MaxPoolLayer, "upsample": eng.UpsampleLayer,
            "crop": eng.CropLayer, "flatten": eng.FlattenLayer, "dense": eng.DenseLayer,
        }
        for kind, cls in layer_classes.items():
            self.wrap(cls, "forward", f"engine.{kind}.forward", _counter(f"engine.{kind}.calls"))
            self.wrap(cls, "backward", f"engine.{kind}.backward")
        self.wrap(eng.Network, "step", "engine.step")
        self.wrap(eng, "train_network", "engine.train_network", _after_train)
        self.wrap(eng, "serialize_network", "engine.serialize", _after_serialize)
        self.wrap(eng, "deserialize_network", "engine.deserialize")

        for attr in ("network_specs", "inherit_weights", "serialize", "deserialize"):
            self.wrap(gn, attr, f"genome.{attr}")

        self.wrap(mu, "mutate_valid", "mutation.mutate_valid", _after_mutate)
        self.wrap(mu, "apply_mutation", "mutation.apply", _after_apply, span=False)

        self.wrap(wk, "tournament_compare", "selection.tournament_compare", _after_compare)
        for module in (ev["selection"], pl):
            self.wrap(module, "pareto_fronts", "selection.pareto_fronts",
                      _counter("selection.pareto_fronts_calls"))
        self.wrap(pl, "select_best", "mcdm.select_best")

        for attr in ("sample_pair", "load_all_fitness", "publish", "load_weights",
                     "load_genome_text", "append_round_log"):
            self.wrap(store, attr, f"popstore.{attr}")
        self.wrap(store, "kill", "popstore.kill", _after_kill)
        self.wrap(store, "load_fitness", "popstore.load_fitness",
                  _counter("popstore.fitness_reads"), span=False)

        self.wrap(dt, "load_cifar10", "data.load", _counter("data.load_calls"))
        for attr in ("split", "encode_dataset", "write_evod"):
            self.wrap(dt, attr, f"data.{attr}")
        self.wrap(dt, "read_evod", "data.read_evod", _counter("data.read_evod_calls"))

        self.wrap(wk.Worker, "seed_population", "worker.seed_population")
        self.wrap(wk.Worker, "run_round", "worker.run_round", _after_round)
        self.wrap(wk, "train_individual", "worker.train_individual")
        self.wrap(wk, "build_network", "worker.build_network")

        for attr in ("run_step", "finalize_cae_step", "compose_final",
                     "best_classifier_id", "export_history"):
            self.wrap(pl, attr, f"pipeline.{attr}")

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summary(self):
        """Per-layer metrics of this trajectory: self seconds and counts."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time = defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            self_time[name] += (end - start) - child_time[i]
        out = {metric: self_time.get(span, 0.0) for span, metric in SPAN_METRICS.items()}
        out.update({name: self.counts.get(name, 0) for name in COUNT_METRICS})
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def _counter(name):
    def after(tracer, _args, _result):
        tracer.counts[name] += 1
    return after


def _after_train(tracer, args, report):
    view, batch_size = args[2], args[4]
    n = view.train_x.shape[0]
    tracer.counts["engine.train_samples"] += (n // batch_size) * batch_size * report.epochs_run
    tracer.counts["engine.diverged"] += int(report.diverged)


def _after_serialize(tracer, _args, blob):
    tracer.counts["engine.weights_bytes"] += len(blob)


def _after_mutate(tracer, _args, child):
    tracer.counts["mutation.exhausted" if isinstance(child, str) else "mutation.valid"] += 1


def _after_apply(tracer, _args, _child):
    if tracer.parent_name() == "mutation.mutate_valid":
        tracer.counts["mutation.attempts"] += 1


def _after_compare(tracer, _args, result):
    tracer.counts[f"selection.reason.{result[2]}"] += 1


def _after_kill(tracer, _args, killed):
    if not killed:
        tracer.counts["popstore.kill_missed"] += 1


def _after_round(tracer, _args, completed):
    tracer.counts["worker.rounds_attempted"] += 1
    tracer.counts["worker.rounds_completed"] += int(bool(completed))
