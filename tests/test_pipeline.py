import argparse
import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from evocnn import data as dt
from evocnn import engine as eng
from evocnn import genome as gn
from evocnn import pipeline as pl
from evocnn import worker as wk
from evocnn import cli
from evocnn.config import ConfigError, RunConfig, load_config, save_config
from evocnn.fileio import replacing
from evocnn.popstore import FITNESS_FILE, FitnessMeta, IdCollision, PopulationStore, StoreError
from evocnn.selection import FitnessRecord
from evocnn.worker import Worker, load_run_data, worker_seed_for

ROOT = Path(__file__).resolve().parents[1]


def tiny_cfg(tmp_path, **overrides):
    base = dict(
        population_root=str(tmp_path / "pop"),
        report_dir=str(tmp_path / "reports"),
        data_source="synth",
        n_classes=2,
        synth_count=60,
        synth_size=8,
        synth_seed=3,
        workers=1,
        seeds_per_worker=2,
        round_budget=3,
        epochs=1,
        batch_size=10,
        master_seed=11,
    )
    base.update(overrides)
    return RunConfig(**base).check()


def publish_off_genome(store, iid, g, built, shape, metric, n_classes=2):
    """Publish genome g with the weights of a network built for genome
    `built` on `shape`, or for g with an exact mirror's no-op crop added
    when `built` is "crop" (as weights stored before the decoder plan was
    fixed at build time hold it)."""
    rng = np.random.default_rng(0)
    if built == "crop":
        layers = wk.build_network(g, shape, rng, n_classes).layers
        assert [layer.kind for layer in layers] == ["conv", "pool", "upsample", "conv"]
        layers = layers[:3] + (eng.CropLayer(*shape[1:]),) + layers[3:]
    else:
        layers = wk.build_network(built, shape, rng, n_classes).layers
    meta = FitnessMeta(iid, g.kind, gn.fitness_record(g, shape, metric), 1.0, "w9", 0, None, "Seed")
    store.publish(gn.serialize(g), eng.serialize_network(eng.Network(layers)), meta)


# a stored network built for CONV 16 3 3 1 behind a CONV 8 3 3 1 genome:
# the layer kinds agree, the filter counts do not
WIDE = {kind: gn.Genome("wide", kind, (gn.ConvGene(16, 3, 3, 1), *k.seed_layers[1:]))
        for kind, k in gn.GENOME_KINDS.items()}


PATH_FIELDS = ("population_root", "report_dir", "dataset_dir", "evod_prefix")
FIELD_NAMES = [f.name for f in dataclasses.fields(RunConfig)]


@st.composite
def config_bytes(draw):
    """key = value lines over the config's keys and any text, encoded as
    UTF-8, or any bytes at all."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=60))
    keys = st.sampled_from(FIELD_NAMES) | st.text(max_size=8)
    values = st.text(max_size=12) | st.integers().map(str) | st.floats().map(str)
    lines = draw(st.lists(st.tuples(keys, values), max_size=6))
    return "\n".join(f"{k} = {v}" for k, v in lines).encode("utf-8")


class TestConfig:
    def test_load_key_value_with_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# a comment\n"
            "workers = 3\n"
            "round_budget = 5   # trailing comment\n"
            "learning_rate = 0.02\n"
            "\n"
        )
        cfg = load_config(path)
        assert cfg.workers == 3
        assert cfg.round_budget == 5
        assert cfg.learning_rate == 0.02

    def test_unknown_key_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("round_budget = 5\nbogus_key = 1\n")
        with pytest.raises(ConfigError, match=":2"):
            load_config(path)

    def test_repeated_key_rejected_with_both_line_numbers(self, tmp_path):
        # neither value may win silently
        path = tmp_path / "run.cfg"
        path.write_text("round_budget = 3\nworkers = 1\n# round_budget = 4\nround_budget = 5\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:4: round_budget is set again, first on line 1"):
            load_config(path)

    @pytest.mark.parametrize("key", ["synth_classes", "synth_channels"])
    def test_removed_synth_key_rejected(self, tmp_path, key):
        # n_classes is every source's class count, and synth images have 3 channels
        path = tmp_path / "run.cfg"
        path.write_text(f"round_budget = 5\n{key} = 4\n")
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            load_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("workers = many\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_save_load_round_trip(self, tmp_path):
        cfg = tiny_cfg(tmp_path, workers=2, momentum=0.8)
        path = tmp_path / "saved.cfg"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_undecodable_bytes_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"round_budget = 5\npopulation_root = \xff\xfe\n")
        with pytest.raises(ConfigError, match="UTF-8"):
            load_config(path)

    @pytest.mark.parametrize(
        "value",
        ["runs/run#1/pop", "two\nlines", "cr\rline", " lead", "trail\t", "sep\u2028"],
        ids=["hash", "newline", "carriage return", "leading space", "trailing tab",
             "line separator"],
    )
    def test_value_that_would_not_read_back_refused(self, tmp_path, value):
        with pytest.raises(ConfigError, match="would not read back"):
            save_config(tiny_cfg(tmp_path, population_root=value), tmp_path / "saved.cfg")
        assert not (tmp_path / "saved.cfg").exists()

    @given(config_bytes())
    @example(b"round_budget = 5\n\xff")
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_bytes_load_or_raise(self, tmp_path, raw):
        path = tmp_path / "fuzz.cfg"
        path.write_bytes(raw)
        try:
            cfg = load_config(path)
        except ConfigError:
            return
        assert cfg == cfg.check()

    @given(
        st.fixed_dictionaries({name: st.text(max_size=12) for name in PATH_FIELDS}),
        st.floats(1e-9, 1e9),
        st.integers(0, 2**64),
    )
    @example({"population_root": "runs/run#1/pop"}, 0.01, 0)
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_saved_config_loads_back_equal(self, tmp_path, paths, lr, seed):
        cfg = RunConfig(round_budget=1, learning_rate=lr, master_seed=seed, **paths).check()
        path = tmp_path / "saved.cfg"
        try:
            save_config(cfg, path)
        except ConfigError:
            return
        assert load_config(path) == cfg

    def test_environment_does_not_override_paths(self, tmp_path, monkeypatch):
        # the four variables that once overrode the path keys
        for name in ("POPULATION_ROOT", "REPORT_DIR", "DATASET_DIR", "EVOD_PREFIX"):
            monkeypatch.setenv(f"EVOCNN_{name}", f"from_env_{name.lower()}")
        path = tmp_path / "run.cfg"
        path.write_text("round_budget = 5\npopulation_root = pop_file\nreport_dir = rep_file\n"
                        "dataset_dir = data_file\nevod_prefix = evod_file\n")
        cfg = load_config(path)
        assert (cfg.population_root, cfg.report_dir, cfg.dataset_dir, cfg.evod_prefix) == (
            "pop_file", "rep_file", "data_file", "evod_file")

    @pytest.mark.parametrize("n_classes", [-1, 0, 1])
    def test_fewer_than_two_classes_rejected(self, tmp_path, n_classes):
        # with no class the synth source divides by zero; with one every
        # classifier scores 1.0
        path = tmp_path / "run.cfg"
        path.write_text(f"round_budget = 5\nn_classes = {n_classes}\n")
        with pytest.raises(ConfigError, match="n_classes"):
            load_config(path)

    @pytest.mark.parametrize(
        "overrides", [{"synth_count": -4}, {"synth_count": 0}, {"synth_size": 1}, {"synth_size": 0}],
        ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()),
    )
    def test_synth_shape_without_a_seed_network_rejected(self, tmp_path, overrides):
        # a negative count fails in numpy, and the seed encoder's 2x2 pool
        # does not fit a 1x1 image
        with pytest.raises(ConfigError, match="synth_"):
            tiny_cfg(tmp_path, **overrides)

    def test_smallest_synth_shape_accepted(self, tmp_path):
        tiny_cfg(tmp_path, synth_count=1, synth_size=2)

    def test_missing_budget_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            RunConfig(round_budget=0, wall_budget=0.0).check()

    def test_single_individual_population_rejected(self):
        # one live individual can never be paired, so the worker would spin forever
        with pytest.raises(ConfigError):
            RunConfig(workers=1, seeds_per_worker=1, round_budget=1).check()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"learning_rate": 0.0},
            {"learning_rate": -1.0},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"round_budget": 0, "wall_budget": float("nan")},
            {"round_budget": 0, "wall_budget": float("inf")},
            {"momentum": float("nan")},
            {"w_compression": float("nan")},
            {"w_accuracy": float("inf")},
        ],
        ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()),
    )
    def test_config_that_never_finishes_rejected(self, tmp_path, overrides):
        # with a rate <= 0 every seed fails Genome.check on read-back and no
        # round completes; a nan budget never expires
        with pytest.raises(ConfigError):
            tiny_cfg(tmp_path, **overrides)


class TestRunData:
    def test_label_beyond_class_count_rejected(self, tmp_path):
        # a 10-class EVOD cache read as a 4-class run would index past the head
        rng = np.random.default_rng(0)
        for tag in ("train", "val", "test"):
            y = np.arange(20) % 10
            dt.write_evod(tmp_path / f"{tag}.evod", dt.Dataset(x=rng.random((20, 2, 4, 4)), y=y))
        cfg = tiny_cfg(tmp_path, data_source="evod", evod_prefix=f"{tmp_path}/", n_classes=4)
        with pytest.raises(dt.DataError, match="label 9 .* n_classes = 4"):
            load_run_data(cfg)
        assert load_run_data(replace(cfg, n_classes=10))[0].n == 20

    def test_batch_larger_than_train_split_rejected(self, tmp_path):
        # batches drop the remainder, so every epoch would train on nothing
        cfg = tiny_cfg(tmp_path)
        n = load_run_data(cfg)[0].n
        with pytest.raises(dt.DataError, match=f"batch_size {n + 1} .* {n} training"):
            Worker(replace(cfg, batch_size=n + 1), 0, gn.ENCODER)
        assert not Path(cfg.population_root).exists()
        Worker(replace(cfg, batch_size=n), 0, gn.ENCODER).seed_population()


class TestWorkerSeeding:
    def test_worker_seeds_deterministic_and_distinct(self):
        seeds = [worker_seed_for(42, i) for i in range(8)]
        assert seeds == [worker_seed_for(42, i) for i in range(8)]
        assert len(set(seeds)) == 8
        assert worker_seed_for(43, 0) != seeds[0]

    def test_ids_deterministic_under_master_seed(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        a = Worker(cfg, 0, gn.ENCODER)
        b = Worker(cfg, 0, gn.ENCODER)
        assert [a._next_id() for _ in range(5)] == [b._next_id() for _ in range(5)]


class TestRoundProtocol:
    """A second store on the same directory stands in for a racing worker,
    which acts at a fixed point of the round through a monkeypatch."""

    def seeded_worker(self, tmp_path):
        cfg = tiny_cfg(tmp_path, seeds_per_worker=4)
        worker = Worker(cfg, 0, gn.ENCODER)
        worker.seed_population()
        sampled = []
        sample_pair = worker.store.sample_pair

        def recording_sample_pair(snapshot, rng):
            sampled.extend(sample_pair(snapshot, rng))
            return tuple(sampled)

        worker.store.sample_pair = recording_sample_pair
        return worker, PopulationStore(cfg.population_root), sampled

    def snapshot(self, store):
        return set(store.list_live()), store.read_claim_logs(), store.read_round_logs()

    def test_winner_vanishing_before_read_keeps_loser(self, tmp_path, monkeypatch):
        worker, racer, sampled = self.seeded_worker(tmp_path)
        live, claims, rounds = self.snapshot(racer)
        load_genome_text = worker.store.load_genome_text
        taken = []

        def winner_taken_first(winner):
            assert racer.kill(winner)
            taken.append(winner)
            return load_genome_text(winner)

        monkeypatch.setattr(worker.store, "load_genome_text", winner_taken_first)
        assert worker.run_round(0) is False
        (winner,) = taken
        (loser,) = set(sampled) - {winner}
        assert set(racer.list_live()) == live - {winner}
        assert loser in racer.list_live()
        assert self.snapshot(racer)[1:] == (claims, rounds)

    def test_loser_already_taken_publishes_nothing(self, tmp_path, monkeypatch):
        worker, racer, sampled = self.seeded_worker(tmp_path)
        live, claims, rounds = self.snapshot(racer)
        load_weights = worker.store.load_weights
        taken = []

        def loser_taken_first(winner):
            (loser,) = set(sampled) - {winner}
            assert racer.kill(loser)
            taken.append(loser)
            return load_weights(winner)

        monkeypatch.setattr(worker.store, "load_weights", loser_taken_first)
        assert worker.run_round(0) is False
        (loser,) = taken
        assert set(racer.list_live()) == live - {loser}
        assert self.snapshot(racer)[1:] == (claims, rounds)
        assert list(racer.tmp.iterdir()) == []

    def test_winner_weights_off_its_genome_abandon_the_round(self, tmp_path):
        # weights stored before the decoder plan was fixed at build time hold
        # a no-op crop after an exact mirror's up-sample; inheriting from
        # them would leave the decoder conv at its fresh init. Weights of
        # other filters than the genome's have the genome's layer kinds.
        for n, built in enumerate(("crop", WIDE[gn.ENCODER])):
            worker = Worker(tiny_cfg(tmp_path / str(n)), 0, gn.ENCODER)
            shape = worker.input_shape
            for iid, metric in (("winner", 0.9), ("loser", 0.1)):
                g = gn.seed_genome(gn.ENCODER, iid)
                publish_off_genome(worker.store, iid, g, built if iid == "winner" else g, shape,
                                   metric)
            live, claims, rounds = self.snapshot(worker.store)
            assert worker.run_round(0) is False
            assert live == {"winner", "loser"}
            assert self.snapshot(worker.store) == (live, claims, rounds)

    def test_round_builds_the_winners_layer_plan_once(self, tmp_path, monkeypatch):
        worker, racer, _sampled = self.seeded_worker(tmp_path)
        live = set(racer.list_live())
        planned = []
        network_specs = gn.network_specs

        def counted_network_specs(g, *args, **kwargs):
            planned.append(g.id)
            return network_specs(g, *args, **kwargs)

        monkeypatch.setattr(gn, "network_specs", counted_network_specs)
        assert worker.run_round(0) is True
        (child,) = set(racer.list_live()) - live
        winner = gn.deserialize(racer.load_genome_text(child)).parent_id
        # the stored weights are checked against the winner's plan, and
        # inheritance pairs layers by position, so neither plan is built twice
        assert planned.count(winner) == 1
        assert planned.count(child) == 1


class TestAbandonBound:
    def test_rounds_that_all_abandon_end_the_run(self, tmp_path, monkeypatch):
        # every individual holds weights off its genome, so every round's
        # winner is unreadable and no round can publish
        cfg = tiny_cfg(tmp_path, round_budget=1)
        worker = Worker(cfg, 0, gn.ENCODER)
        for iid, metric in (("a", 0.9), ("b", 0.1)):
            publish_off_genome(worker.store, iid, gn.seed_genome(gn.ENCODER, iid), "crop",
                               worker.input_shape, metric)
        monkeypatch.setattr(worker, "seed_population", lambda: None)
        calls = []
        run_round = worker.run_round

        def capped_run_round(round_index):
            calls.append(round_index)
            if len(calls) > 1000:
                raise AssertionError("rounds that all abandon never ended the run")
            return run_round(round_index)

        monkeypatch.setattr(worker, "run_round", capped_run_round)
        with pytest.raises(StoreError, match=r"^100 rounds in a row abandoned, the last: winner "
                                             r"(a|b) vanished or is unreadable: \1's weights do "
                                             r"not follow its genome$"):
            worker.run()
        assert len(calls) == wk.ABANDONED_ROUNDS_MAX == 100
        assert sorted(worker.store.list_live()) == ["a", "b"]
        assert worker.store.list_dead() == []

    def test_a_published_round_restarts_the_count(self, tmp_path):
        worker = Worker(tiny_cfg(tmp_path), 0, gn.ENCODER)
        worker.seed_population()
        worker.abandoned = wk.ABANDONED_ROUNDS_MAX - 1
        assert worker.run_round(0) is True
        assert worker.abandoned == 0


class TestIdleWait:
    @staticmethod
    def count_sleeps(monkeypatch, at_call=None, action=None, limit=50_000):
        """Replace the worker's sleep by a counter that runs `action` at call
        `at_call` and fails after `limit` calls; returns the list of calls."""
        sleeps = []

        def counted_sleep(seconds):
            sleeps.append(seconds)
            if len(sleeps) == at_call:
                action()
            if len(sleeps) > limit:
                raise AssertionError("the idle wait never ended")

        monkeypatch.setattr(wk.time, "sleep", counted_sleep)
        return sleeps

    def test_too_few_live_individuals_raise_once_no_worker_can_publish(self, tmp_path, monkeypatch):
        # the other worker raised before it published: no round can ever sample a pair
        cfg = tiny_cfg(tmp_path, workers=2, seeds_per_worker=1, round_budget=1)
        peer = Worker(cfg, 1, gn.ENCODER)
        monkeypatch.setattr(peer, "seed_population", lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            peer.run()
        sleeps = self.count_sleeps(monkeypatch)
        worker = Worker(cfg, 0, gn.ENCODER)
        with pytest.raises(StoreError, match="^1 live individual"):
            worker.run()
        assert len(sleeps) == wk.IDLE_SNAPSHOTS_MAX - 1
        assert len(worker.store.list_live()) == 1
        assert worker.store.idle_count() == 2

    def test_a_peer_training_longer_than_the_bound_is_waited_for(self, tmp_path, monkeypatch):
        # the peer has killed this worker's seed and trains its child for
        # longer than the bound's snapshots take; its publish ends the wait
        cfg = tiny_cfg(tmp_path, workers=2, seeds_per_worker=1, round_budget=1)
        worker, peer = Worker(cfg, 0, gn.ENCODER), Worker(cfg, 1, gn.ENCODER)
        worker.seed_population()
        peer.seed_population()
        (own_seed,) = [i for i in worker.store.list_live() if i.startswith("w0-")]
        assert peer.store.kill(own_seed)
        waits = 3 * wk.IDLE_SNAPSHOTS_MAX
        sleeps = self.count_sleeps(monkeypatch, waits, peer.seed_population)
        while not worker.run_round(0):
            pass
        assert len(sleeps) == waits
        assert len(worker.store.list_live()) == 2
        assert worker.store.idle_count() == 0

    def test_a_wall_budget_run_waits_for_its_budget(self, tmp_path, monkeypatch):
        cfg = tiny_cfg(tmp_path, workers=2, seeds_per_worker=1, round_budget=0, wall_budget=3600)
        PopulationStore(cfg.population_root).mark_idle("w1")  # a finished peer

        class Waited(Exception):
            pass

        def past_the_bound():
            raise Waited

        self.count_sleeps(monkeypatch, 3 * wk.IDLE_SNAPSHOTS_MAX, past_the_bound)
        with pytest.raises(Waited):
            Worker(cfg, 0, gn.ENCODER).run()

    def test_a_round_that_samples_a_pair_restarts_the_count(self, tmp_path, monkeypatch):
        # stalls just under the bound, a published round, then a stall that
        # waits the full bound again: the bound counts stalls in a row
        cfg = tiny_cfg(tmp_path, workers=2, seeds_per_worker=1, round_budget=1)
        worker, peer = Worker(cfg, 0, gn.ENCODER), Worker(cfg, 1, gn.ENCODER)
        worker.seed_population()
        store = worker.store
        store.mark_idle(peer.worker_id)  # a finished peer
        sleeps = self.count_sleeps(monkeypatch)
        for _ in range(wk.IDLE_SNAPSHOTS_MAX - 1):
            assert not worker.run_round(0)
        peer.seed_population()
        assert worker.run_round(0)
        _, *others = store.list_live()
        assert all(store.kill(iid) for iid in others)
        sleeps.clear()
        with pytest.raises(StoreError, match="^1 live individual"):
            while not worker.run_round(1):
                pass
        assert len(sleeps) == wk.IDLE_SNAPSHOTS_MAX - 1


class TestStepProductsAreReplaced:
    """A step product whose write raises partway keeps its previous bytes,
    and no temporary file is left beside it."""

    @staticmethod
    def assert_untouched(path, before, listing):
        assert path.read_bytes() == before
        assert sorted(path.parent.iterdir()) == listing

    def test_history_export(self, tmp_path, monkeypatch):
        cfg = tiny_cfg(tmp_path, round_budget=1)
        history = Path(pl.run_step(cfg, gn.ENCODER).history_csv)
        before, listing = history.read_bytes(), sorted(history.parent.iterdir())
        real_writer = csv.writer

        class FailingWriter:
            def __init__(self, fh):
                self.writer = real_writer(fh)
                self.writerow = self.writer.writerow

            def writerows(self, rows):
                self.writer.writerow(rows[0])
                raise OSError("no space left")

        monkeypatch.setattr(pl.csv, "writer", FailingWriter)
        with pytest.raises(OSError, match="no space left"):
            pl.export_history(pl.step_population_root(cfg, gn.ENCODER), history)
        self.assert_untouched(history, before, listing)

    def test_evod_cache(self, tmp_path, monkeypatch):
        path = tmp_path / "train.evod"
        ds = dt.synth_dataset(2, 10, 6, seed=3)
        dt.write_evod(path, ds)
        before, listing = path.read_bytes(), sorted(tmp_path.iterdir())
        # the header no longer packs, after the magic is written
        monkeypatch.setattr(dt, "_EVOD_VERSION", -1)
        with pytest.raises(dt.struct.error):
            dt.write_evod(path, ds)
        self.assert_untouched(path, before, listing)

    def test_any_block_that_raises(self, tmp_path):
        # the chosen encoder, the run summary and saved configs are written
        # by one such block each
        path = tmp_path / "chosen_cae.txt"
        path.write_text("w0-1-00000000\n")
        before, listing = path.read_bytes(), sorted(tmp_path.iterdir())
        with pytest.raises(OSError, match="no space left"):
            with replacing(path) as fh:
                fh.write("w0-")
                fh.flush()
                raise OSError("no space left")
        self.assert_untouched(path, before, listing)
        with replacing(path) as fh:
            fh.write("w1-2-00000000\n")
        assert path.read_text() == "w1-2-00000000\n"
        assert sorted(tmp_path.iterdir()) == listing

    def test_temporaries_of_killed_writers_are_removed(self, tmp_path):
        # a writer killed inside its block leaves its .<name>.<pid>.tmp; the
        # next write of that name removes those whose process has exited
        exited = int(subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                                    capture_output=True, text=True, check=True).stdout)
        path = tmp_path / "summary.json"
        stale = tmp_path / f".summary.json.{exited}.tmp"
        running = tmp_path / f".summary.json.{os.getppid()}.tmp"
        other_name = tmp_path / f".other.json.{exited}.tmp"
        for tmp in (stale, running, other_name):
            tmp.write_text("{")
        with replacing(path) as fh:
            fh.write("{}")
        assert sorted(tmp_path.iterdir()) == sorted([path, running, other_name])
        assert path.read_text() == "{}"


class TestRunStep:
    def test_cae_step_conserves_individuals(self, tmp_path):
        cfg = tiny_cfg(tmp_path, round_budget=4)
        summary = pl.run_step(cfg, gn.ENCODER)
        store = PopulationStore(pl.step_population_root(cfg, gn.ENCODER))
        live, dead = store.list_live(), store.list_dead()
        claims = [c for lst in store.read_claim_logs().values() for c in lst]
        # every claimed id is accounted for exactly once
        assert sorted(claims) == sorted(live + dead)
        assert summary.networks_generated == len(claims)
        # each completed round killed one and published one
        assert len(store.read_round_logs()) == 4
        assert len(claims) == cfg.seeds_per_worker + 4

    def test_worker_processes_ignore_env_path_overrides(self, tmp_path, monkeypatch):
        # each worker process loads the step's saved config; an environment path
        # override must not move its publishes from the step's cae/ dir to the root
        monkeypatch.setenv("EVOCNN_POPULATION_ROOT", str(tmp_path / "pop"))
        cfg = tiny_cfg(tmp_path, workers=2, seeds_per_worker=1, round_budget=1)
        summary = pl.run_step(cfg, gn.ENCODER)
        assert summary.networks_generated == 2 * (1 + 1)
        assert not (tmp_path / "pop" / "live").exists()

    def test_history_export_is_lineage_consistent(self, tmp_path):
        cfg = tiny_cfg(tmp_path, round_budget=4)
        pl.run_step(cfg, gn.ENCODER)
        with open(Path(cfg.report_dir) / "history_cae.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        offsets = [int(r["offset"]) for r in rows]
        assert offsets == list(range(len(rows)))
        published_at = {r["id"]: int(r["offset"]) for r in rows}
        for r in rows:
            if r["parent_id"] != "-":
                assert published_at[r["parent_id"]] < published_at[r["id"]]
                assert int(r["generation"]) >= 1
            else:
                assert r["mutation"] == "Seed"

    def test_history_export_is_deterministic(self, tmp_path):
        cfg = tiny_cfg(tmp_path, round_budget=3)
        pl.run_step(cfg, gn.ENCODER)
        root = pl.step_population_root(cfg, gn.ENCODER)
        out1, out2 = tmp_path / "h1.csv", tmp_path / "h2.csv"
        pl.export_history(root, out1)
        pl.export_history(root, out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_history_rows_follow_publish_order(self, tmp_path):
        # b (generation 1) is published after c (generation 2), and d dies
        store = PopulationStore(tmp_path / "pop")
        for iid, gen, parent in [("a", 0, None), ("d", 1, "a"), ("c", 2, "d"), ("b", 1, "a")]:
            meta = FitnessMeta(iid, gn.ENCODER, FitnessRecord((0.5, 0.5)), 1.0, "w0", gen, parent,
                               "Seed" if parent is None else "Identity")
            store.publish("", b"", meta)
        store.kill("d")
        rows = pl.export_history(store.root, tmp_path / "h.csv")
        assert [(r[0], r[1]) for r in rows] == [("0", "a"), ("1", "d"), ("2", "c"), ("3", "b")]

    def test_history_lists_ids_in_the_order_publish_received_them(self, tmp_path, monkeypatch):
        # a population of 6 lets a child be published after a deeper
        # descendant of another lineage, which a population of 2 cannot show
        published = []
        publish = PopulationStore.publish

        def recording_publish(store, genome_text, weights_blob, meta):
            published.append(meta.id)
            return publish(store, genome_text, weights_blob, meta)

        monkeypatch.setattr(PopulationStore, "publish", recording_publish)
        cfg = tiny_cfg(tmp_path, seeds_per_worker=6, round_budget=20)
        summary = pl.run_step(cfg, gn.ENCODER)
        with open(summary.history_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["id"] for r in rows] == published
        generations = [int(r["generation"]) for r in rows]
        assert generations != sorted(generations)

    def test_classifier_step_reports_scalar_metric(self, tmp_path):
        cfg = tiny_cfg(tmp_path, round_budget=2)
        summary = pl.run_step(cfg, gn.CLASSIFIER)
        assert 0.0 <= summary.best_metric <= 1.0
        store = PopulationStore(pl.step_population_root(cfg, gn.CLASSIFIER))
        for iid, meta in store.load_all_fitness().items():
            assert len(meta.record.values) == 1


class TestCaeSelection:
    def test_finalize_writes_caches_and_choice(self, tmp_path):
        cfg = tiny_cfg(tmp_path, round_budget=3)
        pl.run_step(cfg, gn.ENCODER)
        encoder_id, prefix = pl.finalize_cae_step(cfg)
        assert (Path(cfg.report_dir) / "chosen_cae.txt").read_text().strip() == encoder_id
        train, val, test = load_run_data(cfg)
        for tag, ds in (("train", train), ("val", val), ("test", test)):
            cached = dt.read_evod(f"{prefix}{tag}.evod", split=tag)
            assert cached.n == ds.n
            np.testing.assert_array_equal(cached.y, ds.y)
            # encoded samples are strictly smaller than the originals
            assert np.prod(cached.sample_shape) < np.prod(ds.sample_shape)

    def test_chosen_encoder_is_on_front_zero(self, tmp_path):
        cfg = tiny_cfg(tmp_path, round_budget=3)
        pl.run_step(cfg, gn.ENCODER)
        store = PopulationStore(pl.step_population_root(cfg, gn.ENCODER))
        alts = pl.live_cae_alternatives(store)
        encoder_id, _ = pl.finalize_cae_step(cfg)
        assert encoder_id in {a.id for a in alts}


class TestStoredNetworkReads:
    """Step 2 and step 4 read a stored network through the round's checked
    reader, so weights off their genome stop them."""

    def test_finalize_refuses_an_encoder_off_its_genome(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        store = PopulationStore(pl.step_population_root(cfg, gn.ENCODER))
        shape = load_run_data(cfg)[0].sample_shape
        publish_off_genome(store, "enc-off", gn.seed_genome(gn.ENCODER, "enc-off"),
                           WIDE[gn.ENCODER], shape, 0.9)
        with pytest.raises(gn.GenomeError, match="^enc-off's weights do not follow its genome"):
            pl.finalize_cae_step(cfg)
        assert list(Path(cfg.report_dir).glob("*")) == []

    def test_parent_network_off_its_genome_raises(self, tmp_path):
        # an exact mirror's no-op crop, as populations stored before the
        # decoder plan was fixed at build time hold it: inheriting from it
        # by position would pair the child's decoder conv with the crop
        store = PopulationStore(tmp_path / "pop")
        shape = (3, 16, 16)
        publish_off_genome(store, "p", gn.seed_genome(gn.ENCODER, "p"), "crop", shape, 0.9)
        with pytest.raises(gn.GenomeError, match="^p's weights do not follow its genome$"):
            wk.read_individual(store, "p", shape, 10)

    @pytest.mark.parametrize("off", [gn.ENCODER, gn.CLASSIFIER])
    def test_compose_refuses_a_network_off_its_genome(self, tmp_path, off):
        cfg = tiny_cfg(tmp_path)
        shape = load_run_data(cfg)[0].sample_shape
        encoded_shape = gn.infer_shapes(gn.seed_genome(gn.ENCODER, "e"), shape)[-1]
        for kind, on in ((gn.ENCODER, shape), (gn.CLASSIFIER, encoded_shape)):
            g = gn.seed_genome(kind, kind)
            store = PopulationStore(pl.step_population_root(cfg, kind))
            publish_off_genome(store, kind, g, WIDE[kind] if kind == off else g, on, 0.9)
        with pytest.raises(gn.GenomeError, match=f"^{off}'s weights do not follow its genome"):
            pl.compose_final(cfg, gn.ENCODER, gn.CLASSIFIER)


class TestCompose:
    def test_compose_refuses_a_classifier_whose_logits_overflow(self, tmp_path):
        # when every live classifier scored 0.0 the best one may have diverged;
        # its logits overflow, and a NaN accuracy must not reach summary.json
        cfg = tiny_cfg(tmp_path)
        shape = load_run_data(cfg)[0].sample_shape
        enc = gn.seed_genome(gn.ENCODER, "enc")
        publish_off_genome(PopulationStore(pl.step_population_root(cfg, gn.ENCODER)),
                           "enc", enc, enc, shape, 0.9)
        encoded_shape = gn.infer_shapes(enc, shape)[-1]
        clf = gn.seed_genome(gn.CLASSIFIER, "clf")
        net = wk.build_network(clf, encoded_shape, np.random.default_rng(0), cfg.n_classes)
        for layer in net.layers:
            for p in layer.params():
                p[...] = 1e30  # finite in float32, but a product of two is not
        meta = FitnessMeta("clf", gn.CLASSIFIER, FitnessRecord((0.0,)), 1.0, "w9", 0, None, "Seed")
        PopulationStore(pl.step_population_root(cfg, gn.CLASSIFIER)).publish(
            gn.serialize(clf), eng.serialize_network(net), meta)
        with pytest.raises(pl.PipelineError, match="^enc \\+ clf makes non-finite logits"):
            pl.compose_final(cfg, "enc", "clf")

    def test_composed_network_equals_two_stage_evaluation(self, tmp_path, monkeypatch):
        result_cfg = tiny_cfg(tmp_path, round_budget=2)
        sources = []

        def counting_load_run_data(cfg):
            sources.append(cfg.data_source)
            return load_run_data(cfg)

        monkeypatch.setattr(pl, "load_run_data", counting_load_run_data)
        monkeypatch.setattr(wk, "load_run_data", counting_load_run_data)
        result = pl.run_full_pipeline(result_cfg)
        # raw data: once for the CAE worker, once for finalize and compose
        assert sorted(sources) == ["evod", "synth", "synth"]
        assert 0.0 <= result["test_accuracy"] <= 1.0

        cae_store = PopulationStore(pl.step_population_root(result_cfg, gn.ENCODER))
        clf_store = PopulationStore(pl.step_population_root(result_cfg, gn.CLASSIFIER))
        enc_g = gn.deserialize(cae_store.load_genome_text(result["encoder_id"]))
        enc_net = eng.deserialize_network(cae_store.load_weights(result["encoder_id"]))
        clf_net = eng.deserialize_network(clf_store.load_weights(result["classifier_id"]))
        encoder = eng.Network(enc_net.layers[: len(enc_g.layers)])
        composed, _ = pl.compose_final(result_cfg, result["encoder_id"], result["classifier_id"])
        # the classifier step runs on EVOD caches but keeps the run's class count
        assert composed.layers[-1].units == result_cfg.n_classes == 2

        _train, _val, test = load_run_data(result_cfg)
        x = test.x[:32]
        np.testing.assert_allclose(
            composed.forward(x), clf_net.forward(encoder.forward(x)), rtol=1e-12
        )

    def test_compose_accuracy_matches_encoded_classifier_accuracy(self, tmp_path):
        cfg = tiny_cfg(tmp_path, round_budget=2)
        result = pl.run_full_pipeline(cfg)
        clf_store = PopulationStore(pl.step_population_root(cfg, gn.CLASSIFIER))
        clf_net = eng.deserialize_network(clf_store.load_weights(result["classifier_id"]))
        prefix = Path(cfg.report_dir) / f"encoded_{result['encoder_id']}_"
        encoded_test = dt.read_evod(f"{prefix}test.evod", split="test")
        logits = clf_net.forward(encoded_test.x)
        two_stage = float((logits.argmax(axis=1) == encoded_test.y).mean())
        # EVOD caches store f32, the composed path is f64 end to end
        assert abs(two_stage - result["test_accuracy"]) <= 0.01


class TestCli:
    def test_worker_subprocess_round_trip(self, tmp_path):
        cfg = tiny_cfg(tmp_path, round_budget=1, seeds_per_worker=2)
        cfg_path = tmp_path / "run.cfg"
        save_config(replace(cfg, population_root=str(tmp_path / "pop" / "cae")), cfg_path)
        subprocess.run(
            [sys.executable, "-m", "evocnn.cli", "worker",
             "--config", str(cfg_path), "--index", "0", "--kind", gn.ENCODER],
            check=True, capture_output=True,
        )
        store = PopulationStore(tmp_path / "pop" / "cae")
        assert len(store.list_live()) + len(store.list_dead()) == 3

    def test_worker_unknown_kind_rejected(self):
        from evocnn.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker", "--config", "x", "--index", "0", "--kind", "foo"])

    @pytest.mark.parametrize(
        "argv",
        [
            # run_step seeds every worker itself, so a seed verb could only
            # publish the same seed ids twice
            ["seed", "--config", "x"],
            # the TOPSIS weights are w_compression/w_accuracy in the config
            ["select-cae", "--weights", "0.5,0.5", "--front", "front.csv"],
            # the step products chosen_cae.txt and the classifier population name the pair
            ["compose", "--config", "x", "--encoder-id", "x"],
        ],
        ids=["seed", "select-cae", "compose --encoder-id"],
    )
    def test_seed_verb_is_gone(self, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2

    def test_rerun_step_publishes_no_id_twice(self, tmp_path):
        cfg, cfg_path = tiny_cfg(tmp_path, round_budget=2), tmp_path / "run.cfg"
        save_config(cfg, cfg_path)
        cli.main(["evolve-cae", "--config", str(cfg_path)])
        store = PopulationStore(pl.step_population_root(cfg, gn.ENCODER))
        before = (store.list_live(), store.list_dead())
        with pytest.raises(IdCollision):
            cli.main(["evolve-cae", "--config", str(cfg_path)])
        assert (store.list_live(), store.list_dead()) == before

    def test_rerun_multi_worker_step_names_failed_workers(self, tmp_path):
        cfg = tiny_cfg(tmp_path, workers=2, seeds_per_worker=1, round_budget=1)
        cfg_path = tmp_path / "run.cfg"
        save_config(cfg, cfg_path)
        cli.main(["evolve-cae", "--config", str(cfg_path)])
        # both worker processes stop with IdCollision on their first seed
        with pytest.raises(pl.PipelineError,
                           match="worker 0 exited with code 1; worker 1 exited with code 1"):
            cli.main(["evolve-cae", "--config", str(cfg_path)])

    def test_evolve_clf_before_encode_names_the_missing_choice(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        save_config(tiny_cfg(tmp_path), cfg_path)
        with pytest.raises(pl.PipelineError, match="chosen_cae.txt"):
            cli.main(["evolve-clf", "--config", str(cfg_path)])

    @pytest.mark.parametrize("verb", [["report", "--step", "cae"], ["report", "--step", "clf"],
                                      ["encode"], ["compose"]])
    def test_verb_on_a_step_that_never_ran_changes_nothing(self, tmp_path, verb):
        # a mistyped population_root: the verb names the missing step
        # directory, and neither builds a store there nor replaces a product
        cfg = tiny_cfg(tmp_path, population_root=str(tmp_path / "typo"))
        cfg_path = tmp_path / "run.cfg"
        save_config(cfg, cfg_path)
        reports = Path(cfg.report_dir)
        reports.mkdir()
        for name in ("history_cae.csv", "history_clf.csv", "chosen_cae.txt"):
            (reports / name).write_text(f"earlier {name}\n")
        listing = sorted(tmp_path.rglob("*"))
        step = "clf" if verb in (["compose"], ["report", "--step", "clf"]) else "cae"
        missing = re.escape(f"{tmp_path / 'typo' / step} is missing")
        with pytest.raises(pl.PipelineError, match=missing):
            cli.main([*verb, "--config", str(cfg_path)])
        assert sorted(tmp_path.rglob("*")) == listing
        for name in ("history_cae.csv", "history_clf.csv", "chosen_cae.txt"):
            assert (reports / name).read_text() == f"earlier {name}\n"

    def test_report_names_an_unreadable_sidecar(self, tmp_path):
        cfg, cfg_path = tiny_cfg(tmp_path, round_budget=2), tmp_path / "run.cfg"
        save_config(cfg, cfg_path)
        cli.main(["evolve-cae", "--config", str(cfg_path)])
        store = PopulationStore(pl.step_population_root(cfg, gn.ENCODER))
        sidecar = store.dead / store.list_dead()[0] / FITNESS_FILE
        sidecar.write_text(sidecar.read_text()[:6])
        with pytest.raises(StoreError, match=re.escape(str(sidecar))):
            cli.main(["report", "--config", str(cfg_path)])

    def test_verbs_on_one_config_match_full_pipeline(self, tmp_path, capsys):
        def run_cfg(workdir):
            # step 3 runs on EVOD caches, which carry no class count: the
            # classifier head must still take the run's 4 classes
            return tiny_cfg(workdir, n_classes=4, synth_count=160, round_budget=2)

        cli_cfg, full_cfg = run_cfg(tmp_path / "cli"), run_cfg(tmp_path / "full")
        cfg_path = tmp_path / "run.cfg"
        save_config(cli_cfg, cfg_path)
        steps = (["evolve-cae"], ["encode"], ["evolve-clf"], ["compose"], ["report", "--step", "clf"])
        for verb in steps:
            cli.main([*verb, "--config", str(cfg_path)])
        out = capsys.readouterr().out.splitlines()
        composed_line = [line for line in out if line.startswith("composed")]

        result = pl.run_full_pipeline(full_cfg)
        for name in ("history_cae.csv", "history_clf.csv"):
            cli_bytes = (Path(cli_cfg.report_dir) / name).read_bytes()
            assert cli_bytes == (Path(full_cfg.report_dir) / name).read_bytes()
        encoder_id = pl.chosen_encoder_id(cli_cfg)
        assert encoder_id == result["encoder_id"]
        composed, accuracy = pl.compose_final(cli_cfg, encoder_id, pl.best_classifier_id(cli_cfg))
        assert accuracy == result["test_accuracy"]
        assert composed_line == [
            f"composed {encoder_id} + {result['classifier_id']}: test accuracy {accuracy:.4f}"
        ]
        assert composed.layers[-1].units == 4


class TestQuickStart:
    def test_run_verb_writes_summary(self, tmp_path):
        cfg = tiny_cfg(tmp_path, n_classes=4, synth_count=80, round_budget=1)
        cfg_path = tmp_path / "run.cfg"
        save_config(cfg, cfg_path)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run(
            [sys.executable, "-m", "evocnn.cli", "run", "--config", str(cfg_path)],
            env=env, check=True, capture_output=True, text=True, timeout=300,
        ).stdout.splitlines()
        summary = json.loads((Path(cfg.report_dir) / "summary.json").read_text())
        assert set(summary) == {
            "encoder_id", "classifier_id", "cae_networks_generated",
            "cae_best_reconstruction_accuracy", "clf_networks_generated",
            "clf_best_validation_accuracy", "test_accuracy",
        }
        assert 0.0 <= summary["test_accuracy"] <= 1.0
        # the lines evolve-cae, evolve-clf and compose print, in that order
        assert out == [
            *(f"step={step} networks_generated={summary[f'{step}_networks_generated']} "
              f"best_metric={summary[f'{step}_best_{metric}_accuracy']:.4f} "
              f"history={Path(cfg.report_dir) / f'history_{step}.csv'}"
              for step, metric in (("cae", "reconstruction"), ("clf", "validation"))),
            f"composed {summary['encoder_id']} + {summary['classifier_id']}: "
            f"test accuracy {summary['test_accuracy']:.4f}",
        ]

    def test_run_verb_takes_no_flag_but_config(self):
        # every setting of the run, its scale included, comes from the config file
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        flags = {flag for action in sub.choices["run"]._actions for flag in action.option_strings}
        assert flags == {"-h", "--help", "--config"}
