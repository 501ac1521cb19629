import csv
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from evocnn import data as dt
from evocnn import engine as eng
from evocnn import genome as gn
from evocnn import pipeline as pl
from evocnn import worker as wk
from evocnn.config import ConfigError, RunConfig, load_config, save_config
from evocnn.popstore import PopulationStore
from evocnn.worker import Worker, load_run_data, worker_seed_for


def tiny_cfg(tmp_path, **overrides):
    base = dict(
        population_root=str(tmp_path / "pop"),
        report_dir=str(tmp_path / "reports"),
        data_source="synth",
        synth_classes=2,
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

    def test_env_overrides_paths_only(self, tmp_path, monkeypatch):
        path = tmp_path / "run.cfg"
        path.write_text("round_budget = 5\npopulation_root = from_file\n")
        monkeypatch.setenv("EVOCNN_POPULATION_ROOT", "from_env")
        monkeypatch.setenv("EVOCNN_REPORT_DIR", "rep_env")
        cfg = load_config(path)
        assert cfg.population_root == "from_env"
        assert cfg.report_dir == "rep_env"

    def test_missing_budget_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            RunConfig(round_budget=0, wall_budget=0.0).check()

    def test_single_individual_population_rejected(self):
        # one live individual can never be paired, so the worker would spin forever
        with pytest.raises(ConfigError):
            RunConfig(workers=1, seeds_per_worker=1, round_budget=1).check()


class TestWorkerSeeding:
    def test_worker_seeds_deterministic_and_distinct(self):
        seeds = [worker_seed_for(42, i) for i in range(8)]
        assert seeds == [worker_seed_for(42, i) for i in range(8)]
        assert len(set(seeds)) == 8
        assert worker_seed_for(43, 0) != seeds[0]

    def test_ids_deterministic_under_master_seed(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        data = load_run_data(cfg)
        a = Worker(cfg, 0, gn.ENCODER, datasets=data)
        b = Worker(cfg, 0, gn.ENCODER, datasets=data)
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


class TestRunStep:
    def test_cae_step_conserves_individuals(self, tmp_path):
        cfg = tiny_cfg(tmp_path, round_budget=4)
        summary = pl.run_step(cfg, gn.ENCODER, in_process=True)
        store = PopulationStore(pl.step_population_root(cfg, gn.ENCODER))
        live, dead = store.list_live(), store.list_dead()
        claims = [c for lst in store.read_claim_logs().values() for c in lst]
        # every claimed id is accounted for exactly once
        assert sorted(claims) == sorted(live + dead)
        assert summary.networks_generated == len(claims)
        # each completed round killed one and published one
        assert len(store.read_round_logs()) == 4
        assert len(claims) == cfg.seeds_per_worker + 4

    def test_history_export_is_lineage_consistent(self, tmp_path):
        cfg = tiny_cfg(tmp_path, round_budget=4)
        pl.run_step(cfg, gn.ENCODER, in_process=True)
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
        pl.run_step(cfg, gn.ENCODER, in_process=True)
        root = pl.step_population_root(cfg, gn.ENCODER)
        out1, out2 = tmp_path / "h1.csv", tmp_path / "h2.csv"
        pl.export_history(root, out1)
        pl.export_history(root, out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_classifier_step_reports_scalar_metric(self, tmp_path):
        cfg = tiny_cfg(tmp_path, round_budget=2)
        summary = pl.run_step(cfg, gn.CLASSIFIER, in_process=True)
        assert 0.0 <= summary.best_metric <= 1.0
        store = PopulationStore(pl.step_population_root(cfg, gn.CLASSIFIER))
        for iid, meta in store.load_all_fitness().items():
            assert meta.record.scalar is not None


class TestCaeSelection:
    def test_finalize_writes_caches_and_choice(self, tmp_path):
        cfg = tiny_cfg(tmp_path, round_budget=3)
        pl.run_step(cfg, gn.ENCODER, in_process=True)
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
        pl.run_step(cfg, gn.ENCODER, in_process=True)
        store = PopulationStore(pl.step_population_root(cfg, gn.ENCODER))
        alts, _ = pl.live_cae_alternatives(store)
        encoder_id, _ = pl.finalize_cae_step(cfg)
        assert encoder_id in {a.id for a in alts}


class TestCompose:
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
        # the classifier step runs on EVOD caches but keeps the raw source's class count
        assert composed.layers[-1].units == result_cfg.synth_classes == 2

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
    def test_select_cae_ranks_front_csv(self, tmp_path):
        front = tmp_path / "front.csv"
        with open(front, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "compression", "accuracy"])
            writer.writerow(["0", "1.00", "0.0"])
            writer.writerow(["507", "0.66", "0.7028"])
            writer.writerow(["841", "0.98", "0.1493"])
        out = subprocess.run(
            [sys.executable, "-m", "evocnn.cli", "select-cae",
             "--weights", "0.5,0.5", "--front", str(front)],
            capture_output=True, text=True, check=True,
        )
        lines = out.stdout.strip().splitlines()
        assert lines[0].startswith("id,")
        assert lines[1].startswith("507,")
        score = float(lines[1].split(",")[3])
        assert score == pytest.approx(0.681018, abs=1e-6)

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
