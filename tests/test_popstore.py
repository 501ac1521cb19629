import math
import multiprocessing as mp

import numpy as np
import pytest

from evocnn.popstore import (
    FITNESS_FILE,
    GENOME_FILE,
    WEIGHTS_FILE,
    FitnessMeta,
    IdCollision,
    PopulationStore,
    StoreError,
    format_fitness_line,
    parse_fitness_line,
)
from evocnn.selection import FitnessRecord


def meta_for(iid, scalar=None, pair=None, worker="w0", gen=0, parent=None, mut="Seed"):
    record = FitnessRecord(scalar=scalar) if scalar is not None else FitnessRecord(pair=pair)
    return FitnessMeta(
        id=iid, kind="Encoder", record=record, wall_seconds=1.25,
        worker_id=worker, generation=gen, parent_id=parent, mutation=mut,
    )


def publish(store, iid, **kw):
    if "scalar" not in kw and "pair" not in kw:
        kw["pair"] = (0.5, 0.5)
    store.publish(iid, f"genome for {iid}\n", b"\x00\x01" + iid.encode(), meta_for(iid, **kw))


class TestFitnessLine:
    def test_scalar_round_trip(self):
        m = meta_for("a-1", scalar=0.875, gen=3, parent="a-0", mut="InsertConv")
        assert parse_fitness_line(format_fitness_line(m)) == m

    def test_pair_round_trip_preserves_floats_exactly(self):
        m = meta_for("b-2", pair=(0.6666666666666666, 0.7028))
        back = parse_fitness_line(format_fitness_line(m))
        assert back.record.pair == (0.6666666666666666, 0.7028)

    def test_missing_parent_serialized_as_dash(self):
        line = format_fitness_line(meta_for("c", scalar=0.1))
        assert line.split(",")[6] == "-"
        assert parse_fitness_line(line).parent_id is None

    @pytest.mark.parametrize(
        "line",
        [
            pytest.param("only,three,fields\n", id="field count"),
            pytest.param("a,Encoder,high,1.25,w0,0,-,Seed\n", id="non-numeric metric"),
            pytest.param("a,Encoder,0.5:0.2:0.1,1.25,w0,0,-,Seed\n", id="three-part pair"),
            pytest.param("a,Encoder,0.5:,1.25,w0,0,-,Seed\n", id="empty pair half"),
            pytest.param("a,Encoder,0.5:0.2,slow,w0,0,-,Seed\n", id="non-numeric wall time"),
            pytest.param("a,Encoder,0.5:0.2,1.25,w0,first,-,Seed\n", id="non-integer generation"),
            pytest.param("a,Encoder,nan:0.5,1.25,w0,0,-,Seed\n", id="nan compression"),
            pytest.param("a,Encoder,0.5:inf,1.25,w0,0,-,Seed\n", id="inf accuracy"),
            pytest.param("a,Classifier,nan,1.25,w0,0,-,Seed\n", id="nan scalar"),
            pytest.param("a,Encoder,0.5:0.2,inf,w0,0,-,Seed\n", id="inf wall time"),
            pytest.param("a,Encoder,0.5:0.2,nan,w0,0,-,Seed\n", id="nan wall time"),
        ],
    )
    def test_malformed_line_rejected(self, line):
        with pytest.raises(StoreError):
            parse_fitness_line(line)


class TestPublishAndList:
    def test_publish_makes_individual_visible(self, tmp_path):
        store = PopulationStore(tmp_path)
        publish(store, "w0-0-abc")
        assert store.list_live() == ["w0-0-abc"]
        d = store.live / "w0-0-abc"
        assert (d / GENOME_FILE).exists()
        assert (d / WEIGHTS_FILE).exists()
        assert (d / FITNESS_FILE).exists()
        assert store.load_genome_text("w0-0-abc") == "genome for w0-0-abc\n"

    def test_publish_is_all_or_nothing(self, tmp_path):
        # nothing may linger under live/ or tmp/ after a successful publish
        store = PopulationStore(tmp_path)
        publish(store, "x")
        assert list(store.tmp.iterdir()) == []

    def test_duplicate_id_collides_and_cleans_staging(self, tmp_path):
        store = PopulationStore(tmp_path)
        publish(store, "dup")
        with pytest.raises(IdCollision):
            publish(store, "dup")
        assert store.list_live() == ["dup"]
        assert list(store.tmp.iterdir()) == []

    def test_partial_staging_dir_is_never_live(self, tmp_path):
        # simulate a crash mid-write: a staging dir exists but was never renamed
        store = PopulationStore(tmp_path)
        crashed = store.tmp / "ghost.999"
        crashed.mkdir()
        (crashed / GENOME_FILE).write_text("half-written")
        assert store.list_live() == []
        assert store.sample_pair(store.load_all_fitness(), np.random.default_rng(0)) is None

    def test_load_fitness_round_trip(self, tmp_path):
        store = PopulationStore(tmp_path)
        publish(store, "p", pair=(0.66, 0.7028), gen=7, parent="q", mut="AlterStride")
        m = store.load_fitness("p")
        assert m.record.pair == (0.66, 0.7028)
        assert m.generation == 7 and m.parent_id == "q"


class CountingStore(PopulationStore):
    """Counts the sidecar reads behind each snapshot."""

    def __init__(self, root):
        super().__init__(root)
        self.reads = []

    def load_fitness(self, individual_id, dirname="live"):
        self.reads.append(individual_id)
        return super().load_fitness(individual_id, dirname)


class TestFitnessSnapshot:
    def test_each_sidecar_read_once(self, tmp_path):
        store = CountingStore(tmp_path)
        for iid in ("a", "b", "c"):
            publish(store, iid)
        for _ in range(5):
            assert sorted(store.load_all_fitness()) == ["a", "b", "c"]
        assert sorted(store.reads) == ["a", "b", "c"]

    def test_snapshot_follows_kills_and_publishes(self, tmp_path):
        # a second store on the same directory stands in for another worker
        store, other = CountingStore(tmp_path), PopulationStore(tmp_path)
        for iid in ("a", "b", "c"):
            publish(store, iid)
        store.load_all_fitness()
        other.kill("b")
        publish(other, "d", pair=(0.9, 0.1))
        snapshot = store.load_all_fitness()
        assert sorted(snapshot) == ["a", "c", "d"]
        assert snapshot["d"].record.pair == (0.9, 0.1)
        assert sorted(store.reads) == ["a", "b", "c", "d"]

    def test_vanished_or_unreadable_entry_skipped_and_not_cached(self, tmp_path):
        store = CountingStore(tmp_path)
        publish(store, "a")
        publish(store, "b")
        sidecar = store.live / "b" / FITNESS_FILE
        good = sidecar.read_text()
        sidecar.write_text("not,a,sidecar\n")
        assert sorted(store.load_all_fitness()) == ["a"]
        sidecar.unlink()
        assert sorted(store.load_all_fitness()) == ["a"]
        sidecar.write_text(good)
        assert sorted(store.load_all_fitness()) == ["a", "b"]
        assert store.reads.count("b") == 3

    def test_returned_dict_is_a_copy(self, tmp_path):
        store = PopulationStore(tmp_path)
        publish(store, "a", pair=(0.1, 0.2))
        publish(store, "b", pair=(0.3, 0.4))
        first = store.load_all_fitness()
        first["b"] = first.pop("a")
        first["ghost"] = first["b"]
        again = store.load_all_fitness()
        assert sorted(again) == ["a", "b"]
        assert again["a"].record.pair == (0.1, 0.2)
        assert again["b"].record.pair == (0.3, 0.4)


class TestKill:
    def test_kill_moves_to_dead_and_drops_weights(self, tmp_path):
        store = PopulationStore(tmp_path)
        publish(store, "victim")
        assert store.kill("victim") is True
        assert store.list_live() == []
        assert store.list_dead() == ["victim"]
        assert not (store.dead / "victim" / WEIGHTS_FILE).exists()
        # metadata survives for history export
        assert store.load_fitness("victim", dirname="dead").id == "victim"

    def test_double_kill_is_false_not_an_error(self, tmp_path):
        store = PopulationStore(tmp_path)
        publish(store, "victim")
        assert store.kill("victim") is True
        assert store.kill("victim") is False

    def test_kill_of_unknown_id_is_false(self, tmp_path):
        store = PopulationStore(tmp_path)
        assert store.kill("nobody") is False

    def test_killed_individual_never_sampled(self, tmp_path):
        store = PopulationStore(tmp_path)
        for iid in ("a", "b", "c"):
            publish(store, iid)
        store.kill("b")
        rng = np.random.default_rng(0)
        for _ in range(50):
            pair = store.sample_pair(store.load_all_fitness(), rng)
            assert pair is not None and "b" not in pair


class TestSamplePair:
    def test_fewer_than_two_live_returns_none(self, tmp_path):
        store = PopulationStore(tmp_path)
        rng = np.random.default_rng(0)
        assert store.sample_pair(store.load_all_fitness(), rng) is None
        publish(store, "only")
        assert store.sample_pair(store.load_all_fitness(), rng) is None

    def test_pair_is_distinct(self, tmp_path):
        store = PopulationStore(tmp_path)
        for iid in ("a", "b", "c", "d"):
            publish(store, iid)
        rng = np.random.default_rng(1)
        for _ in range(200):
            a, b = store.sample_pair(store.load_all_fitness(), rng)
            assert a != b

    def test_pairs_uniform_over_population(self, tmp_path):
        store = PopulationStore(tmp_path)
        ids = [f"i{k}" for k in range(5)]
        for iid in ids:
            publish(store, iid)
        rng = np.random.default_rng(2)
        n = 4000
        counts = {}
        for _ in range(n):
            pair = frozenset(store.sample_pair(store.load_all_fitness(), rng))
            counts[pair] = counts.get(pair, 0) + 1
        p = 1 / math.comb(5, 2)
        sigma = math.sqrt(p * (1 - p) / n)
        assert len(counts) == 10
        for pair, c in counts.items():
            assert abs(c / n - p) < 5 * sigma, f"{sorted(pair)}: {c / n}"


def _hammer(root, worker, barrier, n):
    """Publish n individuals and kill every other one, concurrently."""
    store = PopulationStore(root)
    barrier.wait()
    rng = np.random.default_rng(worker)
    for k in range(n):
        iid = f"w{worker}-{k}"
        store.publish(
            iid, "g\n", b"w", meta_for(iid, pair=(0.5, 0.5), worker=f"w{worker}")
        )
        live = store.list_live()
        if live:
            store.kill(live[int(rng.integers(len(live)))])


class TestConcurrency:
    def test_concurrent_publish_and_kill_conserves_individuals(self, tmp_path):
        n_workers, n_each = 4, 30
        barrier = mp.Barrier(n_workers)
        procs = [
            mp.Process(target=_hammer, args=(tmp_path, w, barrier, n_each))
            for w in range(n_workers)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
            assert p.exitcode == 0
        store = PopulationStore(tmp_path)
        live, dead = store.list_live(), store.list_dead()
        # every published id ends up in exactly one of live/ or dead/
        assert len(live) + len(dead) == n_workers * n_each
        assert set(live) & set(dead) == set()
        assert list(store.tmp.iterdir()) == []
        # every live entry is complete
        for iid in live:
            assert store.load_fitness(iid).id == iid
