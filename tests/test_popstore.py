import errno
import math
import re
import multiprocessing as mp
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def meta_for(iid, values=(0.5, 0.5), worker="w0", gen=0, parent=None, mut="Seed"):
    return FitnessMeta(
        id=iid, kind="Encoder", record=FitnessRecord(values), wall_seconds=1.25,
        worker_id=worker, generation=gen, parent_id=parent, mutation=mut,
    )


def publish(store, iid, **kw):
    store.publish(f"genome for {iid}\n", b"\x00\x01" + iid.encode(), meta_for(iid, **kw))


# Spellings that float() or int() reads but format_fitness_line never
# writes, and tokens that are no number at all.
BAD_NUMBERS = ["1_0", "\u0663", "-2", " 0.5", "0.5 ", "0_0.9", "+1.0", "1e3", "1E-05", ".5",
               "0.50", "01", "-0", "nan", "inf", "-inf", "0x1", "", "x"]


@st.composite
def fitness_lines(draw):
    """A written fitness line with up to three of its numbers (a metric
    half, the wall time, the generation) replaced, or any text at all."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(max_size=60))
    value = st.floats(allow_nan=False, allow_infinity=False)
    record = FitnessRecord(draw(st.tuples(value) | st.tuples(value, value)))
    meta = FitnessMeta(
        id=draw(st.text("abc-0123", min_size=1, max_size=8)), kind="Encoder", record=record,
        wall_seconds=draw(value), worker_id="w0", generation=draw(st.integers(0, 10_000)),
        parent_id=draw(st.none() | st.just("p-1")), mutation="InsertConv",
    )
    fields = format_fitness_line(meta).rstrip("\n").split(",")
    numbers = [(2, i) for i in range(len(fields[2].split(":")))] + [(3, 0), (5, 0)]
    for _ in range(draw(st.integers(0, 3))):
        field, half = draw(st.sampled_from(numbers))
        halves = fields[field].split(":")
        halves[half] = draw(st.sampled_from(BAD_NUMBERS))
        fields[field] = ":".join(halves)
    return ",".join(fields) + "\n"


class TestFitnessLine:
    @given(fitness_lines())
    @example("a,Encoder,0.5:0.5,1.25,w0,1_0,-,Seed\n")
    @example("a,Encoder,0.5:0.5,1.25,w0,\u0663,-,Seed\n")
    @example("a,Encoder,0.5:0.5,1.25,w0,-2,-,Seed\n")
    @example("a,Classifier, 0.5,1.25,w0,0,-,Seed\n")
    @example("a,Classifier,0_0.9,1.25,w0,0,-,Seed\n")
    @example("a,Classifier,0.5,+1.0,w0,0,-,Seed\n")
    @settings(max_examples=500, deadline=None)
    def test_arbitrary_lines_round_trip_or_raise(self, line):
        try:
            meta = parse_fitness_line(line)
        except StoreError:
            return
        # only the spelling format_fitness_line writes parses: the line comes back as it was
        assert format_fitness_line(meta) == line.strip() + "\n"
        assert parse_fitness_line(format_fitness_line(meta)) == meta

    def test_scalar_round_trip(self):
        m = meta_for("a-1", (0.875,), gen=3, parent="a-0", mut="InsertConv")
        assert parse_fitness_line(format_fitness_line(m)) == m

    def test_pair_round_trip_preserves_floats_exactly(self):
        m = meta_for("b-2", (0.6666666666666666, 0.7028))
        back = parse_fitness_line(format_fitness_line(m))
        assert back.record.pair == (0.6666666666666666, 0.7028)

    def test_missing_parent_serialized_as_dash(self):
        line = format_fitness_line(meta_for("c", (0.1,)))
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
            # numbers the program never writes, and its readers assume it does not
            pytest.param("a,Encoder,0.5:1.5,1.25,w0,0,-,Seed\n", id="accuracy above 1"),
            pytest.param("a,Encoder,-0.1:0.5,1.25,w0,0,-,Seed\n", id="negative compression"),
            pytest.param("a,Encoder,0.5:0.2,-1.0,w0,0,-,Seed\n", id="negative wall time"),
            # spellings float() or int() reads but format_fitness_line never writes
            pytest.param("a,Encoder,0.5:0.2,1.25,w0,-2,-,Seed\n", id="negative generation"),
            pytest.param("a,Encoder,0.5:0.2,1.25,w0,1_0,-,Seed\n", id="underscored generation"),
            pytest.param("a,Encoder,0.5:0.2,1.25,w0,\u0663,-,Seed\n", id="non-ASCII generation"),
            pytest.param("a,Classifier, 0.5,1.25,w0,0,-,Seed\n", id="padded metric"),
            pytest.param("a,Classifier,0_0.9,1.25,w0,0,-,Seed\n", id="underscored metric"),
            pytest.param("a,Encoder,0.5:0.2,+1.0,w0,0,-,Seed\n", id="signed wall time"),
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
        # the collision is found at the rename, after the id was logged, so
        # every live or dead id stays among the logged ones
        assert store.read_claim_logs() == {"w0": ["dup", "dup"]}

    def test_publish_logs_its_id_before_it_writes(self, tmp_path, monkeypatch):
        store = PopulationStore(tmp_path)
        publish(store, "a", worker="w1")
        logged = []

        def disk_full(path, data):
            logged.append(store.read_claim_logs())
            raise OSError(errno.ENOSPC, "No space left on device", str(path))

        monkeypatch.setattr(Path, "write_text", disk_full)
        with pytest.raises(OSError, match="No space left"):
            publish(store, "b", worker="w1")
        assert logged == [{"w1": ["a", "b"]}]
        assert store.list_live() == ["a"]

    def test_failed_write_cleans_staging(self, tmp_path, monkeypatch):
        store = PopulationStore(tmp_path)
        publish(store, "kept")

        def disk_full(path, data):
            raise OSError(errno.ENOSPC, "No space left on device", str(path))

        monkeypatch.setattr(Path, "write_bytes", disk_full)
        with pytest.raises(OSError, match="No space left"):
            publish(store, "x")
        assert list(store.tmp.iterdir()) == []
        assert store.list_live() == ["kept"]

    def test_killed_id_is_not_published_again(self, tmp_path):
        store = PopulationStore(tmp_path)
        publish(store, "dup")
        assert store.kill("dup")
        with pytest.raises(IdCollision):
            publish(store, "dup")
        assert store.list_live() == []
        assert store.list_dead() == ["dup"]
        assert list(store.tmp.iterdir()) == []
        assert store.read_claim_logs() == {"w0": ["dup"]}

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
        publish(store, "p", values=(0.66, 0.7028), gen=7, parent="q", mut="AlterStride")
        m = store.load_fitness("p")
        assert m.record.pair == (0.66, 0.7028)
        assert m.generation == 7 and m.parent_id == "q"

    def test_malformed_sidecar_raises_naming_its_path(self, tmp_path):
        store = PopulationStore(tmp_path)
        publish(store, "p")
        assert store.kill("p")
        sidecar = store.dead / "p" / FITNESS_FILE
        sidecar.write_text("p,Enc")
        with pytest.raises(StoreError, match=re.escape(f"{sidecar}: bad fitness line 'p,Enc'")):
            store.load_fitness("p", "dead")


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
        publish(other, "d", values=(0.9, 0.1))
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
        publish(store, "a", values=(0.1, 0.2))
        publish(store, "b", values=(0.3, 0.4))
        first = store.load_all_fitness()
        first["b"] = first.pop("a")
        first["ghost"] = first["b"]
        again = store.load_all_fitness()
        assert sorted(again) == ["a", "b"]
        assert again["a"].record.pair == (0.1, 0.2)
        assert again["b"].record.pair == (0.3, 0.4)


class TestPublishedFitness:
    def ids(self, store):
        return [meta.id for meta in store.load_published_fitness()]

    def test_publish_order_per_worker_then_workers_by_log_name(self, tmp_path):
        store = PopulationStore(tmp_path)
        for iid, worker in [("z", "w1"), ("b", "w0"), ("y", "w1"), ("a", "w0"), ("c", "w10")]:
            publish(store, iid, worker=worker)
        assert store.kill("y") and store.kill("b")
        assert self.ids(store) == ["b", "a", "z", "y", "c"]
        assert [m.worker_id for m in store.load_published_fitness()] == ["w0", "w0", "w1", "w1", "w10"]

    def test_claimed_id_that_never_reached_the_store_has_no_sidecar(self, tmp_path):
        # a worker killed between its log append and its rename
        store = PopulationStore(tmp_path)
        publish(store, "a")
        with open(store.logs / "claims_w0.log", "a") as fh:
            fh.write("ghost\n")
        publish(store, "b")
        assert self.ids(store) == ["a", "b"]

    def test_id_logged_twice_is_read_once_at_its_first_place(self, tmp_path):
        # a rerun's first publish logs a live id again, then collides
        store = PopulationStore(tmp_path)
        publish(store, "a")
        publish(store, "b")
        with pytest.raises(IdCollision):
            publish(store, "a")
        publish(store, "c")
        assert store.read_claim_logs() == {"w0": ["a", "b", "a", "c"]}
        assert self.ids(store) == ["a", "b", "c"]

    def test_id_killed_during_the_read_is_read_from_dead(self, tmp_path):
        store, other = CountingStore(tmp_path), PopulationStore(tmp_path)
        for iid in ("a", "b"):
            publish(store, iid)
        load_fitness = store.load_fitness

        def killed_first(iid, dirname="live"):
            if (iid, dirname) == ("b", "live"):
                assert other.kill("b")
            return load_fitness(iid, dirname)

        store.load_fitness = killed_first
        assert self.ids(store) == ["a", "b"]
        assert store.list_dead() == ["b"]
        assert store.reads == ["a", "b", "b"]


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
        store.publish("g\n", b"w", meta_for(iid, (0.5, 0.5), worker=f"w{worker}"))
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
