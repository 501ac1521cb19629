"""Tests of the benchmark's own checkers: each must accept the right
answer and reject a planted wrong one.

    python3 -m pytest perfbench/test_checks.py

Run from the root of a checkout; the program is imported from `src`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import oracle  # noqa: E402
from workloads import WORKLOADS, prepare  # noqa: E402

GENOME = "GENOME v1 Encoder w0-3-abcd w0-1-ef01 1 0.01 InsertConv\nCONV 8 3 3 2\nPOOL 2 3\nCONV 5 3 3 1\n"
SHAPE = (3, 32, 32)


def test_compression_accepts_recomputed_ratio():
    # conv stride 2: 8x16x16; pool 2x3: 8x8x6; conv: 5x8x6 = 240 of 3072
    assert checks.check_compression(GENOME, SHAPE, 1.0 - 240 / 3072) == []


def test_compression_rejects_ratio_off_by_one_element():
    assert checks.check_compression(GENOME, SHAPE, 1.0 - 241 / 3072)
    assert checks.check_compression(GENOME, SHAPE, 1.0 - 239 / 3072)


def test_compression_rejects_non_positive_ratio():
    expanding = "GENOME v1 Encoder a - 0 0.01 Seed\nCONV 16 3 3 1\n"
    assert checks.check_compression(expanding, SHAPE, 1.0 - 16 / 3)


PAIRS = [(0.5, 0.90), (0.75, 0.80), (0.5, 0.85), (0.9, 0.70), (0.75, 0.79)]


def test_front_accepts_brute_force_front():
    assert checks.check_front(PAIRS, [0, 1, 3]) == []


def test_front_rejects_dominated_member():
    assert checks.check_front(PAIRS, [0, 1, 3, 4])


def test_front_rejects_missing_member():
    assert checks.check_front(PAIRS, [0, 1])


def test_front_matches_program_on_random_populations():
    from evocnn.selection import pareto_fronts

    rng = np.random.default_rng(3)
    for _ in range(50):
        pairs = [tuple(p) for p in rng.integers(0, 4, (12, 2)) / 4]
        assert checks.check_front(pairs, pareto_fronts(pairs)[0]) == []


def test_topsis_accepts_program_pick_and_rejects_runner_up():
    from evocnn.mcdm import Alternative, TopsisWeights, topsis_rank

    rng = np.random.default_rng(5)
    for _ in range(20):
        alts = [(f"id{i}", *rng.uniform(0, 1, 2)) for i in range(6)]
        ranked = topsis_rank([Alternative(*a) for a in alts], TopsisWeights(0.3, 0.7))
        assert checks.check_topsis(alts, ranked[0][0].id, 0.3, 0.7) == []
        assert checks.check_topsis(alts, ranked[1][0].id, 0.3, 0.7)


def test_accuracy_count_rejects_flipped_label():
    rng = np.random.default_rng(7)
    logits = rng.normal(size=(40, 10))
    labels = rng.integers(0, 10, 40)
    reported = float(np.mean(np.argmax(logits, axis=1) == labels))
    assert checks.check_accuracy_count(logits, labels, reported) == []
    hit = int(np.flatnonzero(np.argmax(logits, axis=1) == labels)[0])
    flipped = labels.copy()
    flipped[hit] = (flipped[hit] + 1) % 10
    assert checks.check_accuracy_count(logits, flipped, reported)


def test_conservation_rejects_drift():
    assert checks.check_conservation("cae", 4, 9, 13, 9, seeds=4, rounds=9) == []
    assert checks.check_conservation("cae", 5, 9, 14, 9, seeds=4, rounds=9)
    assert checks.check_conservation("cae", 4, 9, 13, 8, seeds=4, rounds=9)


def test_oracle_forward_matches_program_engine():
    from evocnn import engine, genome, worker

    rng = np.random.default_rng(11)
    g = genome.Genome("x", genome.ENCODER, (genome.ConvGene(6, 3, 2, 2), genome.PoolGene(3, 2),
                                            genome.ConvGene(4, 5, 5, 1)))
    net = worker.build_network(g, (3, 13, 11), rng)
    net = engine.deserialize_network(engine.serialize_network(net))
    x = rng.uniform(0, 1, (5, 3, 13, 11))
    mine = oracle.forward(oracle.parse_evow(engine.serialize_network(net)), x)
    assert np.allclose(mine, net.forward(x), rtol=1e-12, atol=1e-12)
    specs = genome.network_specs(g, (3, 13, 11))
    assert oracle.forward_macs(oracle.parse_genome(genome.serialize(g)), (3, 13, 11), 10) == sum(
        _spec_macs(specs, (3, 13, 11))
    )


def _spec_macs(specs, shape):
    c, h, w = shape
    for s in specs:
        if s["kind"] == "conv":
            oh, ow = -(-h // s["stride"]), -(-w // s["stride"])
            yield oh * ow * s["filters"] * s["in_channels"] * s["kh"] * s["kw"]
            c, h, w = s["filters"], oh, ow
        elif s["kind"] == "pool":
            h, w = -(-h // s["ph"]), -(-w // s["pw"])
        elif s["kind"] == "upsample":
            h, w = h * s["factor"], w * s["factor"]
        elif s["kind"] == "crop":
            h, w = s["target_h"], s["target_w"]


@pytest.fixture(scope="module")
def two_step_run(tmp_path_factory):
    """One real two_step trajectory, checked in place."""
    workload = WORKLOADS["two_step"]
    tdir = tmp_path_factory.mktemp("two_step")
    prepare(workload, 1, 0, tdir / "inputs")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    subprocess.run(
        [sys.executable, str(HERE / "trajectory.py"), "--workload", "two_step", "--index", "0",
         "--inputs", str(tdir / "inputs"), "--out", str(tdir / "out")],
        env=env, check=True, timeout=170,
    )
    record = json.loads((tdir / "out" / "record.json").read_text())
    return workload, tdir, record


def test_real_trajectory_passes_every_check(two_step_run):
    workload, tdir, record = two_step_run
    problems, facts = checks.check_trajectory(workload, tdir / "inputs", tdir / "out", record)
    assert problems == []
    assert facts["train_macs"] > 0 and facts["train_seconds"] > 0
    assert 0.0 < record["test_accuracy"] < 1.0


def test_real_trajectory_rejects_planted_test_accuracy(two_step_run):
    workload, tdir, record = two_step_run
    planted = dict(record, test_accuracy=record["test_accuracy"] + 1 / 50)
    problems, _ = checks.check_trajectory(workload, tdir / "inputs", tdir / "out", planted)
    assert any("test accuracy" in p for p in problems)


def test_real_trajectory_rejects_compression_off_by_one_element(two_step_run):
    workload, tdir, record = two_step_run
    one_element = 1 / (3 * workload.side * workload.side)
    live = tdir / "out" / "population" / "cae" / "live"
    sidecar = sorted(live.iterdir())[0] / "fitness.csv"
    original = sidecar.read_text()
    fields = original.split(",")
    comp, acc = fields[2].split(":")
    fields[2] = f"{float(comp) + one_element!r}:{acc}"
    try:
        sidecar.write_text(",".join(fields))
        problems, _ = checks.check_trajectory(workload, tdir / "inputs", tdir / "out", record)
    finally:
        sidecar.write_text(original)
    assert any("compression" in p for p in problems)
