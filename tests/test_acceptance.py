"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a
``PASS criterion N`` line on success (run with ``pytest -s`` to see
them); a failed assertion prints a matching ``FAIL`` line and fails
the test as usual. Facts a test adds to the list that `criterion`
yields are printed at the end of that line.
"""

import contextlib
import csv
import hashlib
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from evocnn import data as dt
from evocnn import engine as eng
from evocnn import genome as gn
from evocnn import mutation as mu
from evocnn import pipeline as pl
from evocnn import selection as sel
from evocnn import worker as wk
from evocnn.config import RunConfig, save_config
from evocnn.mcdm import Alternative, TopsisWeights, select_best
from evocnn.popstore import GENOME_FILE, PopulationStore
from evocnn.worker import Worker, build_network, load_run_data

from conftest import assert_grads_close, finite_difference, pareto_fronts_oracle, to_float64
from test_genome import random_valid_encoder


@contextlib.contextmanager
def criterion(number, description):
    facts = []
    try:
        yield facts
    except Exception:
        print(f"FAIL criterion {number}: {description}" + "".join(f"; {f}" for f in facts))
        raise
    print(f"PASS criterion {number}: {description}" + "".join(f"; {f}" for f in facts))


# ---------------------------------------------------------------------------
# 1. Multi-criteria selection fixture
# ---------------------------------------------------------------------------

def test_criterion_1_topsis_fixture():
    front = [
        Alternative(0, 1.00, 0.0000),
        Alternative(507, 0.66, 0.7028),
        Alternative(574, 0.75, 0.4289),
        Alternative(266, 0.83, 0.3710),
        Alternative(67, 0.91, 0.3054),
        Alternative(611, 0.92, 0.2255),
        Alternative(355, 0.95, 0.2123),
        Alternative(882, 0.97, 0.1885),
        Alternative(841, 0.98, 0.1493),
    ]
    with criterion(1, "equal-weight TOPSIS over the published front selects id 507"):
        assert select_best(front, TopsisWeights()).id == 507


# ---------------------------------------------------------------------------
# 2. Gradient suite
# ---------------------------------------------------------------------------

def _random_conv(rng, in_channels, stride):
    """A conv of 1-3 filters with a square kernel of side 1-3."""
    f, k = (int(v) for v in rng.integers(1, 4, size=2))
    conv = eng.ConvLayer(in_channels, f, k, k, stride)
    conv.init_weights(rng)
    # zero biases put rectifier pre-activations exactly on the kink
    # wherever the input window is all zeros; jitter them so finite
    # differences stay valid
    conv.b = rng.normal(0.0, 0.1, conv.b.shape)
    return conv


def random_stack(rng):
    """A random small layer stack plus matching input, ready for training.
    Half of its up-samples sit directly below a stride-1 conv, and the
    network runs each such pair as one sub-pixel conv."""
    c = int(rng.integers(1, 3))
    h = int(rng.integers(3, 7))
    w = int(rng.integers(3, 7))
    x = rng.random((2, c, h, w))
    layers = []
    cc, ch, cw = c, h, w
    for _ in range(int(rng.integers(1, 4))):
        pick = rng.random()
        if pick < 0.5:
            s = int(rng.integers(1, 3))
            layers.append(_random_conv(rng, cc, s))
            cc, ch, cw = layers[-1].filters, -(-ch // s), -(-cw // s)
        elif pick < 0.7 and min(ch, cw) >= 2:
            layers.append(eng.MaxPoolLayer(2, 2))
            ch, cw = -(-ch // 2), -(-cw // 2)
        elif pick < 0.85 and max(ch, cw) <= 4:
            layers.append(eng.UpsampleLayer(2))
            ch, cw = ch * 2, cw * 2
            if rng.random() < 0.5:
                layers.append(_random_conv(rng, cc, 1))
                cc = layers[-1].filters
        elif min(ch, cw) >= 2:
            layers.append(eng.CropLayer(ch - 1, cw - 1))
            ch, cw = ch - 1, cw - 1
    if rng.random() < 0.5:
        layers.append(eng.FlattenLayer())
        dense = eng.DenseLayer(cc * ch * cw, 3)
        dense.init_weights(rng)
        dense.b = rng.normal(0.0, 0.1, dense.b.shape)
        layers.append(dense)
        labels = rng.integers(0, 3, 2)
        target = None
    else:
        labels = None
        target = rng.random((2, cc, ch, cw))
    return eng.Network(layers), x, labels, target


def _stable_fd_mask(loss_fn, array):
    """Finite differences at two step sizes, plus a reliability mask.

    ReLU and max-pooling are piecewise linear: when a coordinate sits
    within the step size of a kink, central differences estimate the
    average of two one-sided slopes instead of the gradient. Such
    coordinates are detected by disagreement between the two step
    sizes and excluded; they must stay rare.
    """
    g1 = finite_difference(loss_fn, array, eps=1e-4)
    g2 = finite_difference(loss_fn, array, eps=5e-5)
    denom = np.maximum(np.maximum(np.abs(g1), np.abs(g2)), 1e-6)
    mask = np.abs(g1 - g2) / denom < 1e-3
    return g2, mask


def _check_array_grad(analytic, loss_fn, array, skipped, total):
    numeric, mask = _stable_fd_mask(loss_fn, array)
    assert_grads_close(analytic[mask], numeric[mask])
    return skipped + int((~mask).sum()), total + mask.size


def _loss_and_input_grad(net, x, labels, target):
    out = net.forward(x)
    if labels is not None:
        loss, gy = eng.softmax_cross_entropy(out, labels)
    else:
        loss, gy = eng.mse_loss(out, target)
    gx = net.backward(gy)
    return loss, gx


def test_criterion_2_gradient_suite():
    rng = np.random.default_rng(2024)
    t0 = time.monotonic()
    skipped, total = 0, 0
    with criterion(2, "analytic gradients match finite differences on 100 random stacks"):
        for _ in range(100):
            net, x, labels, target = random_stack(rng)
            to_float64(*net.layers)

            def loss_only():
                out = net.forward(x)
                if labels is not None:
                    return eng.softmax_cross_entropy(out, labels)[0]
                return eng.mse_loss(out, target)[0]

            _, gx = _loss_and_input_grad(net, x, labels, target)
            skipped, total = _check_array_grad(gx, loss_only, x, skipped, total)
            for layer in net.layers:
                _loss_and_input_grad(net, x, labels, target)
                for param, grad in zip(layer.params(), layer.grads()):
                    skipped, total = _check_array_grad(
                        grad.copy(), loss_only, param, skipped, total
                    )
        # kink-adjacent coordinates must be the rare exception
        assert skipped < 0.01 * total, f"{skipped}/{total} coordinates near kinks"
        assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# 3. Non-dominated sorting oracle
# ---------------------------------------------------------------------------

def test_criterion_3_pareto_oracle():
    rng = np.random.default_rng(3)
    t0 = time.monotonic()
    with criterion(3, "front partition equals brute force on 500 random populations"):
        for _ in range(500):
            n = int(rng.integers(1, 65))
            if rng.random() < 0.5:
                pairs = [tuple(rng.random(2)) for _ in range(n)]
            else:  # integer grid forces many ties and duplicates
                pairs = [tuple(rng.integers(0, 5, 2) / 4) for _ in range(n)]
            # fronts and the order inside each front, which isolation sums follow
            assert sel.pareto_fronts(pairs) == pareto_fronts_oracle(pairs)
        assert time.monotonic() - t0 < 30.0


# ---------------------------------------------------------------------------
# 4. Mutation compression constraint
# ---------------------------------------------------------------------------

def test_criterion_4_accepted_mutations_always_compress(monkeypatch):
    monkeypatch.setattr(mu, "MUTATION_TRIES", 50)
    rng = np.random.default_rng(4)
    shape = (3, 32, 32)
    input_size = int(np.prod(shape))
    current = gn.seed_genome(gn.ENCODER, "root")
    t0 = time.monotonic()
    with criterion(4, "10,000 accepted encoder mutations all shrink the encoding"):
        for i in range(10_000):
            mutated = mu.mutate_valid(current, shape, rng, f"c{i}")
            assert mutated is not mu.EXHAUSTED
            child, _ = mutated
            c, h, w = gn.infer_shapes(child, shape)[-1]
            assert c * h * w < input_size
            # restart occasionally so the chain explores shallow genomes too
            current = gn.seed_genome(gn.ENCODER, f"r{i}") if i % 200 == 199 else child
        assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# 5. Encoder/decoder mirror round-trip
# ---------------------------------------------------------------------------

def _decoder_output_shape(g, input_shape):
    c, h, w = gn.infer_shapes(g, input_shape)[-1]
    for spec in gn.derive_decoder(g, input_shape):
        if spec["kind"] == "upsample":
            h, w = h * spec["factor"], w * spec["factor"]
        elif spec["kind"] == "crop":
            h, w = spec["target_h"], spec["target_w"]
        else:
            c = spec["filters"]
    return c, h, w


def test_criterion_5_mirror_round_trip():
    rng = np.random.default_rng(5)
    with criterion(5, "derived decoders restore the input shape for 1,000 encoders"):
        for i in range(1000):
            shape = (
                int(rng.integers(1, 4)),
                int(rng.integers(6, 33)),
                int(rng.integers(6, 33)),
            )
            g = random_valid_encoder(rng, shape)
            assert _decoder_output_shape(g, shape) == shape
            if i % 40 == 0:  # spot-check with a real forward pass
                net = build_network(g, shape, rng)
                out = net.forward(rng.random((2, *shape)))
                assert out.shape == (2, *shape)


# ---------------------------------------------------------------------------
# 6. Population store safety under concurrency and crashes
# ---------------------------------------------------------------------------

def _store_cfg(tmp_path, **overrides):
    base = dict(
        population_root=str(tmp_path / "pop"),
        report_dir=str(tmp_path / "reports"),
        data_source="synth",
        n_classes=2,
        synth_count=60,
        synth_size=8,
        synth_seed=1,
        workers=4,
        seeds_per_worker=2,
        round_budget=125,
        epochs=1,
        batch_size=10,
        master_seed=6,
    )
    base.update(overrides)
    return RunConfig(**base).check()


def _assert_store_invariants(store, require_conservation):
    live, dead = store.list_live(), store.list_dead()
    claims = store.read_claim_logs()
    flat_claims = [c for lst in claims.values() for c in lst]
    # no double-training: claim logs are disjoint across workers
    assert len(flat_claims) == len(set(flat_claims))
    assert set(live) & set(dead) == set()
    if require_conservation:
        assert sorted(flat_claims) == sorted(live + dead)
    else:  # a kill mid-round may claim an id it never got to publish
        assert set(live + dead) <= set(flat_claims)
    # zero corrupt individuals: everything visible is fully readable
    for iid in live:
        g = gn.deserialize(store.load_genome_text(iid))
        assert g.id == iid
        eng.deserialize_network(store.load_weights(iid))
        assert store.load_fitness(iid).id == iid
    for iid in dead:
        assert store.load_fitness(iid, dirname="dead").id == iid
    return live, dead, flat_claims


def _launch_workers(cfg, tmp_path, n):
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg_path = tmp_path / "store.cfg"
    save_config(cfg, cfg_path)
    return [
        subprocess.Popen(
            [sys.executable, "-m", "evocnn.cli", "worker",
             "--config", str(cfg_path), "--index", str(i), "--step", "cae"],
            stdout=subprocess.DEVNULL,
        )
        for i in range(n)
    ]


def test_criterion_6_store_safety(tmp_path):
    with criterion(6, "4 workers / 500 rounds conserve individuals; kills leave no corruption"):
        # clean run: exact conservation over 4*(2 seeds + 125 rounds)
        clean = _store_cfg(tmp_path / "clean")
        for p in _launch_workers(clean, tmp_path / "clean", 4):
            assert p.wait(timeout=480) == 0
        store = PopulationStore(clean.population_root)
        live, dead, claims = _assert_store_invariants(store, require_conservation=True)
        assert len(claims) == 4 * (2 + 125)
        assert len(store.read_round_logs()) == 4 * 125
        # each completed round killed one and published one
        assert len(live) == 4 * 2

        # crash run: SIGKILL every worker mid-flight, then re-check
        crash = _store_cfg(tmp_path / "crash", round_budget=0, wall_budget=30.0)
        procs = _launch_workers(crash, tmp_path / "crash", 4)
        time.sleep(2.5)
        for p in procs:
            os.kill(p.pid, signal.SIGKILL)
        for p in procs:
            p.wait(timeout=30)
        store = PopulationStore(crash.population_root)
        live, dead, claims = _assert_store_invariants(store, require_conservation=False)
        assert len(live) + len(dead) > 0


# ---------------------------------------------------------------------------
# 7. Desk-scale classifier evolution
# ---------------------------------------------------------------------------

def test_criterion_7_desk_scale_evolution(tmp_path):
    cfg = RunConfig(
        population_root=str(tmp_path / "pop"),
        report_dir=str(tmp_path / "reports"),
        data_source="synth",
        n_classes=4,
        synth_count=480,
        synth_size=16,
        synth_seed=9,
        workers=2,
        seeds_per_worker=2,
        round_budget=75,  # per worker: 150 rounds total
        epochs=3,
        batch_size=30,
        master_seed=7,
    ).check()
    with criterion(7, "150-round classifier evolution reaches validation accuracy >= 0.60") as facts:
        summary = pl.run_step(cfg, gn.CLASSIFIER)
        # the work done, so that a slow run shows whether it did more work or ran slower
        store = PopulationStore(pl.step_population_root(cfg, gn.CLASSIFIER))
        walls = [store.load_fitness(i).wall_seconds for i in store.list_live()]
        walls += [store.load_fitness(i, dirname="dead").wall_seconds for i in store.list_dead()]
        facts.append(f"{len(walls)} individuals published, {sum(walls):.1f} s summed training wall")
        assert summary.best_metric >= 0.60
        with open(summary.history_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        metrics = [float(r["metric"]) for r in rows]
        best_so_far = np.maximum.accumulate(metrics)
        assert all(b2 >= b1 for b1, b2 in zip(best_so_far, best_so_far[1:]))
        assert best_so_far[-1] == summary.best_metric


# ---------------------------------------------------------------------------
# 8. Throughput gain on compressed data
# ---------------------------------------------------------------------------

CRITERION_8_ROUNDS = 10  # rounds per side and seed


def _forward_macs(g, shape, n_classes):
    """Multiply-accumulates of one sample's forward pass, from g's layer plan."""
    c, h, w = shape
    macs = 0
    for spec in gn.network_specs(g, shape, n_classes):
        if spec["kind"] == "conv":
            h, w = eng.ceil_div(h, spec["stride"]), eng.ceil_div(w, spec["stride"])
            macs += spec["filters"] * h * w * spec["in_channels"] * spec["kh"] * spec["kw"]
        elif spec["kind"] == "pool":
            h, w = eng.ceil_div(h, spec["ph"]), eng.ceil_div(w, spec["pw"])
        elif spec["kind"] == "dense":
            macs += spec["in_features"] * spec["units"]
        else:
            assert spec["kind"] == "flatten", spec
    return macs


def _published_work(cfg, seed, root):
    """(individuals published, their summed forward MACs per trained sample),
    live and dead, of a single-worker classifier run on cfg's data under root."""
    cfg = replace(cfg, master_seed=seed, population_root=str(root))
    Worker(cfg, 0, gn.CLASSIFIER).run()
    shape = load_run_data(cfg)[0].sample_shape
    store = PopulationStore(cfg.population_root)
    genomes = [gn.deserialize(store.load_genome_text(iid)) for iid in store.list_live()]
    genomes += [gn.deserialize((store.dead / iid / GENOME_FILE).read_text())
                for iid in store.list_dead()]
    return len(genomes), sum(_forward_macs(g, shape, cfg.n_classes) for g in genomes)


def test_criterion_8_throughput_gain(tmp_path):
    # a fixed round budget and work counted from the published genomes, so
    # that neither the machine's load nor its speed moves the figure
    raw_cfg = RunConfig(
        report_dir=str(tmp_path / "reports"),
        data_source="synth",
        n_classes=4,
        synth_count=400,
        synth_size=16,
        synth_seed=8,
        workers=1,
        seeds_per_worker=2,
        round_budget=CRITERION_8_ROUNDS,
        epochs=1,
        batch_size=25,
    ).check()
    # fixed encoder at compression 2/3: 3x16x16 -> 4x8x8, cached as step 2 caches it
    rng = np.random.default_rng(88)
    conv = eng.ConvLayer(3, 4, 3, 3, 1)
    conv.init_weights(rng)
    encoder = eng.Network([conv, eng.MaxPoolLayer(2, 2)])
    prefix = str(tmp_path / "encoded_")
    for tag, ds in zip(dt.SPLITS, load_run_data(raw_cfg)):
        dt.write_evod(f"{prefix}{tag}.evod", dt.encode_dataset(encoder, ds))
    enc_cfg = replace(raw_cfg, data_source="evod", evod_prefix=prefix)
    assert load_run_data(enc_cfg)[0].sample_shape == (4, 8, 8)

    with criterion(8, "evolution over ~0.66-compressed data does >= 10% less forward "
                      "work per trained sample in the same rounds") as facts:
        ratios = []
        for seed in range(5):
            n_raw, raw_macs = _published_work(raw_cfg, seed, tmp_path / f"pop_raw_{seed}")
            n_enc, enc_macs = _published_work(enc_cfg, seed, tmp_path / f"pop_enc_{seed}")
            assert n_raw == n_enc == 2 + CRITERION_8_ROUNDS
            ratios.append(raw_macs / enc_macs)
        facts.append(f"MAC ratios {[round(r, 2) for r in ratios]}")
        assert statistics.median(ratios) >= 1.10, f"MAC ratios {ratios}"


# ---------------------------------------------------------------------------
# 9. CIFAR-10 binary loader
# ---------------------------------------------------------------------------

def test_criterion_9_cifar_loader(tmp_path):
    with criterion(9, "binary batch parse -> reserialize is byte-identical"):
        rng = np.random.default_rng(9)
        raw = bytes(rng.integers(0, 256, 10_000 * dt.CIFAR_RECORD, dtype=np.uint8))
        # force valid label bytes (first byte of each record)
        arr = np.frombuffer(raw, np.uint8).reshape(10_000, dt.CIFAR_RECORD).copy()
        arr[:, 0] %= 10
        raw = arr.tobytes()
        labels, pixels = dt.parse_cifar_batch(raw)
        assert dt.serialize_cifar_batch(labels, pixels) == raw

    dataset_dir = os.environ.get("EVOCNN_DATASET_DIR", "")
    if dataset_dir and list(Path(dataset_dir).glob("*.bin")):
        with criterion(9, "full binary set has 6,000 images per class"):
            ds = dt.load_cifar10(dataset_dir)
            assert ds.n == 60_000
            np.testing.assert_array_equal(np.bincount(ds.y), np.full(10, 6000))
    else:
        print("NOTE criterion 9: per-class count check skipped "
              "(set EVOCNN_DATASET_DIR to a directory of binary batches to enable)")


# ---------------------------------------------------------------------------
# 10. Determinism of history exports
# ---------------------------------------------------------------------------

def _seeded_run(root, kind=gn.ENCODER, round_budget=6):
    """(history csv bytes, sha256 of every live individual's EVOW bytes in
    path order) of a seeded single-worker step run under `root`."""
    cfg = RunConfig(
        population_root=str(root / "pop"),
        report_dir=str(root / "reports"),
        data_source="synth",
        n_classes=2,
        synth_count=60,
        synth_size=8,
        synth_seed=2,
        workers=1,
        seeds_per_worker=2,
        round_budget=round_budget,
        epochs=1,
        batch_size=10,
        master_seed=10,
    ).check()
    summary = pl.run_step(cfg, kind)
    store = PopulationStore(pl.step_population_root(cfg, kind))
    weights = hashlib.sha256()
    for iid in store.list_live():
        weights.update(store.load_weights(iid))
    return Path(summary.history_csv).read_bytes(), weights.hexdigest()


def lineage_sha256(history):
    """sha256 of history csv bytes with every row's metric and metric2
    blanked: what stays are the offsets, ids, workers, generations,
    mutations and parents."""
    header, *rows = history.decode().splitlines()
    blanked = [header] + [",".join([*f[:3], "", "", *f[5:]]) for f in (r.split(",") for r in rows)]
    return hashlib.sha256("\n".join(blanked).encode()).hexdigest()


# sha256 of each step's 30-round history, of its live individuals' EVOW
# weights, and of the parameters of every network it trained; a change
# that alters the seeded numerics changes these constants in its own diff.
# EVOW stores the float32 parameters bit for bit, but only the live
# individuals': the third pin also sees the networks that were killed.
# The lineage pin hashes the history without its metrics, so a change in
# their last bits moves the history pin alone, and this one only when the
# search itself went another way.
PINNED_HISTORY_SHA256 = {
    gn.ENCODER: "5e417f36b65ab4c513ab900c7a018bed983fa81fc0e5a07b1a9d90b9a65b47e7",
    gn.CLASSIFIER: "f6e452bde0b31ea1c04328bcc4e41aa14e5b242054eaebf7c9f0d0cd65c4320a",
}
PINNED_WEIGHTS_SHA256 = {
    gn.ENCODER: "0daf39f28182e21c37aff456939b53b8cdc87a60ca207f7ccaf6b6745e569804",
    gn.CLASSIFIER: "47f32cd3442f40c3957aafa97a4f23744dfb44a1c8175ccc20dcc6100b32df6e",
}
PINNED_LINEAGE_SHA256 = {
    gn.ENCODER: "e35a3410a907109494159312d8f7793a074c58545806d9b7419950683aee3976",
    gn.CLASSIFIER: "5c951d3d73d5884eff813b1ad2fa59362e7418b121f3cdd6adbdba59f3772a83",
}
PINNED_PARAMS_SHA256 = {
    gn.ENCODER: "e65db7e324c1e02b512d9118b8ec5a7870a051fb6f3ee8fe2221f7ff1ef5bf1a",
    gn.CLASSIFIER: "2c1d9a3496f48796f7464f1d5933c9f100040815164e2adad8cab253b30a18d5",
}


@pytest.fixture(scope="module")
def pinned_runs(tmp_path_factory):
    """Each step's 30-round run, run once for all three pins: its history
    csv bytes, its live weights' digest, and the sha256 over the bytes of
    each trained network's parameter arrays, in training order."""
    root = tmp_path_factory.mktemp("criterion_10")
    runs = {}
    for kind in PINNED_HISTORY_SHA256:
        params = hashlib.sha256()

        def hashed(*args, train=wk.train_individual, **kwargs):
            net, report = train(*args, **kwargs)
            for layer in net.layers:
                for array in layer.params():
                    params.update(array.tobytes())
            return net, report

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(wk, "train_individual", hashed)
            history, weights = _seeded_run(root / kind, kind, round_budget=30)
        runs[kind] = (history, weights, params.hexdigest())
    return runs


def test_criterion_10_bit_identical_history(tmp_path):
    with criterion(10, "seeded single-worker runs export bit-identical histories"):
        first, _ = _seeded_run(tmp_path / "a")
        second, _ = _seeded_run(tmp_path / "b")
        assert first == second
        assert len(first.splitlines()) == 1 + 2 + 6  # header + seeds + rounds


def test_criterion_10_pinned_history_digests(pinned_runs):
    with criterion(10, "seeded 30-round histories of both steps match their pinned sha256"):
        for kind, digest in PINNED_HISTORY_SHA256.items():
            assert hashlib.sha256(pinned_runs[kind][0]).hexdigest() == digest, kind


def test_criterion_10_pinned_weights_digests(pinned_runs):
    with criterion(10, "live weights after both steps' seeded 30-round runs match their pinned sha256"):
        for kind, digest in PINNED_WEIGHTS_SHA256.items():
            assert pinned_runs[kind][1] == digest, kind


def test_criterion_10_pinned_lineage_digests(pinned_runs):
    with criterion(10, "seeded 30-round histories of both steps, metrics blanked, "
                       "match their pinned sha256"):
        for kind, digest in PINNED_LINEAGE_SHA256.items():
            assert lineage_sha256(pinned_runs[kind][0]) == digest, kind


def test_criterion_10_pinned_params_digests(pinned_runs):
    with criterion(10, "parameters of every network trained in both steps' "
                       "seeded 30-round runs match their pinned sha256"):
        for kind, digest in PINNED_PARAMS_SHA256.items():
            assert pinned_runs[kind][2] == digest, kind
