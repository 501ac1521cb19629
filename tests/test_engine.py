import math
import struct

import numpy as np
import pytest

from evocnn import engine as eng
from evocnn import genome as gn
from evocnn.config import RunConfig
from evocnn.worker import build_network, train_individual

from conftest import (
    assert_grads_close,
    conv_backward_oracle,
    conv_oracle,
    finite_difference,
    maxpool_oracle,
)


def make_conv(in_c, f, kh, kw, stride=1, activation="relu", rng=None):
    layer = eng.ConvLayer(in_c, f, kh, kw, stride, activation)
    if rng is None:
        layer.w = np.zeros((f, in_c, kh, kw))
        layer.b = np.zeros(f)
        layer.reset_momentum()
    else:
        layer.init_weights(rng)
    return layer


def conv_sweep(rng, count=100):
    """Random conv layers and inputs over the genome's search space.

    Kernels reach FILTER_DIM_MAX and strides STRIDE_MAX; the cases
    include batch 1, inputs smaller than the kernel, and channels both
    below and above the filter count. Biases are nonzero.
    """
    cases = []
    for _ in range(count):
        c, f = (int(v) for v in rng.integers(1, 7, size=2))
        kh, kw = (int(v) for v in rng.integers(1, gn.FILTER_DIM_MAX + 1, size=2))
        s = int(rng.integers(1, gn.STRIDE_MAX + 1))
        h, w = (int(v) for v in rng.integers(1, 11, size=2))
        layer = make_conv(c, f, kh, kw, s, rng=rng)
        layer.b[...] = 0.1 * rng.standard_normal(f)
        cases.append((layer, rng.standard_normal((int(rng.integers(1, 4)), c, h, w))))
    covered = {
        "kernel 9": any(max(l.kh, l.kw) == gn.FILTER_DIM_MAX for l, _ in cases),
        "stride 4": any(l.stride == gn.STRIDE_MAX for l, _ in cases),
        "non-square": any(l.kh != l.kw for l, _ in cases),
        "batch 1": any(x.shape[0] == 1 for _, x in cases),
        "input < kernel": any(x.shape[2] < l.kh and x.shape[3] < l.kw for l, x in cases),
        "c < f": any(l.in_channels < l.filters for l, _ in cases),
        "c > f": any(l.in_channels > l.filters for l, _ in cases),
    }
    assert all(covered.values()), covered
    return cases


class TestConvForward:
    def test_uniform_input_counts_overlaps(self):
        layer = make_conv(1, 1, 2, 2)
        layer.w[...] = 1.0
        x = np.ones((1, 1, 3, 3))
        y = layer.forward(x)
        assert y.shape == (1, 1, 3, 3)
        # 2x2 all-ones filter over all-ones input: each output counts the
        # overlapped cells; with a one-sided pad the max is 4, edges less
        assert y.max() == 4.0
        assert y.min() >= 1.0
        assert (y >= 0).all()

    def test_identity_filter_stride2_samples_grid(self):
        layer = make_conv(1, 1, 1, 1, stride=2, activation="relu")
        layer.w[...] = 1.0
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4) - 5.0
        y = layer.forward(x)
        assert y.shape == (1, 1, 2, 2)
        expected = np.maximum(x[0, 0, ::2, ::2], 0.0)
        np.testing.assert_allclose(y[0, 0], expected)

    def test_matches_nested_loop_oracle(self, rng):
        layer = make_conv(3, 4, 3, 3, rng=rng)
        x = rng.standard_normal((2, 3, 5, 5))
        y = layer.forward(x)
        ref = conv_oracle(x, layer.w, layer.b, 1)
        np.testing.assert_allclose(y, ref, rtol=1e-6, atol=1e-9)

    def test_random_shape_stride_sweep_vs_oracle(self, rng):
        for layer, x in conv_sweep(rng):
            np.testing.assert_allclose(
                layer.forward(x), conv_oracle(x, layer.w, layer.b, layer.stride),
                rtol=1e-10, atol=1e-10,
            )

    def test_channel_mismatch_raises(self, rng):
        layer = make_conv(3, 4, 3, 3, rng=rng)
        with pytest.raises(eng.ShapeError):
            layer.forward(np.zeros((1, 2, 5, 5)))


class TestConvBackward:
    def test_zero_grad_out_gives_zero_grads(self, rng):
        layer = make_conv(2, 3, 3, 3, rng=rng)
        x = rng.standard_normal((2, 2, 4, 4))
        y = layer.forward(x)
        gx = layer.backward(np.zeros_like(y))
        assert not gx.any() and not layer.gw.any() and not layer.gb.any()

    def test_single_weight_chain_rule(self, rng):
        # 1x1 conv, loss = sum of outputs: dL/dw = sum of inputs at
        # positive pre-activations
        layer = make_conv(1, 1, 1, 1)
        layer.w[...] = 1.0
        x = rng.standard_normal((1, 1, 4, 4))
        y = layer.forward(x)
        layer.backward(np.ones_like(y))
        expected = x[x > 0].sum()
        assert math.isclose(layer.gw.item(), expected, rel_tol=1e-12)

    def test_random_shape_stride_sweep_vs_oracle(self, rng):
        for layer, x in conv_sweep(rng):
            gy = rng.standard_normal(layer.forward(x).shape)
            gx = layer.backward(gy)
            ref_gx, ref_gw, ref_gb = conv_backward_oracle(x, layer.w, layer.b, layer.stride, gy)
            np.testing.assert_allclose(gx, ref_gx, rtol=1e-10, atol=1e-10)
            np.testing.assert_allclose(layer.gw, ref_gw, rtol=1e-10, atol=1e-10)
            np.testing.assert_allclose(layer.gb, ref_gb, rtol=1e-10, atol=1e-10)

    def test_finite_difference(self, rng):
        layer = make_conv(2, 3, 3, 3, stride=2, rng=rng)
        x = rng.standard_normal((2, 2, 5, 5))

        def loss():
            out = layer.forward(x)
            return float((out * out).sum() / 2)

        y = layer.forward(x)
        gx = layer.backward(y.copy())
        assert_grads_close(layer.gw, finite_difference(loss, layer.w))
        assert_grads_close(layer.gb, finite_difference(loss, layer.b))
        assert_grads_close(gx, finite_difference(loss, x))

    def test_grad_shape_mismatch_raises(self, rng):
        layer = make_conv(2, 3, 3, 3, rng=rng)
        layer.forward(rng.standard_normal((1, 2, 4, 4)))
        with pytest.raises(eng.ShapeError):
            layer.backward(np.zeros((1, 3, 9, 9)))


class TestMaxPool:
    def test_2x2_single_window(self):
        layer = eng.MaxPoolLayer(2, 2)
        y = layer.forward(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        assert y.item() == 4.0

    def test_all_equal_routes_to_first_cell(self):
        layer = eng.MaxPoolLayer(2, 2)
        x = np.full((1, 1, 4, 4), 7.0)
        y = layer.forward(x)
        assert (y == 7.0).all()
        gx = layer.backward(np.ones_like(y))
        expected = np.zeros((4, 4))
        expected[::2, ::2] = 1.0
        np.testing.assert_array_equal(gx[0, 0], expected)

    def test_matches_window_scan_oracle(self, rng):
        layer = eng.MaxPoolLayer(2, 2)
        x = rng.standard_normal((1, 2, 5, 5))
        np.testing.assert_array_equal(layer.forward(x), maxpool_oracle(x, 2, 2))

    def test_truncated_edges_vs_oracle(self, rng):
        for ph, pw in ((2, 3), (3, 2), (4, 4)):
            layer = eng.MaxPoolLayer(ph, pw)
            x = rng.standard_normal((2, 2, 7, 5))
            np.testing.assert_array_equal(layer.forward(x), maxpool_oracle(x, ph, pw))

    def test_backward_routes_to_argmax(self, rng):
        layer = eng.MaxPoolLayer(2, 2)
        x = rng.standard_normal((1, 1, 4, 4))
        y = layer.forward(x)
        gy = rng.standard_normal(y.shape)
        gx = layer.backward(gy)
        # every window's gradient mass lands on its max position
        for oy in range(2):
            for ox in range(2):
                win = x[0, 0, oy * 2:oy * 2 + 2, ox * 2:ox * 2 + 2]
                gwin = gx[0, 0, oy * 2:oy * 2 + 2, ox * 2:ox * 2 + 2]
                assert gwin.sum() == pytest.approx(gy[0, 0, oy, ox])
                assert gwin[np.unravel_index(win.argmax(), win.shape)] == pytest.approx(
                    gy[0, 0, oy, ox]
                )


class TestUpsample:
    def test_factor2_blocks(self):
        layer = eng.UpsampleLayer(2)
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        y = layer.forward(x)
        assert y.shape == (1, 1, 4, 4)
        np.testing.assert_array_equal(y[0, 0, :2, :2], np.full((2, 2), 1.0))
        np.testing.assert_array_equal(y[0, 0, 2:, 2:], np.full((2, 2), 4.0))

    def test_average_inverts_replication(self, rng):
        layer = eng.UpsampleLayer(2)
        x = rng.standard_normal((2, 3, 3, 3))
        y = layer.forward(x)
        avg = y.reshape(2, 3, 3, 2, 3, 2).mean(axis=(3, 5))
        np.testing.assert_allclose(avg, x)

    def test_finite_difference(self, rng):
        layer = eng.UpsampleLayer(3)
        x = rng.standard_normal((1, 2, 2, 3))
        target = rng.standard_normal((1, 2, 6, 9))

        def loss():
            return float(((layer.forward(x) - target) ** 2).sum() / 2)

        gy = layer.forward(x) - target
        gx = layer.backward(gy)
        assert_grads_close(gx, finite_difference(loss, x), rtol=1e-6)


class TestSoftmaxHead:
    def test_uniform_logits_loss_is_ln_classes(self):
        logits = np.zeros((4, 10))
        loss, grad = eng.softmax_cross_entropy(logits, np.array([0, 3, 5, 9]))
        assert loss == pytest.approx(math.log(10), rel=1e-12)

    def test_saturating_logits_drive_loss_to_zero(self):
        logits = np.zeros((2, 10))
        logits[0, 2] = logits[1, 7] = 50.0
        loss, _ = eng.softmax_cross_entropy(logits, np.array([2, 7]))
        assert loss < 1e-8

    def test_matches_log_sum_exp_oracle(self, rng):
        logits = rng.standard_normal((5, 10)) * 3
        labels = rng.integers(0, 10, 5)
        loss, _ = eng.softmax_cross_entropy(logits, labels)
        ref = np.mean(
            [
                math.log(np.exp(row).sum()) - row[lab]
                for row, lab in zip(logits, labels)
            ]
        )
        assert loss == pytest.approx(ref, rel=1e-6)

    def test_probabilities_sum_to_one(self, rng):
        probs = eng.softmax_probs(rng.standard_normal((8, 10)) * 5)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_nonfinite_logits_raise_training_failure(self):
        logits = np.zeros((1, 3))
        logits[0, 0] = np.nan
        with pytest.raises(eng.TrainingDiverged):
            eng.softmax_cross_entropy(logits, np.array([0]))

    def test_dense_softmax_head_gradient(self, rng):
        # the classifier head as the training loop runs it: flatten, dense, softmax
        layer = eng.DenseLayer(12, 3)
        layer.init_weights(rng)
        head = eng.Network([eng.FlattenLayer(), layer])
        x = rng.standard_normal((4, 3, 2, 2))
        labels = np.array([0, 1, 2, 1])

        def loss():
            return eng.softmax_cross_entropy(head.forward(x), labels)[0]

        _, glogits = eng.softmax_cross_entropy(head.forward(x), labels)
        gx = head.backward(glogits)
        gw = layer.gw.copy()
        assert_grads_close(gx, finite_difference(loss, x))
        assert_grads_close(gw, finite_difference(loss, layer.w))


class _Recon:
    """Stands in for an autoencoder whose forward pass is `fn`."""

    def __init__(self, fn):
        self.forward = fn


class TestReconstructionAccuracy:
    def test_perfect_reconstruction(self, rng):
        x = rng.random((2, 3, 4, 4))
        assert eng.reconstruction_accuracy(_Recon(np.copy), x) == 1.0

    def test_maximal_error_on_unit_range(self):
        x = np.ones((1, 1, 2, 2))
        assert eng.reconstruction_accuracy(_Recon(np.zeros_like), x) == 0.0

    def test_constant_tensor_arithmetic(self):
        # five samples in chunks of two: the chunked sum must equal the plain mean
        x = np.full((5, 1, 3, 3), 0.5)
        recon = _Recon(lambda xb: np.full_like(xb, 0.3))
        assert eng.reconstruction_accuracy(recon, x, chunk=2) == pytest.approx(0.96)

    def test_dim_mismatch_raises(self):
        with pytest.raises(eng.ShapeError):
            eng.reconstruction_accuracy(_Recon(lambda xb: np.zeros((1, 1, 3, 3))),
                                        np.zeros((1, 1, 2, 2)))

    def test_always_in_unit_interval(self, rng):
        noisy = _Recon(lambda xb: rng.standard_normal(xb.shape) * 10)
        for _ in range(50):
            x = rng.random((1, 2, 3, 3))
            assert 0.0 <= eng.reconstruction_accuracy(noisy, x) <= 1.0


class TestSgdMomentum:
    def test_first_step(self):
        w = np.array([1.0])
        v = np.zeros(1)
        eng.sgd_momentum_step(w, np.array([1.0]), v, 0.1, 0.9)
        assert w.item() == pytest.approx(0.9)
        assert v.item() == pytest.approx(-0.1)

    def test_second_step_recurrence(self):
        w = np.array([1.0])
        v = np.zeros(1)
        g = np.array([1.0])
        eng.sgd_momentum_step(w, g, v, 0.1, 0.9)
        eng.sgd_momentum_step(w, g, v, 0.1, 0.9)
        assert v.item() == pytest.approx(-0.19)
        assert w.item() == pytest.approx(1.0 - 0.1 - 0.19)

    def test_zero_momentum_is_plain_sgd(self, rng):
        w = rng.standard_normal(5)
        expected = w.copy()
        v = np.zeros(5)
        for _ in range(3):
            g = rng.standard_normal(5)
            eng.sgd_momentum_step(w, g, v, 0.05, 0.0)
            expected -= 0.05 * g
        np.testing.assert_allclose(w, expected)


def _separable_view(rng, n=200, size=8):
    # class 0: bright left half, class 1: bright right half
    x = rng.random((n, 1, size, size)) * 0.2
    y = rng.integers(0, 2, n)
    x[y == 0, :, :, : size // 2] += 0.7
    x[y == 1, :, :, size // 2:] += 0.7
    x = np.clip(x, 0, 1)
    cut = int(n * 0.8)
    return eng.DatasetView(x[:cut], y[:cut], x[cut:], y[cut:])


class TestTrainIndividual:
    def test_separable_classifier_learns(self, rng):
        view = _separable_view(rng)
        g = gn.Genome(id="c", kind=gn.CLASSIFIER, layers=(gn.ConvGene(4, 3, 3, 1),),
                      learning_rate=0.05)
        cfg = RunConfig(epochs=5, batch_size=20, wall_budget=1)
        _, report = train_individual(g, view, cfg, rng, (1, 8, 8), n_classes=2)
        assert report.metric > 0.9
        assert not report.diverged

    def test_zero_epochs_forbidden(self, rng):
        view = _separable_view(rng, n=40)
        g = gn.Genome(id="c", kind=gn.CLASSIFIER, layers=(gn.ConvGene(2, 3, 3, 1),))
        cfg = RunConfig(epochs=5, batch_size=20, wall_budget=1)
        cfg.epochs = 0
        with pytest.raises(ValueError):
            train_individual(g, view, cfg, rng, (1, 8, 8), n_classes=2)

    def test_identity_retrain_does_not_regress_beyond_noise(self, rng):
        view = _separable_view(rng, n=240)
        cfg = RunConfig(epochs=4, batch_size=20, wall_budget=1)
        g = gn.Genome(id="p", kind=gn.CLASSIFIER, layers=(gn.ConvGene(4, 3, 3, 1),),
                      learning_rate=0.05)
        net, report = train_individual(g, view, cfg, rng, (1, 8, 8), n_classes=2)
        child = g.with_child_fields("ch", "Identity")
        _, report2 = train_individual(
            child, view, cfg, rng, (1, 8, 8), n_classes=2, parent=(g, net)
        )
        assert report2.metric >= report.metric - 0.05

    def test_deterministic_given_seed(self):
        view = _separable_view(np.random.default_rng(7), n=80)
        g = gn.Genome(id="c", kind=gn.CLASSIFIER, layers=(gn.ConvGene(3, 3, 3, 1),),
                      learning_rate=0.05)
        cfg = RunConfig(epochs=2, batch_size=20, wall_budget=1)
        nets = []
        for _ in range(2):
            net, _ = train_individual(
                g, view, cfg, np.random.default_rng(99), (1, 8, 8), n_classes=2
            )
            nets.append(eng.serialize_network(net))
        assert nets[0] == nets[1]

    def test_diverged_training_reports_zero_metric(self, rng):
        # a poisoned weight makes the first loss non-finite; the trainer
        # must flag divergence and hand back metric 0 instead of raising
        view = _separable_view(rng, n=40)
        g = gn.Genome(id="c", kind=gn.CLASSIFIER, layers=(gn.ConvGene(2, 3, 3, 1),))
        net = build_network(g, (1, 8, 8), rng, n_classes=2)
        net.layers[0].w[0, 0, 0, 0] = np.nan
        report = eng.train_network(net, "classifier", view, 3, 20, 0.01, 0.9, rng)
        assert report.diverged
        assert report.metric == 0.0


def _classifier_blob():
    """EVOW blob of a 4-layer classifier: conv, pool, flatten, dense."""
    g = gn.Genome("c", gn.CLASSIFIER, (gn.ConvGene(2, 3, 3, 1), gn.PoolGene(2, 2)))
    net = build_network(g, (1, 4, 4), np.random.default_rng(0), n_classes=3)
    blob = eng.serialize_network(net)
    # the conv layer's tag, hyperparameter count and activation code sit at 12, 13, 34
    assert blob[12:14] == bytes([1, 6]) and blob[34:38] == struct.pack("<I", 0)
    return blob


def _with(blob, offset, raw):
    return blob[:offset] + raw + blob[offset + len(raw):]


_MALFORMED = {
    "truncated": lambda blob: [blob[:cut] for cut in range(len(blob))],
    "trailing bytes": lambda blob: [blob + b"\0", blob + bytes(8)],
    "unknown tag": lambda blob: [_with(blob, 12, bytes([t])) for t in (0, 7, 255)],
    "hyperparameter count": lambda blob: [_with(blob, 13, bytes([n])) for n in (0, 5, 7)],
    "activation code": lambda blob: [_with(blob, 34, struct.pack("<I", c)) for c in (3, 2**32 - 1)],
}


class TestWeightsBlob:
    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_malformed_blob_rejected(self, case):
        for bad in _MALFORMED[case](_classifier_blob()):
            with pytest.raises(eng.EngineError):
                eng.deserialize_network(bad)

    def test_round_trip(self, rng):
        g = gn.seed_genome(gn.ENCODER, "e", 0.01)
        net = build_network(g, (3, 8, 8), rng)
        blob = eng.serialize_network(net)
        net2 = eng.deserialize_network(blob)
        assert eng.serialize_network(net2) == blob
        assert [l.kind for l in net2.layers] == [l.kind for l in net.layers]
        clf_blob = _classifier_blob()
        assert eng.serialize_network(eng.deserialize_network(clf_blob)) == clf_blob

    def test_bad_magic(self):
        with pytest.raises(eng.EngineError):
            eng.deserialize_network(b"NOPE" + b"\0" * 16)

    def test_unsupported_version(self, rng):
        g = gn.seed_genome(gn.ENCODER, "e", 0.01)
        blob = bytearray(eng.serialize_network(build_network(g, (3, 8, 8), rng)))
        blob[4] = 99
        with pytest.raises(eng.EngineError, match="version"):
            eng.deserialize_network(bytes(blob))
