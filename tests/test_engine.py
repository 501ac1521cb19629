import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from evocnn import data as dt
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
    to_float64,
)
from test_acceptance import random_stack


def make_conv(in_c, f, kh, kw, stride=1, activation="relu", rng=None):
    """A float64 conv: zero parameters, or the program's init drawn from rng."""
    layer = eng.ConvLayer(in_c, f, kh, kw, stride, activation)
    if rng is None:
        layer.w = np.zeros((f, in_c, kh, kw))
        layer.b = np.zeros(f)
    else:
        layer.init_weights(rng)
        to_float64(layer)
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


def padded_window_forward(layer, x):
    """(output, im2col matrix) from a second construction of the same
    windows: np.pad, sliding_window_view, a ::stride slice and a 6-axis
    transpose."""
    b, c, h, w = x.shape
    s, kh, kw = layer.stride, layer.kh, layer.kw
    oh, ow = layer.out_shape(h, w)
    ph = max((oh - 1) * s + kh - h, 0)
    pw = max((ow - 1) * s + kw - w, 0)
    xp = np.pad(x, ((0, 0), (0, 0), (ph // 2, ph - ph // 2), (pw // 2, pw - pw // 2)))
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::s, ::s]
    cols = win.transpose(1, 4, 5, 0, 2, 3).reshape(c * kh * kw, b * oh * ow)
    z = layer.w.reshape(layer.filters, -1) @ cols + layer.b[:, None]
    z = z.reshape(layer.filters, b, oh, ow).transpose(1, 0, 2, 3)
    return eng._activate(z, layer.activation), cols


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

    def test_strided_view_matches_padded_windows_bytewise(self, rng):
        # every sweep conv runs as one chunk and keeps its one matrix: the
        # matrix product's operands, and so its sums, are unchanged
        for layer, x in conv_sweep(rng):
            for activation in ("relu", "sigmoid"):
                layer.activation = activation
                y = layer.forward(x)
                ref_y, ref_cols = padded_window_forward(layer, x)
                assert layer._cache[6] >= x.shape[0]
                assert layer._cache[1].shape == ref_cols.shape
                assert layer._cache[1].tobytes() == ref_cols.tobytes()
                assert y.tobytes() == ref_y.tobytes()

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


def upsampled(x, f):
    return x.repeat(f, axis=2).repeat(f, axis=3)


def resize_conv(in_c, filters, kh, kw, f, rng):
    """An upsample(f) -> stride-1 conv network."""
    conv = make_conv(in_c, filters, kh, kw, rng=rng)
    conv.b[...] = 0.1 * rng.standard_normal(filters)
    return eng.Network([eng.UpsampleLayer(f), conv])


def resize_conv_sweep(rng, count=120):
    """Random upsample -> conv pairs: factors 2-4, kernels 1-9 (even and
    non-square among them), batch 1 and 1-px inputs."""
    cases = []
    for _ in range(count):
        c, filters = (int(v) for v in rng.integers(1, 5, size=2))
        kh, kw = (int(v) for v in rng.integers(1, gn.FILTER_DIM_MAX + 1, size=2))
        f = int(rng.integers(2, 5))
        h, w = (int(v) for v in rng.integers(1, 5, size=2))
        x = rng.standard_normal((int(rng.integers(1, 4)), c, h, w))
        cases.append((resize_conv(c, filters, kh, kw, f, rng), x))
    convs = [(net.layers[1], net.layers[0].factor, x) for net, x in cases]
    covered = {
        **{f"factor {f}": any(u == f for _, u, _ in convs) for f in (2, 3, 4)},
        **{f"kernel {k}": any(k in (l.kh, l.kw) for l, _, _ in convs) for k in range(1, 10)},
        "even": any(l.kh % 2 == 0 and l.kw % 2 == 0 for l, _, _ in convs),
        "non-square": any(l.kh != l.kw for l, _, _ in convs),
        "batch 1": any(x.shape[0] == 1 for _, _, x in convs),
        "1-px input": any(x.shape[2:] == (1, 1) for _, _, x in convs),
    }
    assert all(covered.values()), covered
    return cases


class TestResizeConv:
    """An upsample directly below a stride-1 conv runs inside that conv, as
    one sub-pixel conv on the low-resolution input, checked against the
    nested-loop conv of the up-sampled input."""

    def test_forward_and_backward_match_the_oracles(self, rng):
        for net, x in resize_conv_sweep(rng):
            conv, f = net.layers[1], net.layers[0].factor
            forward_calls, calls = record_calls(net, "forward"), record_calls(net)
            y = net.forward(x)
            assert forward_calls == [(1, {"up": f})]
            np.testing.assert_allclose(y, conv_oracle(upsampled(x, f), conv.w, conv.b, 1),
                                       rtol=1e-10, atol=1e-10)
            gy = rng.standard_normal(y.shape)
            gx = net.backward(gy)
            assert calls == [(1, {})]
            ref_gu, ref_gw, ref_gb = conv_backward_oracle(upsampled(x, f), conv.w, conv.b, 1, gy)
            b, c, h, w = x.shape
            ref_gx = ref_gu.reshape(b, c, h, f, w, f).sum(axis=(3, 5))
            np.testing.assert_allclose(gx, ref_gx, rtol=1e-10, atol=1e-10)
            np.testing.assert_allclose(conv.gw, ref_gw, rtol=1e-10, atol=1e-10)
            np.testing.assert_allclose(conv.gb, ref_gb, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("f, kh, kw", [(2, 3, 3), (3, 4, 2), (4, 5, 1)])
    def test_finite_difference(self, rng, f, kh, kw):
        net = resize_conv(2, 3, kh, kw, f, rng)
        conv = net.layers[1]
        conv.activation = "sigmoid"  # smooth, so every coordinate is checkable
        x = rng.standard_normal((2, 2, 2, 3))

        def loss():
            out = net.forward(x)
            return float((out * out).sum() / 2)

        forward_calls = record_calls(net, "forward")
        y = net.forward(x)
        assert forward_calls == [(1, {"up": f})]
        gx = net.backward(y.copy())
        assert_grads_close(conv.gw, finite_difference(loss, conv.w))
        assert_grads_close(conv.gb, finite_difference(loss, conv.b))
        assert_grads_close(gx, finite_difference(loss, x))

    def test_inexact_crops_and_strided_convs_run_as_three_layers(self, rng):
        # a crop that cuts low-resolution rows or columns: an odd size, and
        # unequal pools, which up-sample by max(ph, pw); an exact crop
        # followed by a strided conv; and an exact crop between an upsample
        # and a stride-1 conv, which a decoder no longer builds
        def triple(crop, stride):
            return eng.Network([eng.UpsampleLayer(2), crop, make_conv(2, 3, 3, 3, stride=stride, rng=rng)])

        odd = triple(eng.CropLayer(5, 6), 1)
        strided = triple(eng.CropLayer(6, 6), 2)
        exact = triple(eng.CropLayer(6, 6), 1)
        cases = [(net, rng.standard_normal((2, 2, 3, 3))) for net in (odd, strided, exact)]
        for pool in (gn.PoolGene(2, 3), gn.PoolGene(3, 2)):
            g = gn.Genome("e", gn.ENCODER, (gn.ConvGene(3, 3, 3, 1), pool))
            net = build_network(g, (2, 6, 6), rng)
            assert [l.kind for l in net.layers[2:]] == ["upsample", "crop", "conv"]
            cases.append((net, rng.standard_normal((2, 2, 6, 6))))
        for net, x in cases:
            forward_calls, calls = record_calls(net, "forward"), record_calls(net)
            y = net.forward(x)
            assert forward_calls == [(i, {}) for i in range(len(net.layers))]
            assert net.backward(rng.standard_normal(y.shape)).shape == x.shape
            assert [i for i, _ in calls] == list(reversed(range(len(net.layers))))
        for net, crop in ((odd, np.s_[:, :, :5]), (strided, np.s_[:]), (exact, np.s_[:])):
            x, conv = rng.standard_normal((2, 2, 3, 3)), net.layers[2]
            np.testing.assert_allclose(net.forward(x),
                                       conv_oracle(upsampled(x, 2)[crop], conv.w, conv.b, conv.stride),
                                       rtol=1e-10, atol=1e-10)

    def test_forward_leaves_serialized_weights_unchanged(self, rng):
        g = gn.seed_genome(gn.ENCODER, "e", 0.01)
        net = build_network(g, (3, 8, 8), rng)
        assert [l.kind for l in net.layers] == ["conv", "pool", "upsample", "conv"]
        blob = eng.serialize_network(net)
        forward_calls = record_calls(net, "forward")
        x = rng.random((4, 3, 8, 8))
        y = net.forward(x)
        assert forward_calls == [(0, {}), (1, {}), (3, {"up": 2})]
        assert eng.serialize_network(net) == blob
        # a deserialized network pairs the same layers
        back = eng.deserialize_network(blob)
        back_calls = record_calls(back, "forward")
        assert back.forward(x).shape == y.shape and back_calls == forward_calls


def run_in_chunks(monkeypatch, layer, x, n, up=1):
    """Set the chunk constants so that `layer` runs x (up-sampled `up` times)
    in chunks of n samples: no byte budget, a column floor of n samples."""
    oh, ow = (x.shape[2], x.shape[3]) if up > 1 else layer.out_shape(*x.shape[2:])
    monkeypatch.setattr(eng, "CONV_CHUNK_BYTES", 0)
    monkeypatch.setattr(eng, "CONV_CHUNK_COLS", n * oh * ow)


def assert_ran_in_chunks(layer, x, n):
    """The last forward ran n-sample chunks and kept the padded input, not a matrix."""
    assert layer._cache[6] == n < x.shape[0]
    assert layer._cache[1].shape[:2] == x.shape[:2] and layer._cache[1].ndim == 4


def chunked(cases, rng):
    """Each (case, x) with x redrawn on a batch of 2-4 and a chunk size n
    below it: 1-sample chunks and chunks that do not divide the batch
    among them."""
    out = []
    for case, x in cases:
        b = int(rng.integers(2, 5))
        out.append((case, rng.standard_normal((b, *x.shape[1:])), int(rng.integers(1, b))))
    covered = {
        "1-sample chunks": any(n == 1 for _, _, n in out),
        "uneven chunks": any(x.shape[0] % n for _, x, n in out),
        "even chunks": any(n > 1 and x.shape[0] % n == 0 for _, x, n in out),
    }
    assert all(covered.values()), covered
    return out


class TestChunkedConv:
    """A conv whose batch runs in several chunks: each chunk's matrix is
    rebuilt from the kept padded input in backward, its products are
    written into their slices, and the weight and bias gradients are sums
    over chunks. Checked against the same oracles and tolerances as one chunk."""

    def test_chunk_size_rule(self):
        # (batch, in_channels, side, kernel) -> samples per chunk: the most
        # whose matrix fits in CONV_CHUNK_BYTES, never below CONV_CHUNK_COLS columns
        for (b, c, side, k), n in {
            (100, 3, 32, 3): 4,     # 27 x 4096 doubles fit 1 MiB, 27 x 5120 do not
            (64, 2, 16, 3): 28,     # 18 x 7168 doubles fit, 18 x 7424 do not
            (30, 32, 32, 3): 1,     # the column floor: one 1024-pixel sample
            (50, 8, 16, 5): 4,      # the floor: 1024 columns, where 512 fit 1 MiB
            (15, 64, 8, 3): 16,     # the floor covers the whole batch: one chunk
        }.items():
            layer = make_conv(c, 4, k, k)
            layer.forward(np.zeros((b, c, side, side)))
            assert layer._cache[6] == n
            assert (layer._cache[1].ndim == 2) == (n >= b)

    def test_forward_and_backward_match_the_oracles(self, rng, monkeypatch):
        cases = chunked(conv_sweep(rng), rng)
        assert {l.stride for l, _, _ in cases} == set(range(1, gn.STRIDE_MAX + 1))
        for layer, x, n in cases:
            run_in_chunks(monkeypatch, layer, x, n)
            y = layer.forward(x)
            assert_ran_in_chunks(layer, x, n)
            np.testing.assert_allclose(y, conv_oracle(x, layer.w, layer.b, layer.stride),
                                       rtol=1e-10, atol=1e-10)
            gy = rng.standard_normal(y.shape)
            gx = layer.backward(gy)
            ref_gx, ref_gw, ref_gb = conv_backward_oracle(x, layer.w, layer.b, layer.stride, gy)
            np.testing.assert_allclose(gx, ref_gx, rtol=1e-10, atol=1e-10)
            np.testing.assert_allclose(layer.gw, ref_gw, rtol=1e-10, atol=1e-10)
            np.testing.assert_allclose(layer.gb, ref_gb, rtol=1e-10, atol=1e-10)

    def test_rebuilt_matrices_are_the_padded_windows_bytewise(self, rng, monkeypatch):
        for layer, x, n in chunked(conv_sweep(rng), rng):
            run_in_chunks(monkeypatch, layer, x, n)
            layer.forward(x)
            _, ref_cols = padded_window_forward(layer, x)
            s, kh, kw, oh, ow = layer._cache[7][:5]
            for i in range(0, x.shape[0], n):
                cols = eng._im2col(layer._cache[1][i:i + n], s, kh, kw, oh, ow)
                assert cols.tobytes() == ref_cols[:, i * oh * ow:(i + n) * oh * ow].tobytes()

    @pytest.mark.parametrize("stride, n", [(1, 1), (2, 2), (3, 1), (4, 2)])
    def test_finite_difference(self, rng, monkeypatch, stride, n):
        layer = make_conv(2, 3, 3, 3, stride=stride, rng=rng)
        x = rng.standard_normal((3, 2, 5, 5))
        run_in_chunks(monkeypatch, layer, x, n)

        def loss():
            out = layer.forward(x)
            return float((out * out).sum() / 2)

        y = layer.forward(x)
        assert_ran_in_chunks(layer, x, n)
        gx = layer.backward(y.copy())
        assert_grads_close(layer.gw, finite_difference(loss, layer.w))
        assert_grads_close(layer.gb, finite_difference(loss, layer.b))
        assert_grads_close(gx, finite_difference(loss, x))

    def test_resize_conv_matches_the_oracles(self, rng, monkeypatch):
        for net, x, n in chunked(resize_conv_sweep(rng), rng):
            conv, f = net.layers[1], net.layers[0].factor
            run_in_chunks(monkeypatch, conv, x, n, up=f)
            forward_calls = record_calls(net, "forward")
            y = net.forward(x)
            assert forward_calls == [(1, {"up": f})]
            assert_ran_in_chunks(conv, x, n)
            np.testing.assert_allclose(y, conv_oracle(upsampled(x, f), conv.w, conv.b, 1),
                                       rtol=1e-10, atol=1e-10)
            gy = rng.standard_normal(y.shape)
            gx = net.backward(gy)
            ref_gu, ref_gw, ref_gb = conv_backward_oracle(upsampled(x, f), conv.w, conv.b, 1, gy)
            b, c, h, w = x.shape
            np.testing.assert_allclose(gx, ref_gu.reshape(b, c, h, f, w, f).sum(axis=(3, 5)),
                                       rtol=1e-10, atol=1e-10)
            np.testing.assert_allclose(conv.gw, ref_gw, rtol=1e-10, atol=1e-10)
            np.testing.assert_allclose(conv.gb, ref_gb, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("f, kh, kw, n", [(2, 3, 3, 1), (3, 4, 2, 2), (4, 5, 1, 2)])
    def test_resize_conv_finite_difference(self, rng, monkeypatch, f, kh, kw, n):
        net = resize_conv(2, 3, kh, kw, f, rng)
        conv = net.layers[1]
        conv.activation = "sigmoid"  # smooth, so every coordinate is checkable
        x = rng.standard_normal((3, 2, 2, 3))
        run_in_chunks(monkeypatch, conv, x, n, up=f)

        def loss():
            out = net.forward(x)
            return float((out * out).sum() / 2)

        forward_calls = record_calls(net, "forward")
        y = net.forward(x)
        assert forward_calls == [(1, {"up": f})]
        assert_ran_in_chunks(conv, x, n)
        gx = net.backward(y.copy())
        assert_grads_close(conv.gw, finite_difference(loss, conv.w))
        assert_grads_close(conv.gb, finite_difference(loss, conv.b))
        assert_grads_close(gx, finite_difference(loss, x))

    def test_training_backward_keeps_parameter_grads_bytewise(self, rng, monkeypatch):
        for layer, x, n in chunked(conv_sweep(rng), rng):
            run_in_chunks(monkeypatch, layer, x, n)
            for activation in ("relu", "sigmoid"):
                layer.activation = activation
                gy = rng.standard_normal(layer.forward(x).shape)
                assert_ran_in_chunks(layer, x, n)
                layer.backward(gy)
                full = (layer.gw.tobytes(), layer.gb.tobytes())
                layer.gw = layer.gb = None
                assert layer.backward(gy, input_grad=False) is None
                assert (layer.gw.tobytes(), layer.gb.tobytes()) == full


class ReadCounter(np.ndarray):
    """Weights that count the arithmetic that reads them. In backward only
    the input gradient reads a layer's weights."""

    reads = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        ReadCounter.reads += 1
        inputs = [a.view(np.ndarray) if isinstance(a, ReadCounter) else a for a in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def grad_bytes(net):
    return [g.tobytes() for layer in net.layers for g in layer.grads()]


def output_grad(net, x, labels, target):
    out = net.forward(x)
    if labels is not None:
        return eng.softmax_cross_entropy(out, labels)[1]
    return eng.mse_loss(out, target)[1]


def record_calls(net, method="backward"):
    """Wrap each layer's `method`; returns the list of (index, kwargs) calls."""
    calls = []
    for i, layer in enumerate(net.layers):
        def spy(arg, _original=getattr(layer, method), _i=i, **kwargs):
            calls.append((_i, kwargs))
            return _original(arg, **kwargs)
        setattr(layer, method, spy)
    return calls


def fused_convs(net):
    """Indices of the stride-1 convs directly above an upsample."""
    kinds = [layer.kind for layer in net.layers]
    return [i for i in range(1, len(kinds))
            if kinds[i - 1:i + 1] == ["upsample", "conv"] and net.layers[i].stride == 1]


class TestTrainingBackward:
    """`input_grad=False`, training's backward: the parameter gradients of
    the full pass and none of the work below them."""

    def test_random_stacks_keep_parameter_grads_bytewise(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            net, x, labels, target = random_stack(rng)
            gy = output_grad(net, x, labels, target)
            net.backward(gy)
            full = grad_bytes(net)
            for layer in net.layers:
                if layer.params():
                    layer.gw = layer.gb = None
            assert net.backward(gy, input_grad=False) is None
            assert grad_bytes(net) == full

    def test_conv_sweep_keeps_parameter_grads_bytewise(self, rng):
        for layer, x in conv_sweep(rng):
            for activation in ("relu", "sigmoid"):
                layer.activation = activation
                gy = rng.standard_normal(layer.forward(x).shape)
                layer.backward(gy)
                full = (layer.gw.tobytes(), layer.gb.tobytes())
                layer.gw = layer.gb = None
                assert layer.backward(gy, input_grad=False) is None
                assert (layer.gw.tobytes(), layer.gb.tobytes()) == full

    @pytest.mark.parametrize("kind", ["conv", "dense"])
    def test_lowest_layer_skips_its_input_gradient(self, rng, kind):
        if kind == "conv":
            layer, x = make_conv(2, 3, 3, 3, stride=2, rng=rng), rng.standard_normal((2, 2, 5, 5))
        else:
            layer, x = eng.DenseLayer(6, 4), rng.standard_normal((2, 6))
            layer.init_weights(rng)
        gy = rng.standard_normal(layer.forward(x).shape)
        layer.w = layer.w.view(ReadCounter)
        ReadCounter.reads = 0
        layer.backward(gy, input_grad=False)
        assert ReadCounter.reads == 0
        layer.backward(gy)
        assert ReadCounter.reads > 0

    def test_no_layer_below_the_lowest_weighted_one_is_called(self):
        # nor the upsample below a fused conv: the conv returns the
        # gradient of the upsample's input
        rng = np.random.default_rng(7)
        seen = set()
        for _ in range(100):
            net, x, labels, target = random_stack(rng)
            gy = output_grad(net, x, labels, target)
            calls = record_calls(net)
            net.backward(gy, input_grad=False)
            lowest = min((i for i, l in enumerate(net.layers) if l.params()), default=len(net.layers))
            fused = fused_convs(net)
            skipped = {i - 1 for i in fused}
            expected = [(i, {}) for i in range(len(net.layers) - 1, lowest, -1) if i not in skipped]
            if lowest < len(net.layers):
                expected.append((lowest, {"input_grad": False}))
            assert calls == expected
            if lowest == len(net.layers):
                seen.add("no weights")
            else:
                seen.add("layers below" if lowest else "weights first")
            if any(i > lowest for i in fused):
                seen.add("fused pair")
        assert seen == {"no weights", "layers below", "weights first", "fused pair"}

    def test_pool_only_autoencoder_trains_without_backward(self, rng):
        g = gn.Genome(id="p", kind=gn.ENCODER, layers=(gn.PoolGene(2, 2),))
        net = build_network(g, (1, 8, 8), rng)
        calls = record_calls(net)
        report = eng.train_network(
            net, gn.GENOME_KINDS[gn.ENCODER], _separable_view(rng, n=40), 2, 8, 0.1, 0.9, rng
        )
        assert calls == []
        assert report.epochs_run == 2 and report.final_train_loss > 0 and not report.diverged


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

    @staticmethod
    def padded_argmax_forward(layer, x):
        """The pool forward this engine used before its running max:
        -inf padding, a window-last transpose and argmax; (output, indices)."""
        b, c, h, w = x.shape
        oh, ow = layer.out_shape(h, w)
        xp = np.pad(x, ((0, 0), (0, 0), (0, oh * layer.ph - h), (0, ow * layer.pw - w)),
                    constant_values=-np.inf)
        blocks = (xp.reshape(b, c, oh, layer.ph, ow, layer.pw).transpose(0, 1, 2, 4, 3, 5)
                  .reshape(b, c, oh, ow, layer.ph * layer.pw))
        idx = blocks.argmax(axis=-1)
        return np.take_along_axis(blocks, idx[..., None], axis=-1)[..., 0], idx

    @staticmethod
    def padded_argmax_backward(layer, idx, gy, shape):
        """The pool backward this engine used while its forward kept the
        argmax indices: gy put at each window's index, the windows
        transposed back into place and the padding cut off."""
        b, c, h, w = shape
        oh, ow = layer.out_shape(h, w)
        gblocks = np.zeros((b, c, oh, ow, layer.ph * layer.pw), gy.dtype)
        np.put_along_axis(gblocks, idx[..., None], gy[..., None], axis=-1)
        gx = (gblocks.reshape(b, c, oh, ow, layer.ph, layer.pw).transpose(0, 1, 2, 4, 3, 5)
              .reshape(b, c, oh * layer.ph, ow * layer.pw))
        return gx[:, :, :h, :w]

    def test_running_max_equals_padded_argmax_bytes(self, rng):
        # few distinct values make ties; -inf, NaN and -0.0 cells, and
        # truncated edge windows, route as argmax routes them. gy's values
        # are distinct and non-zero, so equal gradients mean equal indices
        seen = set()
        for case in range(300):
            dtype = (np.float64, np.float32)[case % 2]
            ph, pw = (int(v) for v in rng.integers(2, gn.POOL_MAX + 1, size=2))
            shape = (int(rng.integers(1, 3)), int(rng.integers(1, 3)),
                     int(rng.integers(1, 12)), int(rng.integers(1, 12)))
            x = rng.integers(-2, 3, size=shape).astype(dtype)
            x[rng.random(shape) < 0.15] = -np.inf
            x[rng.random(shape) < 0.05] = np.nan
            x[(x == 0) & (rng.random(shape) < 0.5)] = -0.0
            layer = eng.MaxPoolLayer(ph, pw)
            y = layer.forward(x)
            ref_y, ref_idx = self.padded_argmax_forward(layer, x)
            assert y.dtype == ref_y.dtype == dtype
            assert y.tobytes() == ref_y.tobytes()
            gy = (np.arange(1, y.size + 1) * (-1) ** np.arange(y.size)).reshape(y.shape).astype(dtype)
            gx = layer.backward(gy)
            ref_gx = self.padded_argmax_backward(layer, ref_idx, gy, shape)
            assert gx.shape == ref_gx.shape and gx.dtype == ref_gx.dtype
            assert gx.tobytes() == ref_gx.tobytes()
            if shape[2] % ph or shape[3] % pw:
                seen.add("edge window")
            seen.update(k for k, v in (("nan", np.isnan(y).any()), ("-inf", np.isneginf(y).any()),
                                       ("-0.0", ((y == 0) & np.signbit(y)).any()),
                                       ("float32", dtype == np.float32)) if v)
        assert seen == {"edge window", "nan", "-inf", "-0.0", "float32"}

    def test_backward_routes_by_the_last_forward_input(self, rng):
        # the layer keeps its input by reference and no index, so backward
        # reads the input of the forward before it, which forward leaves as it was
        layer = eng.MaxPoolLayer(2, 3)
        first, second = (rng.standard_normal((2, 3, 7, 8)).astype(np.float32) for _ in range(2))
        kept = second.copy()
        layer.forward(first)
        y = layer.forward(second)
        assert second.tobytes() == kept.tobytes()
        gy = np.arange(1, y.size + 1, dtype=np.float32).reshape(y.shape)
        gx = layer.backward(gy)
        assert second.tobytes() == kept.tobytes()
        _, idx = self.padded_argmax_forward(layer, kept)
        assert gx.tobytes() == self.padded_argmax_backward(layer, idx, gy, kept.shape).tobytes()
        _, first_idx = self.padded_argmax_forward(layer, first)
        assert not np.array_equal(idx, first_idx)


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

    def test_gradient_holds_probabilities(self, rng):
        # grad = (probs - one_hot) / n, so grad * n + one_hot gives the probabilities back
        labels = rng.integers(0, 10, 8)
        _, grad = eng.softmax_cross_entropy(rng.standard_normal((8, 10)) * 5, labels)
        probs = grad * 8 + np.eye(10)[labels]
        assert np.all((probs > 0) & (probs <= 1))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    @staticmethod
    def two_pass(logits, labels):
        """Reference: the loss, then the probabilities from a separate softmax
        pass with its own max, exp and sum."""
        n = logits.shape[0]
        m = logits.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
        loss = float((lse - logits[np.arange(n), labels]).mean())
        m = logits.max(axis=1, keepdims=True)
        e = np.exp(logits - m)
        grad = e / e.sum(axis=1, keepdims=True)
        grad[np.arange(n), labels] -= 1.0
        return loss, grad / n

    def test_one_pass_equals_two_pass_bytes(self, rng):
        for scale in np.geomspace(0.1, 300, 60):
            for _ in range(10):
                n, k = int(rng.integers(1, 40)), int(rng.integers(2, 12))
                logits = rng.standard_normal((n, k)) * scale
                labels = rng.integers(0, k, n)
                loss, grad = eng.softmax_cross_entropy(logits, labels)
                ref_loss, ref_grad = self.two_pass(logits, labels)
                assert struct.pack("<d", loss) == struct.pack("<d", ref_loss)
                assert grad.dtype == ref_grad.dtype and grad.shape == ref_grad.shape
                assert grad.tobytes() == ref_grad.tobytes()

    def test_nonfinite_logits_raise_training_failure(self):
        logits = np.zeros((1, 3))
        logits[0, 0] = np.nan
        with pytest.raises(eng.TrainingDiverged):
            eng.softmax_cross_entropy(logits, np.array([0]))

    def test_dense_softmax_head_gradient(self, rng):
        # the classifier head as the training loop runs it: flatten, dense, softmax
        layer = eng.DenseLayer(12, 3)
        layer.init_weights(rng)
        to_float64(layer)
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


class _Recon(eng.Network):
    """Stands in for an autoencoder whose forward pass is `fn`."""

    def __init__(self, fn):
        super().__init__([])
        self.forward = fn


class TestReconstructionAccuracy:
    def test_perfect_reconstruction(self, rng):
        x = rng.random((2, 3, 4, 4))
        assert eng.reconstruction_accuracy(_Recon(np.copy), x) == 1.0

    def test_maximal_error_on_unit_range(self):
        x = np.ones((1, 1, 2, 2))
        assert eng.reconstruction_accuracy(_Recon(np.zeros_like), x) == 0.0

    def test_constant_tensor_arithmetic(self):
        # two full chunks and a partial one: the chunked sum must equal the plain mean
        x = np.full((2 * eng.EVAL_CHUNK + 5, 1, 3, 3), 0.5)
        sizes = []

        def constant(xb):
            sizes.append(len(xb))
            return np.full_like(xb, 0.3)

        assert eng.reconstruction_accuracy(_Recon(constant), x) == pytest.approx(0.96)
        assert sizes == [eng.EVAL_CHUNK, eng.EVAL_CHUNK, 5]

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


class TestNetworkMomentum:
    def _net_with_fixed_grads(self, rng):
        """A classifier whose parameters and gradients are small dyadic
        values, so that every momentum sum below is exact in float32."""
        net = build_network(gn.seed_genome(gn.CLASSIFIER, "m", 0.01), (1, 8, 8), rng)
        grads = []
        for layer in net.layers:
            for p in layer.params():
                p[...] = rng.integers(-8, 9, p.shape)
            if layer.params():
                layer.gw, layer.gb = (rng.integers(-8, 9, p.shape) / 4.0 for p in layer.params())
                grads += [layer.gw, layer.gb]
        return net, grads

    def test_k_steps_follow_the_closed_form(self, rng):
        # v_k = -lr*g*(1 - m^k)/(1 - m) and w_k = w_0 + v_1 + ... + v_k; at
        # lr 1/4 and m 1/2 both are exact, so the steps must match to the byte
        net, grads = self._net_with_fixed_grads(rng)
        params = [p for layer in net.layers for p in layer.params()]
        start = [p.copy() for p in params]
        lr, m = 0.25, 0.5
        for k in range(1, 9):
            net.step(lr, m)
            geometric = (1 - m ** np.arange(1, k + 1)) / (1 - m)
            for p, w0, g, v in zip(params, start, grads, net._velocity):
                assert (v == -lr * g * geometric[-1]).all() and v.dtype == p.dtype
                assert (p == w0 - lr * g * geometric.sum()).all()

    def test_never_stepped_network_holds_no_momentum(self, rng):
        net = build_network(gn.seed_genome(gn.ENCODER, "e", 0.01), (1, 8, 8), rng)
        net.backward(np.ones_like(net.forward(rng.random((2, 1, 8, 8)))), input_grad=False)
        back = eng.deserialize_network(eng.serialize_network(net))
        assert net._velocity is None and back._velocity is None
        net.step(0.1, 0.9)
        assert [v.shape for v in net._velocity] == [p.shape for l in net.layers for p in l.params()]

    def test_a_new_network_starts_from_zero_momentum(self, rng):
        # one network's momentum is not another's, even over the same layers
        net, grads = self._net_with_fixed_grads(rng)
        for _ in range(3):
            net.step(0.25, 0.5)
        params = [p for layer in net.layers for p in layer.params()]
        before = [p.copy() for p in params]
        eng.Network(net.layers).step(0.25, 0.5)
        for p, w0, g in zip(params, before, grads):
            assert (p == w0 - 0.25 * g).all()


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
        cfg = RunConfig(epochs=5, batch_size=20, wall_budget=1, n_classes=2)
        _, report = train_individual(g, view, cfg, rng, (1, 8, 8))
        assert report.metric > 0.9
        assert not report.diverged

    def test_zero_epochs_forbidden(self, rng):
        view = _separable_view(rng, n=40)
        g = gn.Genome(id="c", kind=gn.CLASSIFIER, layers=(gn.ConvGene(2, 3, 3, 1),))
        cfg = RunConfig(epochs=5, batch_size=20, wall_budget=1, n_classes=2)
        cfg.epochs = 0
        with pytest.raises(ValueError):
            train_individual(g, view, cfg, rng, (1, 8, 8))

    def test_identity_retrain_does_not_regress_beyond_noise(self, rng):
        view = _separable_view(rng, n=240)
        cfg = RunConfig(epochs=4, batch_size=20, wall_budget=1, n_classes=2)
        g = gn.Genome(id="p", kind=gn.CLASSIFIER, layers=(gn.ConvGene(4, 3, 3, 1),),
                      learning_rate=0.05)
        net, report = train_individual(g, view, cfg, rng, (1, 8, 8))
        child = g.with_child_fields("ch", "Identity")
        _, report2 = train_individual(
            child, view, cfg, rng, (1, 8, 8),
            parent=(g, net, [0]),
        )
        assert report2.metric >= report.metric - 0.05

    def test_resized_conv_redraws_after_the_build(self, monkeypatch):
        # an AlterFilterNumber child (8 -> 16 filters) keeps the parent's
        # filters on the overlap; the rest is a fresh init drawn after the
        # build's own draws, so every lineage with a resize depends on it
        shape = (3, 8, 8)
        parent = gn.seed_genome(gn.ENCODER, "p")
        parent_net = build_network(parent, shape, np.random.default_rng(1))
        child = parent.with_child_fields(
            "c", "AlterFilterNumber", layers=(gn.ConvGene(16, 3, 3, 1), gn.PoolGene(2, 2))
        )
        monkeypatch.setattr(eng, "train_network", lambda *args: None)
        rng = np.random.default_rng(2)
        net, _ = train_individual(child, None, RunConfig(wall_budget=1), rng, shape,
                                  parent=(parent, parent_net, [0, 1]))

        expected_rng = np.random.default_rng(2)
        build_network(child, shape, expected_rng)
        fresh = eng.layer_from_spec(child.layers[0].spec(shape[0]))
        fresh.init_weights(expected_rng)
        conv, parent_conv = net.layers[0], parent_net.layers[0]
        np.testing.assert_array_equal(conv.w[:8], parent_conv.w)
        np.testing.assert_array_equal(conv.b[:8], parent_conv.b)
        np.testing.assert_array_equal(conv.w[8:], fresh.w[8:])
        np.testing.assert_array_equal(conv.b[8:], fresh.b[8:])
        assert rng.bit_generator.state == expected_rng.bit_generator.state

    def test_deterministic_given_seed(self):
        view = _separable_view(np.random.default_rng(7), n=80)
        g = gn.Genome(id="c", kind=gn.CLASSIFIER, layers=(gn.ConvGene(3, 3, 3, 1),),
                      learning_rate=0.05)
        cfg = RunConfig(epochs=2, batch_size=20, wall_budget=1, n_classes=2)
        nets = []
        for _ in range(2):
            net, _ = train_individual(
                g, view, cfg, np.random.default_rng(99), (1, 8, 8)
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
        report = eng.train_network(
            net, gn.GENOME_KINDS[gn.CLASSIFIER], view, 3, 20, 0.01, 0.9, rng
        )
        assert report.diverged
        assert report.metric == 0.0

    def test_classifier_whose_last_step_breaks_its_weights_reports_divergence(self, rng):
        # one batch at this rate leaves the loss it was computed from finite
        # but the weights non-finite; the validation logits then hold no
        # largest value, so the metric is not an accuracy
        view = _separable_view(rng, n=40)
        view = eng.DatasetView(view.train_x.astype(np.float32), view.train_y,
                               view.val_x.astype(np.float32), view.val_y)
        net = eng.Network([eng.FlattenLayer(), eng.DenseLayer(64, 2)])
        net.layers[1].init_weights(rng)
        report = eng.train_network(net, gn.GENOME_KINDS[gn.CLASSIFIER], view, 1, 32, 1e39, 0.9, rng)
        assert not np.isfinite(net.layers[1].w).all()
        assert math.isfinite(report.final_train_loss)
        assert report.diverged and report.metric == 0.0
        # called directly, outside training's errstate, it still warns of nothing
        assert math.isnan(eng.classifier_accuracy(net, view.val_x, view.val_y))

    def test_diverging_float32_autoencoder_reports_divergence_without_a_warning(self):
        # at this rate the weights overflow float32 within a few steps, and
        # the arithmetic on them raises numpy's overflow and invalid flags
        # before the loss turns NaN
        ds = dt.synth_dataset(2, 40, 8, seed=1)
        view = eng.DatasetView(ds.x[:30], ds.y[:30], ds.x[30:], ds.y[30:])
        g = gn.Genome("e", gn.ENCODER, (gn.ConvGene(4, 3, 3, 1), gn.ConvGene(4, 3, 3, 1), gn.PoolGene(2, 2)))
        rng = np.random.default_rng(0)
        net = build_network(g, (3, 8, 8), rng)
        assert ds.x.dtype == net.layers[0].w.dtype == np.float32
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = eng.train_network(net, gn.GENOME_KINDS[gn.ENCODER], view, 3, 10, 1e16, 0.9, rng)
        assert report.diverged and report.metric == 0.0


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


def _encoder_blob():
    g = gn.seed_genome(gn.ENCODER, "e", 0.01)
    return eng.serialize_network(build_network(g, (3, 8, 8), np.random.default_rng(0)))


@st.composite
def evow_bytes(draw):
    """A real EVOW blob with a few byte runs overwritten, then cut short or
    extended; or any bytes behind the magic and version."""
    if draw(st.booleans()):
        return b"EVOW" + struct.pack("<I", 1) + draw(st.binary(max_size=80))
    blob = bytearray(draw(st.sampled_from([_classifier_blob, _encoder_blob]))())
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(blob) - 1))
        run = draw(st.binary(min_size=1, max_size=4))
        blob[at:at + len(run)] = run
    edit = draw(st.sampled_from(["keep", "cut", "extend"]))
    if edit == "cut":
        return bytes(blob[: draw(st.integers(0, len(blob) - 1))])
    if edit == "extend":
        blob += draw(st.binary(min_size=1, max_size=8))
    return bytes(blob)


def _layer_facts(layer):
    return layer.kind, [getattr(layer, name) for name in eng.LAYER_KINDS[layer.kind].hparams]


_MALFORMED = {
    "truncated": lambda blob: [blob[:cut] for cut in range(len(blob))],
    "trailing bytes": lambda blob: [blob + b"\0", blob + bytes(8)],
    "unknown tag": lambda blob: [_with(blob, 12, bytes([t])) for t in (0, 7, 255)],
    "hyperparameter count": lambda blob: [_with(blob, 13, bytes([n])) for n in (0, 5, 7)],
    # 2 is unassigned: no gene or decoder builds a linear activation
    "activation code": lambda blob: [_with(blob, 34, struct.pack("<I", c)) for c in (2, 3, 2**32 - 1)],
}


class TestDtype:
    # float32 against float64 on the same float32 weights, inputs and output
    # gradients. A float32 sum errs by a small multiple of float32's epsilon
    # times the sum of its terms' magnitudes, which the float64 run of the
    # same conv on |w|, |b|, |x| and |gy| gives; each output and gradient
    # must be within F32_TOL of those magnitudes. An output here sums up to
    # 6 * 9 * 9 = 486 products. The worst measured were 1.5e-6 for outputs
    # (mostly the sigmoid's own rounding) and 6e-8 for gradients.
    F32_TOL = 64 * np.finfo(np.float32).eps

    @staticmethod
    def conv_pass(conv, w, b, x, gy, kwargs):
        """(y, gx, gw, gb) of conv at w, b on x, with output gradient gy."""
        conv.w, conv.b = w, b
        y = conv.forward(x, **kwargs)
        return y, conv.backward(gy), conv.gw, conv.gb

    @pytest.mark.parametrize("chunks", [False, True], ids=["one chunk", "chunks"])
    @pytest.mark.parametrize("up", [False, True], ids=["conv", "resize conv"])
    def test_float32_agrees_with_float64(self, rng, monkeypatch, up, chunks):
        cases = resize_conv_sweep(rng) if up else conv_sweep(rng)
        cases = chunked(cases, rng) if chunks else [(case, x, None) for case, x in cases]
        for case, x, n in cases:
            conv, kwargs = (case.layers[1], {"up": case.layers[0].factor}) if up else (case, {})
            if n:
                run_in_chunks(monkeypatch, conv, x, n, **kwargs)
            f64 = [a.astype(np.float32).astype(np.float64) for a in (conv.w, conv.b, x)]
            gy = rng.standard_normal(conv.forward(x, **kwargs).shape).astype(np.float32).astype(np.float64)
            # relu passes each sum of magnitudes, all of them >= 0, unchanged
            magnitudes = self.conv_pass(conv, *map(np.abs, f64), np.abs(gy), kwargs)
            conv.activation = "sigmoid"  # smooth: no pre-activation near 0 flips a ReLU's gradient
            ref = self.conv_pass(conv, *f64, gy, kwargs)
            got = self.conv_pass(conv, *(a.astype(np.float32) for a in (*f64, gy)), kwargs)
            if n:
                assert_ran_in_chunks(conv, x, n)
            for name, m, r, g in zip(("y", "gx", "gw", "gb"), magnitudes, ref, got):
                assert g.dtype == np.float32 and g.shape == r.shape, name
                assert np.all(np.abs(g - r) <= self.F32_TOL * m), name

    def test_the_program_is_float32_end_to_end(self, rng, tmp_path):
        # every loader, the init, inheritance and the EVOW reader give
        # float32, and EVOW and EVOD store those values bit for bit
        labels, pixels = rng.integers(0, 10, 4), rng.integers(0, 256, (4, *dt.CIFAR_SHAPE))
        (tmp_path / "data_batch_1.bin").write_bytes(dt.serialize_cifar_batch(labels, pixels))
        synth = dt.synth_dataset(2, 20, 8, seed=1)
        shape = synth.sample_shape
        view = eng.DatasetView(synth.x[:16], synth.y[:16], synth.x[16:], synth.y[16:])
        parent = gn.seed_genome(gn.ENCODER, "p")
        parent_net = build_network(parent, shape, rng)
        # 8 -> 16 filters: the overlap is inherited, the rest a fresh init
        child = parent.with_child_fields(
            "c", "AlterFilterNumber", layers=(gn.ConvGene(16, 3, 3, 1), gn.PoolGene(2, 2))
        )
        cfg = RunConfig(epochs=1, batch_size=8, wall_budget=1)
        net, report = train_individual(child, view, cfg, rng, shape, parent=(parent, parent_net, [0, 1]))
        assert not report.diverged
        blob = eng.serialize_network(net)
        back = eng.deserialize_network(blob)
        encoded = dt.encode_dataset(eng.Network(back.layers[:len(child.layers)]), synth)
        dt.write_evod(tmp_path / "train.evod", encoded)
        cached = dt.read_evod(tmp_path / "train.evod")
        arrays = {
            "load_cifar10": dt.load_cifar10(tmp_path).x,
            "synth_dataset": synth.x,
            "encode_dataset": encoded.x,
            "read_evod": cached.x,
            **{f"{how} layer {i}": p for how, built in (("init", parent_net), ("inherited", net),
                                                         ("deserialized", back))
               for i, layer in enumerate(built.layers) for p in layer.params()},
        }
        assert {name: a.dtype for name, a in arrays.items()} == dict.fromkeys(arrays, np.float32)
        assert [p.tobytes() for l in back.layers for p in l.params()] == \
            [p.tobytes() for l in net.layers for p in l.params()]
        assert eng.serialize_network(back) == blob
        assert cached.x.tobytes() == encoded.x.tobytes()

    def test_float32_sigmoid_saturates_to_zero_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = eng._activate(np.array([-100.0, 100.0], np.float32), "sigmoid")
        assert y.dtype == np.float32 and y.tolist() == [0.0, 1.0]

    def test_float32_parameters_and_input_stay_float32(self, rng, monkeypatch):
        # each layer kind's output, input gradient and parameter gradients
        # take the dtype of the arrays they combine; no buffer widens them
        f32 = np.float32
        x = rng.standard_normal((3, 2, 5, 5)).astype(f32)
        cases = [
            (eng.ConvLayer(2, 3, 3, 3, 2), x, {}),
            (eng.ConvLayer(2, 3, 3, 2, 1, "sigmoid"), x, {"up": 2}),
            (eng.MaxPoolLayer(2, 2), x, {}),
            (eng.UpsampleLayer(2), x, {}),
            (eng.CropLayer(4, 3), x, {}),
            (eng.FlattenLayer(), x, {}),
            (eng.DenseLayer(6, 4), x.reshape(3, -1)[:, :6].copy(), {}),
        ]
        assert {l.kind for l, _, _ in cases} == set(eng.LAYER_KINDS)
        for chunk in (None, 1):
            for layer, xin, kwargs in cases:
                if layer.params():
                    w_shape, b_shape = layer.param_shapes()
                    layer.w = rng.standard_normal(w_shape).astype(f32)
                    layer.b = rng.standard_normal(b_shape).astype(f32)
                if chunk and layer.kind == "conv":
                    run_in_chunks(monkeypatch, layer, xin, chunk, **kwargs)
                y = layer.forward(xin, **kwargs)
                if chunk and layer.kind == "conv":
                    assert_ran_in_chunks(layer, xin, chunk)
                gx = layer.backward(np.ones_like(y))
                assert [a.dtype for a in (y, gx, *layer.grads())] == [f32] * (2 + len(layer.grads())), layer.kind
                # the network's momentum follows the parameters' dtype
                net = eng.Network([layer])
                net.step(0.1, 0.9)
                net.step(0.1, 0.9)
                assert [a.dtype for a in layer.params()] == [f32] * len(layer.params()), layer.kind
                assert [v.dtype for v in net._velocity] == [f32] * len(layer.params()), layer.kind


class TestWeightsBlob:
    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_malformed_blob_rejected(self, case):
        for bad in _MALFORMED[case](_classifier_blob()):
            with pytest.raises(eng.EngineError):
                eng.deserialize_network(bad)

    @given(evow_bytes())
    @settings(max_examples=300, deadline=None)
    def test_edited_or_arbitrary_bytes_read_back_or_raise(self, blob):
        try:
            net = eng.deserialize_network(blob)
        except eng.EngineError:
            return
        again = eng.serialize_network(net)
        back = eng.deserialize_network(again)
        assert len(again) == len(blob)
        assert [_layer_facts(l) for l in back.layers] == [_layer_facts(l) for l in net.layers]
        weights = [p for layer in net.layers for p in layer.params()]
        for stored, reread in zip(weights, (p for layer in back.layers for p in layer.params())):
            np.testing.assert_array_equal(stored, reread)
        # the weights are held as the float32 values stored, NaN payloads included
        assert again == blob

    def test_round_trip(self, rng):
        g = gn.seed_genome(gn.ENCODER, "e", 0.01)
        net = build_network(g, (3, 8, 8), rng)
        blob = eng.serialize_network(net)
        net2 = eng.deserialize_network(blob)
        assert eng.serialize_network(net2) == blob
        assert [l.kind for l in net2.layers] == [l.kind for l in net.layers]
        clf_blob = _classifier_blob()
        assert eng.serialize_network(eng.deserialize_network(clf_blob)) == clf_blob

    def test_signalling_nan_weight_reads_back_without_a_warning(self):
        # converting a signalling NaN to another float type raises the invalid
        # flag, which numpy reports as a RuntimeWarning; the blob holds a NaN
        # the format allows
        blob = bytearray(_classifier_blob())
        assert struct.unpack("<Q", blob[38:46]) == (2 * 1 * 3 * 3,)  # the conv's weights follow
        blob[46:50] = struct.pack("<I", 0x7F800001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            net = eng.deserialize_network(bytes(blob))
        assert np.isnan(net.layers[0].w.flat[0])

    def test_layer_spec_is_the_spec_the_layer_was_built_from(self):
        # a strided encoder's decoder crops; the classifier tail flattens
        shape = (3, 7, 7)
        encoder = gn.Genome("e", gn.ENCODER, (gn.ConvGene(4, 3, 3, 2), gn.PoolGene(2, 2)))
        classifier = gn.Genome("c", gn.CLASSIFIER, (gn.ConvGene(4, 3, 3, 1),))
        specs = [spec for g in (encoder, classifier) for spec in gn.network_specs(g, shape, 3)]
        assert {spec["kind"] for spec in specs} == set(eng.LAYER_KINDS)
        for spec in specs:
            assert eng.layer_spec(eng.layer_from_spec(spec)) == spec

    def test_bad_magic(self):
        with pytest.raises(eng.EngineError):
            eng.deserialize_network(b"NOPE" + b"\0" * 16)

    def test_unsupported_version(self, rng):
        g = gn.seed_genome(gn.ENCODER, "e", 0.01)
        blob = bytearray(eng.serialize_network(build_network(g, (3, 8, 8), rng)))
        blob[4] = 99
        with pytest.raises(eng.EngineError, match="version"):
            eng.deserialize_network(bytes(blob))
