import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# ---------------------------------------------------------------------------
# Independent oracles (kept free of the implementation under test)
# ---------------------------------------------------------------------------

def to_float64(*layers):
    """Cast each layer's parameters to float64 in place. The engine computes
    in the dtype of its arrays, so a layer cast here and fed float64 inputs
    runs at the precision the oracles and finite differences below are
    checked at, although the program runs float32."""
    for layer in layers:
        if layer.params():
            layer.w, layer.b = (p.astype(np.float64) for p in layer.params())


def _same_padding(h, wd, kh, kw, stride):
    """(oh, ow, top pad, left pad) of a same-padded convolution."""
    oh = -(-h // stride)
    ow = -(-wd // stride)
    pad_h = max((oh - 1) * stride + kh - h, 0)
    pad_w = max((ow - 1) * stride + kw - wd, 0)
    return oh, ow, pad_h // 2, pad_w // 2


def _conv_taps(x_shape, kh, kw, stride, pt, pl, oy, ox):
    """(ci, i, j, iy, ix) of every input cell under output (oy, ox)."""
    _, c, h, wd = x_shape
    for ci in range(c):
        for i in range(kh):
            for j in range(kw):
                iy = oy * stride + i - pt
                ix = ox * stride + j - pl
                if 0 <= iy < h and 0 <= ix < wd:
                    yield ci, i, j, iy, ix


def conv_oracle(x, w, b, stride):
    """Direct 6-nested-loop same-padded convolution, ReLU applied."""
    bs, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    oh, ow, pt, pl = _same_padding(h, wd, kh, kw, stride)
    out = np.zeros((bs, f, oh, ow))
    for n in range(bs):
        for k in range(f):
            for oy in range(oh):
                for ox in range(ow):
                    acc = b[k]
                    for ci, i, j, iy, ix in _conv_taps(x.shape, kh, kw, stride, pt, pl, oy, ox):
                        acc += x[n, ci, iy, ix] * w[k, ci, i, j]
                    out[n, k, oy, ox] = max(acc, 0.0)
    return out


def conv_backward_oracle(x, w, b, stride, gy):
    """Nested-loop (gx, gw, gb) of the same-padded ReLU convolution of
    `conv_oracle`, given the gradient gy of its output."""
    bs, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    oh, ow, pt, pl = _same_padding(h, wd, kh, kw, stride)
    gx, gw, gb = np.zeros_like(x), np.zeros_like(w), np.zeros_like(b)
    for n in range(bs):
        for k in range(f):
            for oy in range(oh):
                for ox in range(ow):
                    taps = list(_conv_taps(x.shape, kh, kw, stride, pt, pl, oy, ox))
                    z = b[k] + sum(x[n, ci, iy, ix] * w[k, ci, i, j] for ci, i, j, iy, ix in taps)
                    if z <= 0.0:
                        continue  # ReLU passes no gradient
                    g = gy[n, k, oy, ox]
                    gb[k] += g
                    for ci, i, j, iy, ix in taps:
                        gw[k, ci, i, j] += g * x[n, ci, iy, ix]
                        gx[n, ci, iy, ix] += g * w[k, ci, i, j]
    return gx, gw, gb


def maxpool_oracle(x, ph, pw):
    """Brute-force window scan with truncated edge windows."""
    bs, c, h, w = x.shape
    oh = -(-h // ph)
    ow = -(-w // pw)
    out = np.empty((bs, c, oh, ow))
    for n in range(bs):
        for ci in range(c):
            for oy in range(oh):
                for ox in range(ow):
                    win = x[n, ci, oy * ph:(oy + 1) * ph, ox * pw:(ox + 1) * pw]
                    out[n, ci, oy, ox] = win.max()
    return out


def dominates(a, b):
    """a >= b in both objectives and > in at least one."""
    return a[0] >= b[0] and a[1] >= b[1] and (a[0] > b[0] or a[1] > b[1])


def pareto_fronts_oracle(pairs):
    """O(n^3)-ish reference: repeatedly strip the non-dominated set."""
    remaining = list(range(len(pairs)))
    fronts = []
    while remaining:
        front = [
            i for i in remaining
            if not any(dominates(pairs[j], pairs[i]) for j in remaining if j != i)
        ]
        fronts.append(front)
        remaining = [i for i in remaining if i not in front]
    return fronts


def finite_difference(loss_fn, array, eps=1e-4):
    """Central finite differences of a scalar loss wrt every array entry."""
    grad = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = array[idx]
        array[idx] = orig + eps
        lp = loss_fn()
        array[idx] = orig - eps
        lm = loss_fn()
        array[idx] = orig
        grad[idx] = (lp - lm) / (2 * eps)
    return grad


def assert_grads_close(analytic, numeric, rtol=1e-4):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    rel = np.abs(analytic - numeric) / denom
    assert rel.max() < rtol, f"max relative gradient error {rel.max():.3e}"
