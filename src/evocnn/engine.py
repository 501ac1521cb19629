"""Minimal dense CNN engine: layer forward/backward, losses, SGD momentum.

All tensors are numpy arrays in (batch, channels, height, width) order,
of the one dtype DTYPE (float32) in the program: weights are drawn and
read in it and the data loaders return it. Every buffer a layer allocates
takes the dtype of the arrays it combines, so the engine runs any float
dtype, and the tests run it in float64 against their oracles.
Convolutions use same-padding, so spatial reduction comes only from
stride and pooling and output dims are closed-form ceil divisions.

A convolution is a matrix product over an im2col matrix (Chellapilla
et al. 2006) laid out channel-major, (in_channels*kh*kw, batch*oh*ow):
building it copies whole output rows of ow values, where a
(batch*oh*ow, in_channels*kh*kw) layout copies runs of only kw. The
input gradient is scattered back per kernel tap as contiguous
(in_channels, batch, oh, ow) slabs for the same reason. The input is
written once into a zero-padded buffer, and the matrix is one copy of a
single strided (in_channels, kh, kw, batch, oh, ow) view of that buffer.

The matrix is built over batch chunks, so a conv's memory scales with
its input, not kh*kw times it. A chunk holds the most samples whose
matrix fits in CONV_CHUNK_BYTES, which sets the peak memory (the
benchmark's 32-px CAE step: a 49.2 MB median peak at 1 MiB, 57.6 at 8 MiB),
but never fewer than CONV_CHUNK_COLS columns: narrower products ran slower
(192-column chunks of a 64-channel 8-px conv by 40 %). Each chunk's
product is written into its slice of the output. A chunked conv keeps
only its zero-padded input for backward, which rebuilds each chunk's
matrix, sums the chunks' weight and bias gradients, and scatters each
chunk's input gradient into its slice. A one-chunk conv keeps its matrix,
as rebuilding it slowed 8-px training, and is byte-identical to an
unchunked conv.

An up-sample by f directly below a stride-1 conv runs inside that conv
as one resize-convolution in sub-pixel form (Odena et al. 2016; Shi et
al. 2016) on the low-resolution input: one im2col over the union of the
f*f output phases' windows, a kernel whose taps on one input pixel are
summed by a fixed 0/1 fold, and a depth-to-space write. A `Network`
pairs them once, from its layers' kinds, when it is built; every other
layer runs alone.

Training needs no input gradient, so its backward pass stops at the
lowest layer with parameters: that layer computes only its own weight
and bias gradients, and the layers below it are not called.

Weights are stored as an EVOW blob, all integers little-endian:

    b"EVOW", u32 version (1), u32 layer count, then per layer:
    u8 tag, u8 hyperparameter count, that many u32 hyperparameters,
    u64 n + n f32 weights, u64 n + n f32 biases (n = 0 when absent).

Tags and hyperparameter orders come from `LAYER_KINDS`:

    1 conv      in_channels filters kh kw stride activation
    2 pool      ph pw
    3 upsample  factor
    4 crop      target_h target_w
    5 flatten   -
    6 dense     in_features units

Activations are coded relu 0, sigmoid 1. Conv weights are
laid out (filters, in_channels, kh, kw), dense weights (in_features,
units).
"""

from __future__ import annotations

import functools
import math
import struct
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided


class EngineError(Exception):
    pass


class ShapeError(EngineError):
    """Structural mismatch between a tensor and a layer."""


class TrainingDiverged(EngineError):
    """Non-finite values appeared during training."""


# The one floating-point dtype of weights, data and every buffer computed from them
DTYPE = np.float32


def ceil_div(n: int, d: int) -> int:
    return -(-n // d)


def fan_in_normal(shape, fan_in, rng):
    """Zero-mean Gaussian scaled by 1/sqrt(fan-in), drawn in float64 and
    cast to DTYPE."""
    return rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=shape).astype(DTYPE)


def _activate(z, activation):
    if activation == "relu":
        return np.maximum(z, 0.0)
    if activation == "sigmoid":
        with np.errstate(over="ignore"):  # exp(-z) is inf below z = -88 in float32, and 1/inf is 0
            return 1.0 / (1.0 + np.exp(-z))
    raise EngineError(f"unknown activation {activation!r}")


def _activate_grad(y, activation):
    """The activation's derivative, from its output y = _activate(z)."""
    if activation == "relu":
        return (y > 0.0).astype(y.dtype)
    if activation == "sigmoid":
        return y * (1.0 - y)
    raise EngineError(f"unknown activation {activation!r}")


class Layer:
    """Base layer; parameterized layers override param accessors."""

    kind = "?"

    def forward(self, x):
        raise NotImplementedError

    def backward(self, gy):
        """The input gradient; a layer with parameters also sets its own
        gradients and takes `input_grad=False` to compute only those."""
        raise NotImplementedError

    def init_weights(self, rng):
        pass

    def param_shapes(self):
        """(weight shape, bias shape), or () for a layer without parameters."""
        return ()

    def params(self):
        return ()

    def grads(self):
        return ()


class ParamLayer(Layer):
    """A layer with one weight array and one bias vector; `fan_in` is the
    number of inputs that feed each output. It holds no optimizer state:
    the `Network` that steps it owns the momentum."""

    def __init__(self):
        self.w = None
        self.b = None
        self.gw = None
        self.gb = None
        self._cache = None

    def init_weights(self, rng):
        w_shape, b_shape = self.param_shapes()
        self.w = fan_in_normal(w_shape, self.fan_in, rng)
        self.b = np.zeros(b_shape, self.w.dtype)

    def params(self):
        return (self.w, self.b)

    def grads(self):
        return (self.gw, self.gb)


@functools.lru_cache(maxsize=None)
def _fold(kh, kw, f, dtype):
    """(fold, nh, nw) of a kh x kw conv on an f-times up-sampled input: tap i of
    phase r reads input offset (r + i - (k-1)//2) // f, one of n that same padding
    centres, and fold row (r, a, s, e) sums the taps (i, j) phase (r, s) reads at (a, e)."""
    def axis(k):
        offset = (np.arange(f)[:, None] + np.arange(k) - (k - 1) // 2) // f
        n = offset.max() - offset.min() + 1
        return (offset - offset.min())[:, None, :] == np.arange(n)[:, None], int(n)
    (fold_h, nh), (fold_w, nw) = axis(kh), axis(kw)
    fold = np.kron(fold_h.reshape(f * nh, kh), fold_w.reshape(f * nw, kw)).astype(dtype)
    fold.flags.writeable = False
    return fold, nh, nw


# Bytes of im2col matrix per conv chunk, and the fewest columns per chunk
CONV_CHUNK_BYTES = 1 << 20
CONV_CHUNK_COLS = 1024


def _im2col(xp, s, kh, kw, oh, ow):
    """The (c*kh*kw, b*oh*ow) im2col matrix of the zero-padded input xp: one
    copy of a strided (c, kh, kw, b, oh, ow) view."""
    b, c = xp.shape[:2]
    sb, sc, sh, sw = xp.strides
    win = as_strided(xp, (c, kh, kw, b, oh, ow), (sc, sh, sw, sb, s * sh, s * sw), writeable=False)
    return win.reshape(c * kh * kw, b * oh * ow)


class ConvLayer(ParamLayer):
    """Same-padded convolution with fused activation (default ReLU)."""

    kind = "conv"

    def __init__(self, in_channels, filters, kh, kw, stride=1, activation="relu"):
        if in_channels < 1 or stride < 1 or kh < 1 or kw < 1 or filters < 1:
            raise ShapeError("conv hyperparameters out of range")
        super().__init__()
        self.in_channels = in_channels
        self.filters = filters
        self.kh = kh
        self.kw = kw
        self.stride = stride
        self.activation = activation
        self.fan_in = in_channels * kh * kw

    def param_shapes(self):
        return (self.filters, self.in_channels, self.kh, self.kw), (self.filters,)

    def out_shape(self, h, w):
        return ceil_div(h, self.stride), ceil_div(w, self.stride)

    def forward(self, x, up=1):
        """The conv of x, or (stride 1) of x up-sampled `up` times, sub-pixel."""
        b, c, h, w = x.shape
        if c != self.in_channels:
            raise ShapeError(
                f"conv expects {self.in_channels} input channels, got {c}"
            )
        s, kh, kw, fold, kernel = self.stride, self.kh, self.kw, None, self.w.reshape(self.filters, -1)
        if up > 1:  # a row block per output phase, over the union of their windows
            fold, kh, kw = _fold(self.kh, self.kw, up, self.w.dtype)
            kernel = (self.w.reshape(-1, self.kh * self.kw) @ fold.T).reshape(self.filters, c, up, kh, up, kw)
            kernel = kernel.transpose(2, 4, 0, 1, 3, 5).reshape(up * up * self.filters, -1)
        oh, ow = self.out_shape(h, w)
        ph = max((oh - 1) * s + kh - h, 0)
        pw = max((ow - 1) * s + kw - w, 0)
        pt, pl, m = ph // 2, pw // 2, oh * ow
        xp = np.zeros((b, c, h + ph, w + pw), np.result_type(x, kernel))
        xp[:, :, pt:pt + h, pl:pl + w] = x
        n = max(CONV_CHUNK_BYTES // (c * kh * kw * m * xp.itemsize), ceil_div(CONV_CHUNK_COLS, m))
        z = np.empty((len(kernel), b * m), xp.dtype)
        for i in range(0, b, n):
            cols = _im2col(xp[i:i + n], s, kh, kw, oh, ow)
            np.matmul(kernel, cols, out=z[:, i * m:(i + n) * m])
        # depth to space: phase (r, s) of pixel (p, q) is output (up*p + r, up*q + s)
        z = z.reshape(up, up, self.filters, b, oh, ow).transpose(2, 3, 4, 0, 5, 1).reshape(self.filters, -1)
        z += self.b[:, None]
        y = _activate(z.reshape(self.filters, b, up * oh, up * ow).transpose(1, 0, 2, 3), self.activation)
        # one chunk keeps its matrix; more keep the padded input to rebuild theirs
        kept = cols if n >= b else xp
        self._cache = (x.shape, kept, y, up, fold, kernel, n, (s, kh, kw, oh, ow, ph, pw, pt, pl))
        return y

    def backward(self, gy, input_grad=True):
        xshape, kept, y, up, fold, kernel, n, (s, kh, kw, oh, ow, ph, pw, pt, pl) = self._cache
        b, c, h, w = xshape
        if gy.shape != y.shape:
            raise ShapeError(f"conv backward got grad shape {gy.shape}, expected {y.shape}")
        if input_grad:
            kernel = kernel if up > 1 else self.w.reshape(self.filters, -1)
            gxp = np.zeros((c, b, h + ph, w + pw), np.result_type(kernel, gy))
        for i in range(0, b, n):
            gz = gy[i:i + n] * _activate_grad(y[i:i + n], self.activation)
            # summed row by row over a (samples*oh*ow, filters) copy: a sum along
            # gzc's rows would be pairwise and change gb in the last bit
            gb_i = gz.transpose(0, 2, 3, 1).reshape(-1, self.filters).sum(axis=0)
            gzc = gz.reshape(-1, self.filters, oh, up, ow, up).transpose(3, 5, 1, 0, 2, 4)
            gzc = gzc.reshape(up * up * self.filters, -1)  # space to depth
            cols = kept if n >= b else _im2col(kept[i:i + n], s, kh, kw, oh, ow)
            gw_i = gzc @ cols.T
            gb, gw = (gb_i, gw_i) if i == 0 else (np.add(gb, gb_i, out=gb), np.add(gw, gw_i, out=gw))
            if input_grad:
                g = (kernel.T @ gzc).reshape(c, kh, kw, -1, oh, ow)
                gxc = gxp[:, i:i + n]
                for ti in range(kh):
                    for tj in range(kw):
                        gxc[:, :, ti:ti + s * oh:s, tj:tj + s * ow:s] += g[:, ti, tj]
            cols = g = None  # this chunk's matrices go before the next chunk's are built
        self.gb = gb
        if up > 1:  # the fold's transpose sums what each weight gave every phase
            gw = gw.reshape(up, up, self.filters, c, kh, kw).transpose(2, 3, 0, 4, 1, 5)
            gw = gw.reshape(self.filters * c, -1) @ fold
        self.gw = gw.reshape(self.w.shape)
        if not input_grad:
            return None
        return gxp[:, :, pt:pt + h, pl:pl + w].transpose(1, 0, 2, 3)


class MaxPoolLayer(Layer):
    """Non-overlapping max pooling; edge windows are truncated. Forward keeps
    only the max; backward routes each window's gradient to its first tap, in
    row-major order, equal to the max, or where the max is NaN to its first NaN tap.
    """

    kind = "pool"

    def __init__(self, ph, pw):
        if ph < 2 or pw < 2:
            raise ShapeError("pool dims must be >= 2")
        self.ph = ph
        self.pw = pw
        self._cache = None

    def out_shape(self, h, w):
        return ceil_div(h, self.ph), ceil_div(w, self.pw)

    def forward(self, x):
        y = x[:, :, ::self.ph, ::self.pw].copy()
        for t in range(1, self.ph * self.pw):
            tap = x[:, :, t // self.pw::self.ph, t % self.pw::self.pw]
            best = y[:, :, :tap.shape[2], :tap.shape[3]]
            np.maximum(tap, best, out=best)  # a tie returns best: the earlier tap, sign of zero too
        self._cache = (x, y)  # x by reference: it must not change before backward
        return y

    def backward(self, gy):
        x, y = self._cache
        gx, bits = np.empty(x.shape, gy.dtype), np.dtype(f"u{gy.itemsize}")  # the taps partition gx
        free, nan = np.ones(y.shape, bool), np.isnan(y).any()  # free: no earlier tap held the max
        for i, j in np.ndindex(self.ph, self.pw):
            tap = x[:, :, i::self.ph, j::self.pw]
            cells = (..., slice(tap.shape[2]), slice(tap.shape[3]))
            hit = tap == y[cells]
            if nan:  # only a NaN window holds a NaN tap
                hit |= np.isnan(tap)
            hit &= free[cells]
            free[cells] ^= hit
            # gy's bits as integers times 1 where routed, else 0: a copy of gy or +0.0
            np.multiply(gy[cells].view(bits), hit, out=gx[:, :, i::self.ph, j::self.pw].view(bits))
        return gx


class UpsampleLayer(Layer):
    """Nearest-neighbor replication by an integer factor."""

    kind = "upsample"

    def __init__(self, factor):
        if factor < 2:
            raise ShapeError("upsample factor must be >= 2")
        self.factor = factor

    def forward(self, x):
        return x.repeat(self.factor, axis=2).repeat(self.factor, axis=3)

    def backward(self, gy):
        b, c, h, w = gy.shape
        f = self.factor
        return gy.reshape(b, c, h // f, f, w // f, f).sum(axis=(3, 5))


class CropLayer(Layer):
    """Top-left crop to a fixed spatial target."""

    kind = "crop"

    def __init__(self, target_h, target_w):
        self.target_h = target_h
        self.target_w = target_w
        self._in_shape = None

    def forward(self, x):
        b, c, h, w = x.shape
        if h < self.target_h or w < self.target_w:
            raise ShapeError(f"crop target ({self.target_h},{self.target_w}) exceeds input ({h},{w})")
        self._in_shape = x.shape
        return x[:, :, : self.target_h, : self.target_w]

    def backward(self, gy):
        gx = np.zeros(self._in_shape, gy.dtype)
        gx[:, :, : self.target_h, : self.target_w] = gy
        return gx


class FlattenLayer(Layer):
    kind = "flatten"

    def __init__(self):
        self._in_shape = None

    def forward(self, x):
        self._in_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, gy):
        return gy.reshape(self._in_shape)


class DenseLayer(ParamLayer):
    """Fully connected layer over flattened features; linear output."""

    kind = "dense"

    def __init__(self, in_features, units):
        super().__init__()
        self.in_features = in_features
        self.units = units
        self.fan_in = in_features

    def param_shapes(self):
        return (self.in_features, self.units), (self.units,)

    def forward(self, x):
        if x.shape[1] != self.in_features:
            raise ShapeError(f"dense expects {self.in_features} features, got {x.shape[1]}")
        self._cache = x
        return x @ self.w + self.b

    def backward(self, gy, input_grad=True):
        x = self._cache
        self.gw = x.T @ gy
        self.gb = gy.sum(axis=0)
        return gy @ self.w.T if input_grad else None


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy over the batch and its gradient wrt logits."""
    if not np.all(np.isfinite(logits)):
        raise TrainingDiverged("non-finite logits in softmax head")
    n = logits.shape[0]
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    total = e.sum(axis=1)
    loss = float((m[:, 0] + np.log(total) - logits[np.arange(n), labels]).mean())
    grad = e / total[:, None]  # the softmax probabilities
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def mse_loss(pred, target):
    """Mean squared error and its gradient wrt pred."""
    if pred.shape != target.shape:
        raise ShapeError(f"mse shapes differ: {pred.shape} vs {target.shape}")
    diff = pred - target
    loss = float((diff * diff).mean())
    return loss, (2.0 / diff.size) * diff


def sgd_momentum_step(weights, grads, velocity, lr, momentum):
    """v <- momentum*v - lr*g; w <- w + v, in place."""
    velocity *= momentum
    velocity -= lr * grads
    weights += velocity


# Samples per forward pass when a whole dataset is evaluated or encoded.
EVAL_CHUNK = 256


class Network:
    """An ordered stack of layers, fixed when it is built, trained with SGD + momentum;
    the first `step` makes the momentum, one zero buffer per parameter array."""

    def __init__(self, layers):
        self.layers = tuple(layers)
        self._velocity = None
        self._calls = []  # (layer index, layer, up-sample factor it runs), input side first
        for i, layer in enumerate(self.layers):
            if i and layer.kind == "conv" and layer.stride == 1 and self.layers[i - 1].kind == "upsample":
                self._calls[-1] = (i, layer, self.layers[i - 1].factor)
            else:
                self._calls.append((i, layer, 1))
        # training's backward pass stops at the lowest call with parameters
        self._lowest = next((n for n, (_, l, _) in enumerate(self._calls) if l.params()), len(self._calls))

    def forward_chunks(self, x):
        """(sample slice, output) of each EVAL_CHUNK-sample pass over x, in order."""
        for i in range(0, x.shape[0], EVAL_CHUNK):
            yield slice(i, i + EVAL_CHUNK), self.forward(x[i:i + EVAL_CHUNK])

    def forward(self, x):
        for i, layer, up in self._calls:
            try:
                x = layer.forward(x, up=up) if up > 1 else layer.forward(x)
            except ShapeError as exc:
                raise ShapeError(f"layer {i} ({layer.kind}): {exc}") from exc
        return x

    def backward(self, gy, input_grad=True):
        """Backpropagate `gy` through the layers and return the input gradient.

        With `input_grad=False` the pass stops at the lowest layer with
        parameters, which computes only its own gradients; the layers
        below it are not called and None is returned.
        """
        first = 0 if input_grad else self._lowest
        for n in reversed(range(first, len(self._calls))):
            layer = self._calls[n][1]
            if input_grad or n > first:
                gy = layer.backward(gy)
            else:
                layer.backward(gy, input_grad=False)
        return gy if input_grad else None

    def step(self, lr, momentum):
        params = [p for layer in self.layers for p in layer.params()]
        if self._velocity is None:
            self._velocity = [np.zeros_like(w) for w in params]
        grads = (g for layer in self.layers for g in layer.grads())
        for w, g, v in zip(params, grads, self._velocity):
            sgd_momentum_step(w, g, v, lr, momentum)


# ---------------------------------------------------------------------------
# Layer kinds and the EVOW weight blob (layout in the module docstring)
# ---------------------------------------------------------------------------

class LayerKind(NamedTuple):
    tag: int        # EVOW layer tag
    cls: type
    hparams: tuple  # constructor argument names, in EVOW order


LAYER_KINDS = {
    "conv": LayerKind(1, ConvLayer, ("in_channels", "filters", "kh", "kw", "stride", "activation")),
    "pool": LayerKind(2, MaxPoolLayer, ("ph", "pw")),
    "upsample": LayerKind(3, UpsampleLayer, ("factor",)),
    "crop": LayerKind(4, CropLayer, ("target_h", "target_w")),
    "flatten": LayerKind(5, FlattenLayer, ()),
    "dense": LayerKind(6, DenseLayer, ("in_features", "units")),
}
_KINDS_BY_TAG = {k.tag: k for k in LAYER_KINDS.values()}

_MAGIC = b"EVOW"
_VERSION = 1
_ACT_CODES = {"relu": 0, "sigmoid": 1}
_CODE_ACTS = {v: k for k, v in _ACT_CODES.items()}


def layer_from_spec(spec) -> Layer:
    """The layer a spec dict names: its "kind" plus that kind's hyperparameters."""
    kind = LAYER_KINDS.get(spec["kind"])
    if kind is None:
        raise EngineError(f"unknown layer kind {spec['kind']!r}")
    return kind.cls(**{name: spec[name] for name in kind.hparams})


def layer_spec(layer: Layer) -> dict:
    """The spec dict `layer_from_spec` builds `layer` from."""
    names = LAYER_KINDS[layer.kind].hparams
    return {"kind": layer.kind, **{name: getattr(layer, name) for name in names}}


def serialize_network(net: Network) -> bytes:
    out = [_MAGIC, struct.pack("<II", _VERSION, len(net.layers))]
    for layer in net.layers:
        _kind, *hp = [_ACT_CODES[v] if name == "activation" else v
                      for name, v in layer_spec(layer).items()]
        out.append(struct.pack(f"<BB{len(hp)}I", LAYER_KINDS[layer.kind].tag, len(hp), *hp))
        for arr in layer.params() or (np.empty(0), np.empty(0)):
            out.append(struct.pack("<Q", arr.size))
            out.append(arr.astype("<f4").tobytes())
    return b"".join(out)


def deserialize_network(blob: bytes) -> Network:
    """Inverse of `serialize_network`; a malformed blob raises EngineError."""
    if blob[:4] != _MAGIC:
        raise EngineError("bad weights blob: wrong magic")
    view = memoryview(blob)
    off = 4

    def take(nbytes):
        nonlocal off
        if off + nbytes > len(blob):
            raise EngineError(f"truncated weights blob: {len(blob)} bytes, needs {off + nbytes}")
        off += nbytes
        return view[off - nbytes:off]

    version, count = struct.unpack("<II", take(8))
    if version != _VERSION:
        raise EngineError(f"unsupported weights blob version {version}")
    layers = []
    for i in range(count):
        tag, nhp = struct.unpack("<BB", take(2))
        kind = _KINDS_BY_TAG.get(tag)
        if kind is None:
            raise EngineError(f"layer {i}: unknown layer tag {tag}")
        if nhp != len(kind.hparams):
            raise EngineError(
                f"layer {i}: {nhp} hyperparameters, {kind.cls.kind} takes {len(kind.hparams)}"
            )
        hp = dict(zip(kind.hparams, struct.unpack(f"<{nhp}I", take(4 * nhp))))
        if "activation" in hp:
            if hp["activation"] not in _CODE_ACTS:
                raise EngineError(f"layer {i}: unknown activation code {hp['activation']}")
            hp["activation"] = _CODE_ACTS[hp["activation"]]
        layer = kind.cls(**hp)
        arrays = []
        for shape in layer.param_shapes() or ((0,), (0,)):
            (n,) = struct.unpack("<Q", take(8))
            if n != math.prod(shape):
                raise EngineError(f"layer {i}: {n} stored values where {math.prod(shape)} belong")
            arrays.append(np.frombuffer(take(4 * n), "<f4").astype(DTYPE).reshape(shape))
        if layer.param_shapes():
            layer.w, layer.b = arrays
        layers.append(layer)
    if off != len(blob):
        raise EngineError(f"weights blob has {len(blob) - off} trailing bytes")
    return Network(layers)


# ---------------------------------------------------------------------------
# Per-individual training
# ---------------------------------------------------------------------------

@dataclass
class TrainReport:
    epochs_run: int
    final_train_loss: float
    metric: float
    wall_seconds: float
    diverged: bool = False


@dataclass
class DatasetView:
    """Train/validation arrays for one training job."""

    train_x: np.ndarray
    train_y: np.ndarray  # labels; a reconstruction loss ignores them
    val_x: np.ndarray
    val_y: np.ndarray


def classifier_accuracy(net, x, y):
    """Share of samples whose largest logit is at their label; NaN when a
    logit is not finite, as after a diverged step, where argmax means nothing."""
    correct = 0
    with np.errstate(over="ignore", invalid="ignore"):  # what overflows is reported as NaN
        for part, logits in net.forward_chunks(x):
            if not np.isfinite(logits).all():
                return math.nan
            correct += int((logits.argmax(axis=1) == y[part]).sum())
    return correct / x.shape[0]


def reconstruction_accuracy(net, x):
    """clamp(1 - MSE, 0, 1) of the network's reconstruction of [0,1]-scaled x."""
    sq_sum = 0.0
    for part, recon in net.forward_chunks(x):
        xb = x[part]
        if recon.shape != xb.shape:
            raise ShapeError(f"reconstruction shapes differ: {xb.shape} vs {recon.shape}")
        sq_sum += float(((xb - recon) ** 2).sum())
    return min(max(1.0 - sq_sum / x.size, 0.0), 1.0)


def batches(n_samples, batch_size, rng):
    """Index batches for one epoch: one `rng.permutation` shuffle, remainder dropped."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = rng.permutation(n_samples)
    for start in range(0, n_samples - batch_size + 1, batch_size):
        yield order[start:start + batch_size]


def train_network(net: Network, objective, view: DatasetView, epochs, batch_size,
                  lr, momentum, rng) -> TrainReport:
    """Minibatch SGD training loop for one network.

    `objective` is a genome kind's record (`genome.GENOME_KINDS`): its
    `batch_loss` and `metric` say what is trained and measured. Divergence
    aborts training and reports metric 0.0 instead of raising, so the
    evolutionary loop survives bad mutants.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    t0 = time.monotonic()
    n = view.train_x.shape[0]
    loss = 0.0
    epochs_run = 0
    try:
        # a diverging network overflows on its way to a non-finite loss or
        # metric; the checks on those report it, not numpy's warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(epochs):
                for idx in batches(n, batch_size, rng):
                    xb = view.train_x[idx]
                    loss, gy = objective.batch_loss(net.forward(xb), xb, view.train_y[idx])
                    if not math.isfinite(loss):
                        raise TrainingDiverged(f"loss became {loss}")
                    net.backward(gy, input_grad=False)
                    net.step(lr, momentum)
                epochs_run += 1
            metric = objective.metric(net, view)
        if not math.isfinite(metric):
            raise TrainingDiverged("non-finite validation metric")
        diverged = False
    except TrainingDiverged:
        metric = 0.0
        diverged = True
    return TrainReport(
        epochs_run=epochs_run,
        final_train_loss=loss if math.isfinite(loss) else float("nan"),
        metric=metric,
        wall_seconds=time.monotonic() - t0,
        diverged=diverged,
    )
