"""Minimal dense CNN engine: layer forward/backward, losses, SGD momentum.

All tensors are numpy float64 arrays in (batch, channels, height, width)
order. Convolutions use same-padding, so spatial reduction comes only
from stride and pooling and output dims are closed-form ceil divisions.

A convolution is one matrix product over an im2col matrix (Chellapilla
et al. 2006) laid out channel-major, (in_channels*kh*kw, batch*oh*ow):
building it copies whole output rows of ow values, where a
(batch*oh*ow, in_channels*kh*kw) layout copies runs of only kw. The
input gradient is scattered back per kernel tap as contiguous
(in_channels, batch, oh, ow) slabs for the same reason.

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

Activations are coded relu 0, sigmoid 1, linear 2. Conv weights are
laid out (filters, in_channels, kh, kw), dense weights (in_features,
units).
"""

from __future__ import annotations

import math
import struct
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import data as dt


class EngineError(Exception):
    pass


class ShapeError(EngineError):
    """Structural mismatch between a tensor and a layer."""


class TrainingDiverged(EngineError):
    """Non-finite values appeared during training."""


def ceil_div(n: int, d: int) -> int:
    return -(-n // d)


def fan_in_normal(shape, fan_in, rng):
    """Zero-mean Gaussian scaled by 1/sqrt(fan-in)."""
    return rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=shape)


def _activate(z, activation):
    if activation == "relu":
        return np.maximum(z, 0.0)
    if activation == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    if activation == "linear":
        return z
    raise EngineError(f"unknown activation {activation!r}")


def _activate_grad(z, activation):
    if activation == "relu":
        return (z > 0.0).astype(z.dtype)
    if activation == "sigmoid":
        s = 1.0 / (1.0 + np.exp(-z))
        return s * (1.0 - s)
    if activation == "linear":
        return np.ones_like(z)
    raise EngineError(f"unknown activation {activation!r}")


class Layer:
    """Base layer; parameterized layers override param accessors."""

    kind = "?"

    def forward(self, x):
        raise NotImplementedError

    def backward(self, gy):
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

    def velocities(self):
        return ()


class ParamLayer(Layer):
    """A layer with one weight array and one bias vector."""

    def __init__(self):
        self.w = None
        self.b = None
        self.vw = None
        self.vb = None
        self.gw = None
        self.gb = None
        self._cache = None

    def set_params(self, w, b):
        """Install weights and biases; momentum restarts from zero."""
        self.w = w
        self.b = b
        self.reset_momentum()

    def reset_momentum(self):
        self.vw = np.zeros_like(self.w)
        self.vb = np.zeros_like(self.b)

    def params(self):
        return (self.w, self.b)

    def grads(self):
        return (self.gw, self.gb)

    def velocities(self):
        return (self.vw, self.vb)


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

    def init_weights(self, rng):
        fan_in = self.in_channels * self.kh * self.kw
        self.set_params(fan_in_normal(self.param_shapes()[0], fan_in, rng), np.zeros(self.filters))

    def param_shapes(self):
        return (self.filters, self.in_channels, self.kh, self.kw), (self.filters,)

    def out_shape(self, h, w):
        return ceil_div(h, self.stride), ceil_div(w, self.stride)

    def forward(self, x):
        b, c, h, w = x.shape
        if c != self.in_channels:
            raise ShapeError(
                f"conv expects {self.in_channels} input channels, got {c}"
            )
        s = self.stride
        oh, ow = self.out_shape(h, w)
        ph = max((oh - 1) * s + self.kh - h, 0)
        pw = max((ow - 1) * s + self.kw - w, 0)
        pt, pl = ph // 2, pw // 2
        xp = np.pad(x, ((0, 0), (0, 0), (pt, ph - pt), (pl, pw - pl)))
        win = sliding_window_view(xp, (self.kh, self.kw), axis=(2, 3))[:, :, ::s, ::s]
        cols = win.transpose(1, 4, 5, 0, 2, 3).reshape(c * self.kh * self.kw, b * oh * ow)
        z = self.w.reshape(self.filters, -1) @ cols + self.b[:, None]
        z = z.reshape(self.filters, b, oh, ow).transpose(1, 0, 2, 3)
        self._cache = (x.shape, cols, z, (ph, pw, pt, pl, oh, ow))
        return _activate(z, self.activation)

    def backward(self, gy):
        xshape, cols, z, (ph, pw, pt, pl, oh, ow) = self._cache
        b, c, h, w = xshape
        if gy.shape != z.shape:
            raise ShapeError(f"conv backward got grad shape {gy.shape}, expected {z.shape}")
        gz = gy * _activate_grad(z, self.activation)
        # summed row by row over a (b*oh*ow, filters) copy: a sum along
        # gzc's rows would be pairwise and change gb in the last bit
        self.gb = gz.transpose(0, 2, 3, 1).reshape(b * oh * ow, self.filters).sum(axis=0)
        gzc = gz.transpose(1, 0, 2, 3).reshape(self.filters, b * oh * ow)
        self.gw = (gzc @ cols.T).reshape(self.w.shape)
        gcols = self.w.reshape(self.filters, -1).T @ gzc
        g = gcols.reshape(c, self.kh, self.kw, b, oh, ow)
        gxp = np.zeros((c, b, h + ph, w + pw))
        s = self.stride
        for i in range(self.kh):
            for j in range(self.kw):
                gxp[:, :, i:i + s * oh:s, j:j + s * ow:s] += g[:, i, j]
        return gxp[:, :, pt:pt + h, pl:pl + w].transpose(1, 0, 2, 3)


class MaxPoolLayer(Layer):
    """Non-overlapping max pooling; edge windows are truncated.

    Gradient goes to the argmax of each window, first occurrence on ties.
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
        b, c, h, w = x.shape
        oh, ow = self.out_shape(h, w)
        xp = np.pad(
            x,
            ((0, 0), (0, 0), (0, oh * self.ph - h), (0, ow * self.pw - w)),
            constant_values=-np.inf,
        )
        blocks = (
            xp.reshape(b, c, oh, self.ph, ow, self.pw)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(b, c, oh, ow, self.ph * self.pw)
        )
        idx = blocks.argmax(axis=-1)
        y = np.take_along_axis(blocks, idx[..., None], axis=-1)[..., 0]
        self._cache = (x.shape, idx)
        return y

    def backward(self, gy):
        (b, c, h, w), idx = self._cache
        oh, ow = self.out_shape(h, w)
        gblocks = np.zeros((b, c, oh, ow, self.ph * self.pw))
        np.put_along_axis(gblocks, idx[..., None], gy[..., None], axis=-1)
        gx = (
            gblocks.reshape(b, c, oh, ow, self.ph, self.pw)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(b, c, oh * self.ph, ow * self.pw)
        )
        return gx[:, :, :h, :w]


class UpsampleLayer(Layer):
    """Nearest-neighbor replication by an integer factor."""

    kind = "upsample"

    def __init__(self, factor):
        if factor < 2:
            raise ShapeError("upsample factor must be >= 2")
        self.factor = factor
        self._in_shape = None

    def forward(self, x):
        self._in_shape = x.shape
        return x.repeat(self.factor, axis=2).repeat(self.factor, axis=3)

    def backward(self, gy):
        b, c, h, w = self._in_shape
        f = self.factor
        return gy.reshape(b, c, h, f, w, f).sum(axis=(3, 5))


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
        gx = np.zeros(self._in_shape)
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

    def init_weights(self, rng):
        self.set_params(
            fan_in_normal(self.param_shapes()[0], self.in_features, rng), np.zeros(self.units)
        )

    def param_shapes(self):
        return (self.in_features, self.units), (self.units,)

    def forward(self, x):
        if x.shape[1] != self.in_features:
            raise ShapeError(f"dense expects {self.in_features} features, got {x.shape[1]}")
        self._cache = x
        return x @ self.w + self.b

    def backward(self, gy):
        x = self._cache
        self.gw = x.T @ gy
        self.gb = gy.sum(axis=0)
        return gy @ self.w.T


def softmax_probs(logits):
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy over the batch and its gradient wrt logits."""
    if not np.all(np.isfinite(logits)):
        raise TrainingDiverged("non-finite logits in softmax head")
    n = logits.shape[0]
    m = logits.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
    loss = float((lse - logits[np.arange(n), labels]).mean())
    grad = softmax_probs(logits)
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


class Network:
    """An ordered stack of layers trained with SGD + momentum."""

    def __init__(self, layers):
        self.layers = list(layers)

    def forward(self, x):
        for i, layer in enumerate(self.layers):
            try:
                x = layer.forward(x)
            except ShapeError as exc:
                raise ShapeError(f"layer {i} ({layer.kind}): {exc}") from exc
        return x

    def backward(self, gy):
        for layer in reversed(self.layers):
            gy = layer.backward(gy)
        return gy

    def step(self, lr, momentum):
        for layer in self.layers:
            for w, g, v in zip(layer.params(), layer.grads(), layer.velocities()):
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
_ACT_CODES = {"relu": 0, "sigmoid": 1, "linear": 2}
_CODE_ACTS = {v: k for k, v in _ACT_CODES.items()}


def layer_from_spec(spec) -> Layer:
    """The layer a spec dict names: its "kind" plus that kind's hyperparameters."""
    kind = LAYER_KINDS.get(spec["kind"])
    if kind is None:
        raise EngineError(f"unknown layer kind {spec['kind']!r}")
    return kind.cls(**{name: spec[name] for name in kind.hparams})


def serialize_network(net: Network) -> bytes:
    out = [_MAGIC, struct.pack("<II", _VERSION, len(net.layers))]
    for layer in net.layers:
        kind = LAYER_KINDS[layer.kind]
        hp = [getattr(layer, name) for name in kind.hparams]
        hp = [_ACT_CODES[v] if name == "activation" else v for name, v in zip(kind.hparams, hp)]
        out.append(struct.pack(f"<BB{len(hp)}I", kind.tag, len(hp), *hp))
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
            arrays.append(np.frombuffer(take(4 * n), "<f4").astype(np.float64).reshape(shape))
        if layer.param_shapes():
            layer.set_params(*arrays)
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
    train_y: np.ndarray | None
    val_x: np.ndarray
    val_y: np.ndarray | None


def classifier_accuracy(net, x, y, chunk=256):
    """Share of samples whose largest logit is at their label."""
    correct = 0
    for i in range(0, x.shape[0], chunk):
        logits = net.forward(x[i:i + chunk])
        correct += int((logits.argmax(axis=1) == y[i:i + chunk]).sum())
    return correct / x.shape[0]


def reconstruction_accuracy(net, x, chunk=256):
    """clamp(1 - MSE, 0, 1) of the network's reconstruction of [0,1]-scaled x."""
    sq_sum = 0.0
    for i in range(0, x.shape[0], chunk):
        xb = x[i:i + chunk]
        recon = net.forward(xb)
        if recon.shape != xb.shape:
            raise ShapeError(f"reconstruction shapes differ: {xb.shape} vs {recon.shape}")
        sq_sum += float(((xb - recon) ** 2).sum())
    return min(max(1.0 - sq_sum / x.size, 0.0), 1.0)


def train_network(net: Network, kind: str, view: DatasetView, epochs, batch_size,
                  lr, momentum, rng) -> TrainReport:
    """Minibatch SGD training loop for one network.

    `kind` is "encoder" (reconstruction objective) or "classifier".
    Divergence aborts training and reports metric 0.0 instead of raising,
    so the evolutionary loop survives bad mutants.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    t0 = time.monotonic()
    n = view.train_x.shape[0]
    loss = 0.0
    epochs_run = 0
    try:
        for _ in range(epochs):
            for idx in dt.batches(n, batch_size, rng):
                xb = view.train_x[idx]
                out = net.forward(xb)
                if kind == "classifier":
                    loss, gy = softmax_cross_entropy(out, view.train_y[idx])
                else:
                    loss, gy = mse_loss(out, xb)
                if not math.isfinite(loss):
                    raise TrainingDiverged(f"loss became {loss}")
                net.backward(gy)
                net.step(lr, momentum)
            epochs_run += 1
        if kind == "classifier":
            metric = classifier_accuracy(net, view.val_x, view.val_y)
        else:
            metric = reconstruction_accuracy(net, view.val_x)
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
