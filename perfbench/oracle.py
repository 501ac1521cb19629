"""Independent computations the correctness checks compare against.

Nothing here imports the program. The file formats (genome text, EVOW
weight blobs, EVOD caches, CIFAR-10 batches, fitness sidecars) are
parsed from their descriptions, convolution is computed by
shift-and-add over kernel offsets rather than the program's im2col, and
the Pareto and TOPSIS references are brute force and closed form.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np


def ceil_div(n, d):
    return -(-n // d)


# ---------------------------------------------------------------------------
# Genome text: "GENOME v1 <kind> <id> <parent> <gen> <lr> <mutation>",
# then one "CONV f kh kw stride" or "POOL ph pw" line per gene.
# ---------------------------------------------------------------------------

def parse_genome(text):
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    head = lines[0]
    if head[0] != "GENOME" or len(head) != 8:
        raise ValueError(f"bad genome header {head}")
    genes = []
    for tok in lines[1:]:
        if tok[0] == "CONV":
            genes.append(("conv", *map(int, tok[1:5])))
        elif tok[0] == "POOL":
            genes.append(("pool", *map(int, tok[1:3])))
        else:
            raise ValueError(f"bad gene line {tok}")
    return {"kind": head[2], "id": head[3], "genes": genes}


def encoded_shape(genes, shape):
    """(c, h, w) after the genes: same padding, so only stride and pool shrink."""
    c, h, w = shape
    for gene in genes:
        if gene[0] == "conv":
            _, filters, _kh, _kw, stride = gene
            c, h, w = filters, ceil_div(h, stride), ceil_div(w, stride)
        else:
            _, ph, pw = gene
            h, w = ceil_div(h, ph), ceil_div(w, pw)
    return c, h, w


def compression(genes, shape):
    return 1.0 - math.prod(encoded_shape(genes, shape)) / math.prod(shape)


def forward_macs(genome, shape, n_classes):
    """Multiply-accumulates of one sample's forward pass.

    An encoder's network is its genes plus the mirrored decoder, whose
    only MACs are one stride-1 conv per encoder conv, mapping that conv's
    output channels back to its input channels at its input resolution.
    A classifier's network is its genes plus a dense softmax head.
    """
    macs = 0
    c, h, w = shape
    for gene in genome["genes"]:
        if gene[0] == "conv":
            _, filters, kh, kw, stride = gene
            oh, ow = ceil_div(h, stride), ceil_div(w, stride)
            macs += oh * ow * filters * c * kh * kw
            if genome["kind"] == "Encoder":
                macs += h * w * c * filters * kh * kw
            c, h, w = filters, oh, ow
        else:
            _, ph, pw = gene
            h, w = ceil_div(h, ph), ceil_div(w, pw)
    if genome["kind"] == "Classifier":
        macs += c * h * w * n_classes
    return macs


# ---------------------------------------------------------------------------
# EVOW weights: b"EVOW", <II version, count>, then per layer <BB tag, nhp>,
# nhp <I hyperparameters, and two (<Q n, n <f4) arrays (weights, bias).
# ---------------------------------------------------------------------------

_TAGS = {1: "conv", 2: "pool", 3: "upsample", 4: "crop", 5: "flatten", 6: "dense"}
_ACTS = {0: "relu", 1: "sigmoid", 2: "linear"}


def parse_evow(blob):
    if blob[:4] != b"EVOW":
        raise ValueError("not an EVOW blob")
    _version, count = struct.unpack_from("<II", blob, 4)
    off = 12
    layers = []
    for _ in range(count):
        tag, nhp = struct.unpack_from("<BB", blob, off)
        off += 2
        hp = struct.unpack_from(f"<{nhp}I", blob, off)
        off += 4 * nhp
        arrays = []
        for _ in range(2):
            (n,) = struct.unpack_from("<Q", blob, off)
            off += 8
            arrays.append(np.frombuffer(blob, "<f4", n, off).astype(np.float64) if n else None)
            off += 4 * n
        layer = {"kind": _TAGS[tag], "hp": hp}
        if layer["kind"] == "conv":
            in_c, filters, kh, kw, stride, act = hp
            layer.update(w=arrays[0].reshape(filters, in_c, kh, kw), b=arrays[1],
                         stride=stride, act=_ACTS[act])
        elif layer["kind"] == "dense":
            layer.update(w=arrays[0].reshape(hp[0], hp[1]), b=arrays[1])
        layers.append(layer)
    if off != len(blob):
        raise ValueError(f"EVOW blob has {len(blob) - off} trailing bytes")
    return layers


def _conv(x, layer):
    w, stride = layer["w"], layer["stride"]
    f, _c, kh, kw = w.shape
    b, _, h, wd = x.shape
    oh, ow = ceil_div(h, stride), ceil_div(wd, stride)
    ph = max((oh - 1) * stride + kh - h, 0)
    pw = max((ow - 1) * stride + kw - wd, 0)
    xp = np.pad(x, ((0, 0), (0, 0), (ph // 2, ph - ph // 2), (pw // 2, pw - pw // 2)))
    z = np.zeros((b, f, oh, ow))
    for i in range(kh):
        for j in range(kw):
            patch = xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
            z += np.einsum("bchw,fc->bfhw", patch, w[:, :, i, j])
    z += layer["b"][None, :, None, None]
    if layer["act"] == "relu":
        return np.maximum(z, 0.0)
    if layer["act"] == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    return z


def _pool(x, ph, pw):
    b, c, h, w = x.shape
    oh, ow = ceil_div(h, ph), ceil_div(w, pw)
    xp = np.full((b, c, oh * ph, ow * pw), -np.inf)
    xp[:, :, :h, :w] = x
    return xp.reshape(b, c, oh, ph, ow, pw).max(axis=(3, 5))


def forward(layers, x):
    for layer in layers:
        kind, hp = layer["kind"], layer["hp"]
        if kind == "conv":
            x = _conv(x, layer)
        elif kind == "pool":
            x = _pool(x, *hp)
        elif kind == "upsample":
            x = x.repeat(hp[0], axis=2).repeat(hp[0], axis=3)
        elif kind == "crop":
            x = x[:, :, :hp[0], :hp[1]]
        elif kind == "flatten":
            x = x.reshape(x.shape[0], -1)
        else:
            x = x @ layer["w"] + layer["b"]
    return x


# ---------------------------------------------------------------------------
# Data files
# ---------------------------------------------------------------------------

def read_cifar_batch(path):
    raw = np.frombuffer(Path(path).read_bytes(), np.uint8).reshape(-1, 3073)
    return raw[:, 1:].reshape(-1, 3, 32, 32).astype(np.float64) / 255.0, raw[:, 0].astype(np.int64)


def read_evod(path):
    raw = Path(path).read_bytes()
    if raw[:4] != b"EVOD":
        raise ValueError(f"{path}: not an EVOD file")
    _version, n, c, h, w = struct.unpack_from("<5I", raw, 4)
    size = n * c * h * w
    if len(raw) != 24 + 4 * size + n:
        raise ValueError(f"{path}: EVOD length does not match its header")
    x = np.frombuffer(raw, "<f4", size, 24).astype(np.float64).reshape(n, c, h, w)
    y = np.frombuffer(raw, np.uint8, n, 24 + 4 * size).astype(np.int64)
    return x, y


def parse_fitness(line):
    """id, kind, metric ('c:a' or scalar), wall_seconds, worker, generation, parent, mutation."""
    iid, kind, metric, wall, _worker, gen, _parent, _mutation = line.strip().split(",")
    pair = tuple(map(float, metric.split(":"))) if ":" in metric else None
    scalar = None if pair else float(metric)
    return {"id": iid, "kind": kind, "pair": pair, "scalar": scalar,
            "wall_seconds": float(wall), "generation": int(gen)}


# ---------------------------------------------------------------------------
# Selection references
# ---------------------------------------------------------------------------

def dominates(a, b):
    return a[0] >= b[0] and a[1] >= b[1] and (a[0] > b[0] or a[1] > b[1])


def non_dominated(pairs):
    """Indices no other pair dominates, by brute force."""
    return [i for i, p in enumerate(pairs) if not any(dominates(q, p) for q in pairs)]


def topsis_pick(alternatives, w_compression=0.5, w_accuracy=0.5):
    """Id with the highest closeness d-/(d+ + d-); lowest id on ties.

    `alternatives` are (id, compression, accuracy). Both criteria lie in
    [0,1], so the weighted values are compared with the ideal point
    (w_c, w_a) and the anti-ideal point (0, 0) directly.
    """
    total = w_compression + w_accuracy
    wc, wa = w_compression / total, w_accuracy / total

    def closeness(c, a):
        d_pos = math.hypot(wc * c - wc, wa * a - wa)
        d_neg = math.hypot(wc * c, wa * a)
        return d_neg / (d_pos + d_neg)

    return min(alternatives, key=lambda alt: (-closeness(alt[1], alt[2]), alt[0]))[0]
