"""Network DNA: layer-list genomes, shape inference, compression,
decoder mirroring, weight inheritance, and the text file format."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .engine import ceil_div, fan_in_normal

# Search-space caps keeping desk-scale training bounded.
STRIDE_MAX = 4
POOL_MAX = 4
FILTER_DIM_MAX = 9
FILTERS_MAX = 256

ENCODER = "Encoder"
CLASSIFIER = "Classifier"


class GenomeError(Exception):
    pass


class ShapeInferenceError(GenomeError):
    """A layer degenerates the shape (some dim reaches 0)."""

    def __init__(self, layer_index, message):
        super().__init__(f"layer {layer_index}: {message}")
        self.layer_index = layer_index


class GenomeParseError(GenomeError):
    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line


class LineageError(GenomeError):
    """Parent/child pair not related by a single mutation."""


@dataclass(frozen=True)
class ConvGene:
    filters: int
    kh: int
    kw: int
    stride: int = 1

    kind = "conv"

    def check(self):
        if not (1 <= self.filters <= FILTERS_MAX):
            raise GenomeError(f"filter count {self.filters} out of [1,{FILTERS_MAX}]")
        if not (1 <= self.kh <= FILTER_DIM_MAX and 1 <= self.kw <= FILTER_DIM_MAX):
            raise GenomeError(f"filter dims {self.kh}x{self.kw} out of [1,{FILTER_DIM_MAX}]")
        if not (1 <= self.stride <= STRIDE_MAX):
            raise GenomeError(f"stride {self.stride} out of [1,{STRIDE_MAX}]")


@dataclass(frozen=True)
class PoolGene:
    ph: int = 2
    pw: int = 2

    kind = "pool"

    def check(self):
        if not (2 <= self.ph <= POOL_MAX and 2 <= self.pw <= POOL_MAX):
            raise GenomeError(f"pool dims {self.ph}x{self.pw} out of [2,{POOL_MAX}]")


@dataclass(frozen=True)
class Genome:
    id: str
    kind: str  # ENCODER or CLASSIFIER
    layers: tuple
    learning_rate: float = 0.01
    parent_id: str | None = None
    generation: int = 0
    mutation_applied: str = "Seed"

    def check(self):
        if self.kind not in (ENCODER, CLASSIFIER):
            raise GenomeError(f"unknown genome kind {self.kind!r}")
        if not self.layers:
            raise GenomeError("genome has no layers")
        if self.learning_rate <= 0:
            raise GenomeError("learning rate must be positive")
        for gene in self.layers:
            gene.check()

    def with_child_fields(self, child_id, mutation, layers=None, learning_rate=None):
        return replace(
            self,
            id=child_id,
            layers=self.layers if layers is None else tuple(layers),
            learning_rate=self.learning_rate if learning_rate is None else learning_rate,
            parent_id=self.id,
            generation=self.generation + 1,
            mutation_applied=mutation,
        )


def seed_genome(kind, genome_id, learning_rate=0.01):
    """Very simple initial network: one small conv (plus a pool for
    encoders so the compression constraint holds)."""
    if kind == ENCODER:
        layers = (ConvGene(8, 3, 3, 1), PoolGene(2, 2))
    else:
        layers = (ConvGene(8, 3, 3, 1),)
    return Genome(id=genome_id, kind=kind, layers=layers, learning_rate=learning_rate)


# ---------------------------------------------------------------------------
# Shape arithmetic
# ---------------------------------------------------------------------------

def infer_shapes(g: Genome, input_shape):
    """(c,h,w) trace through the genome's layers, input included."""
    c, h, w = input_shape
    if c < 1 or h < 1 or w < 1:
        raise GenomeError(f"input shape {input_shape} not positive")
    trace = [(c, h, w)]
    for i, gene in enumerate(g.layers):
        if gene.kind == "conv":
            c, h, w = gene.filters, ceil_div(h, gene.stride), ceil_div(w, gene.stride)
        else:
            # a window larger than the input degenerates the dimension
            if h < gene.ph or w < gene.pw:
                raise ShapeInferenceError(
                    i, f"pool {gene.ph}x{gene.pw} exceeds spatial dims {h}x{w}"
                )
            c, h, w = c, ceil_div(h, gene.ph), ceil_div(w, gene.pw)
        if h < 1 or w < 1:
            raise ShapeInferenceError(i, f"{gene.kind} reduces spatial dims to {h}x{w}")
        trace.append((c, h, w))
    return tuple(trace)


def _elements(shape):
    return shape[0] * shape[1] * shape[2]


def compression_ratio(g: Genome, input_shape):
    """1 - encoded/input element count; approaches 1 as the encoding
    shrinks to a single value."""
    trace = infer_shapes(g, input_shape)
    return 1.0 - _elements(trace[-1]) / _elements(trace[0])


def validate_encoder(g: Genome, input_shape):
    """None when valid, else a human-readable violation description."""
    if g.kind != ENCODER:
        return f"genome {g.id} is not an encoder"
    try:
        g.check()
        trace = infer_shapes(g, input_shape)
    except GenomeError as exc:
        return str(exc)
    if _elements(trace[-1]) >= _elements(trace[0]):
        return (
            f"encoded size {_elements(trace[-1])} not smaller than "
            f"input size {_elements(trace[0])}"
        )
    return None


def validate_classifier(g: Genome, input_shape):
    """None when valid, else a violation description."""
    try:
        g.check()
        infer_shapes(g, input_shape)
    except GenomeError as exc:
        return str(exc)
    return None


# ---------------------------------------------------------------------------
# Decoder mirroring
# ---------------------------------------------------------------------------

def derive_decoder(g: Genome, input_shape):
    """Mirror the encoder into a decoder layer plan.

    Pools become up-sampling (+ crop back to the recorded pre-pool
    shape); strided convs become up-sample + crop + stride-1 conv onto
    the previous channel count. The last conv gets a sigmoid so
    reconstructions stay in [0,1].
    """
    trace = infer_shapes(g, input_shape)
    specs = []
    for i in range(len(g.layers) - 1, -1, -1):
        in_c, in_h, in_w = trace[i]
        gene = g.layers[i]
        if gene.kind == "pool":
            specs.append({"kind": "upsample", "factor": max(gene.ph, gene.pw)})
            specs.append({"kind": "crop", "target_h": in_h, "target_w": in_w})
        else:
            if gene.stride > 1:
                specs.append({"kind": "upsample", "factor": gene.stride})
                specs.append({"kind": "crop", "target_h": in_h, "target_w": in_w})
            specs.append(
                {
                    "kind": "conv",
                    "in_channels": trace[i + 1][0],
                    "filters": in_c,
                    "kh": gene.kh,
                    "kw": gene.kw,
                    "stride": 1,
                    "activation": "relu",
                }
            )
    for spec in reversed(specs):
        if spec["kind"] == "conv":
            spec["activation"] = "sigmoid"
            break
    return specs


def network_specs(g: Genome, input_shape, n_classes=10):
    """Full layer plan for the buildable network behind a genome.

    Encoders get their mirrored decoder appended; classifiers get the
    implicit flatten + dense softmax head.
    """
    trace = infer_shapes(g, input_shape)
    specs = []
    for i, gene in enumerate(g.layers):
        if gene.kind == "conv":
            specs.append(
                {
                    "kind": "conv",
                    "in_channels": trace[i][0],
                    "filters": gene.filters,
                    "kh": gene.kh,
                    "kw": gene.kw,
                    "stride": gene.stride,
                    "activation": "relu",
                }
            )
        else:
            specs.append({"kind": "pool", "ph": gene.ph, "pw": gene.pw})
    if g.kind == ENCODER:
        specs.extend(derive_decoder(g, input_shape))
    else:
        specs.append({"kind": "flatten"})
        specs.append({"kind": "dense", "in_features": _elements(trace[-1]), "units": n_classes})
    return specs


# ---------------------------------------------------------------------------
# Weight inheritance
# ---------------------------------------------------------------------------

def layer_mapping(parent: Genome, child: Genome):
    """child gene index -> parent gene index (None for inserted genes).

    Only single-edit lineages (one insertion, one removal, or one
    altered gene) are accepted.
    """
    p, c = parent.layers, child.layers
    if len(c) == len(p):
        diffs = [i for i in range(len(p)) if p[i] != c[i]]
        if len(diffs) > 1:
            raise LineageError(f"{len(diffs)} genes differ between parent and child")
        return list(range(len(p)))
    if len(c) == len(p) + 1:
        for pos in range(len(c)):
            if list(c[:pos]) == list(p[:pos]) and list(c[pos + 1:]) == list(p[pos:]):
                return list(range(pos)) + [None] + list(range(pos, len(p)))
        raise LineageError("child is not parent plus one inserted gene")
    if len(c) == len(p) - 1:
        for pos in range(len(p)):
            if list(c[:pos]) == list(p[:pos]) and list(c[pos:]) == list(p[pos + 1:]):
                return list(range(pos)) + list(range(pos + 1, len(p)))
        raise LineageError("child is not parent minus one removed gene")
    raise LineageError(f"layer counts {len(p)} -> {len(c)} differ by more than one")


def inherit_weights(parent_weights, parent: Genome, child: Genome, input_shape, rng):
    """Child weight list aligned with child.layers.

    Entries are None for pools and for freshly inserted convs (the
    builder initializes those); mapped convs keep the parent weights
    verbatim when shapes match, else the overlapping slice is copied
    onto a fresh init.
    """
    if child.parent_id != parent.id:
        raise LineageError(f"child parent_id {child.parent_id!r} != parent id {parent.id!r}")
    mapping = layer_mapping(parent, child)
    trace = infer_shapes(child, input_shape)
    out = []
    for i, gene in enumerate(child.layers):
        if gene.kind != "conv":
            out.append(None)
            continue
        src = mapping[i]
        if src is None or parent_weights[src] is None:
            out.append(None)
            continue
        pw_entry = parent_weights[src]
        in_c = trace[i][0]
        target_shape = (gene.filters, in_c, gene.kh, gene.kw)
        if pw_entry["w"].shape == target_shape:
            out.append({"w": pw_entry["w"].copy(), "b": pw_entry["b"].copy()})
            continue
        fan_in = in_c * gene.kh * gene.kw
        fresh = {"w": fan_in_normal(target_shape, fan_in, rng), "b": np.zeros(gene.filters)}
        f0, c0, h0, w0 = (min(a, b) for a, b in zip(pw_entry["w"].shape, target_shape))
        fresh["w"][:f0, :c0, :h0, :w0] = pw_entry["w"][:f0, :c0, :h0, :w0]
        fresh["b"][:f0] = pw_entry["b"][:f0]
        out.append(fresh)
    return out


# ---------------------------------------------------------------------------
# Text serialization
# ---------------------------------------------------------------------------

_FORMAT_VERSION = "v1"


def serialize(g: Genome) -> str:
    parent = g.parent_id if g.parent_id is not None else "-"
    lines = [
        f"GENOME {_FORMAT_VERSION} {g.kind} {g.id} {parent} "
        f"{g.generation} {g.learning_rate!r} {g.mutation_applied}"
    ]
    for gene in g.layers:
        if gene.kind == "conv":
            lines.append(f"CONV {gene.filters} {gene.kh} {gene.kw} {gene.stride}")
        else:
            lines.append(f"POOL {gene.ph} {gene.pw}")
    return "\n".join(lines) + "\n"


def deserialize(text: str) -> Genome:
    lines = [ln for ln in text.splitlines()]
    if not lines:
        raise GenomeParseError(1, "empty genome file")
    head = lines[0].split()
    if len(head) != 8 or head[0] != "GENOME":
        raise GenomeParseError(1, f"bad header {lines[0]!r}")
    if head[1] != _FORMAT_VERSION:
        raise GenomeParseError(1, f"unsupported genome format version {head[1]!r}")
    kind, gid, parent, gen, lr, mutation = head[2:]
    if kind not in (ENCODER, CLASSIFIER):
        raise GenomeParseError(1, f"unknown kind {kind!r}")
    genes = []
    for n, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        tok = line.split()
        try:
            if tok[0] == "CONV" and len(tok) == 5:
                genes.append(ConvGene(int(tok[1]), int(tok[2]), int(tok[3]), int(tok[4])))
            elif tok[0] == "POOL" and len(tok) == 3:
                genes.append(PoolGene(int(tok[1]), int(tok[2])))
            else:
                raise GenomeParseError(n, f"bad gene line {line!r}")
        except ValueError as exc:
            raise GenomeParseError(n, f"bad integer in {line!r}") from exc
    if not genes:
        raise GenomeParseError(len(lines), "genome has no gene lines")
    try:
        g = Genome(
            id=gid,
            kind=kind,
            layers=tuple(genes),
            learning_rate=float(lr),
            parent_id=None if parent == "-" else parent,
            generation=int(gen),
            mutation_applied=mutation,
        )
    except ValueError as exc:
        raise GenomeParseError(1, f"bad header field: {exc}") from exc
    g.check()
    return g
