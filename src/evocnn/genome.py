"""Network DNA: layer-list genomes, shape inference, compression,
decoder mirroring, weight inheritance, and the text file format.

A genome is a list of genes, input side first. Each gene kind is one
class in `GENE_KINDS`, and the class holds all that differs between
kinds: its text tag, its field bounds (`check`), its output shape, the
layer spec it builds, and the decoder layers that mirror it.

A genome is an Encoder (step 1) or a Classifier (step 3); `GENOME_KINDS`
holds all that differs between the two, from the seed genes and the
training loss to the layers built after the genes and the fitness rule.

A genome is stored as text, one whitespace-separated record per line:

    GENOME v1 <kind> <id> <parent id, or -> <generation> <learning rate> <mutation>

then one line per gene, its tag followed by its fields in dataclass
order:

    CONV filters kh kw stride
    POOL ph pw

The kind is Encoder or Classifier, the generation and every gene field
are written as ASCII decimal integers without sign or leading zeros (no
other spelling is read), and the learning rate with `repr`, so it reads
back exactly. Blank lines are skipped. `deserialize` raises
GenomeParseError on a malformed line and GenomeError on a value out of
range: an unknown kind, a gene field outside its bounds, a generation
below 0, or a learning rate that is not positive and finite.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass, fields, replace
from typing import Callable, NamedTuple

from . import engine as eng
from .selection import FitnessRecord

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
    """A gene cannot apply to its input shape (a pool window exceeds it)."""

    def __init__(self, layer_index, message):
        super().__init__(f"layer {layer_index}: {message}")
        self.layer_index = layer_index


class GenomeParseError(GenomeError):
    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _upsample_to(factor, in_shape, out_shape):
    """Up-sample out_shape by `factor`, cropped back to in_shape where it overshoots."""
    specs = [{"kind": "upsample", "factor": factor}]
    if (factor * out_shape[1], factor * out_shape[2]) != in_shape[1:]:
        specs.append({"kind": "crop", "target_h": in_shape[1], "target_w": in_shape[2]})
    return specs


@dataclass(frozen=True)
class ConvGene:
    filters: int
    kh: int
    kw: int
    stride: int = 1

    kind = "conv"
    tag = "CONV"

    def check(self):
        if not (1 <= self.filters <= FILTERS_MAX):
            raise GenomeError(f"filter count {self.filters} out of [1,{FILTERS_MAX}]")
        if not (1 <= self.kh <= FILTER_DIM_MAX and 1 <= self.kw <= FILTER_DIM_MAX):
            raise GenomeError(f"filter dims {self.kh}x{self.kw} out of [1,{FILTER_DIM_MAX}]")
        if not (1 <= self.stride <= STRIDE_MAX):
            raise GenomeError(f"stride {self.stride} out of [1,{STRIDE_MAX}]")

    def out_shape(self, c, h, w):
        return self.filters, eng.ceil_div(h, self.stride), eng.ceil_div(w, self.stride)

    def spec(self, in_c):
        return {"kind": self.kind, "in_channels": in_c, "filters": self.filters,
                "kh": self.kh, "kw": self.kw, "stride": self.stride, "activation": "relu"}

    def mirror(self, in_shape, out_shape):
        """A stride becomes an up-sample (+ crop), then a stride-1 conv maps
        out_shape's channels back onto in_shape's."""
        specs = _upsample_to(self.stride, in_shape, out_shape) if self.stride > 1 else []
        return specs + [{**self.spec(out_shape[0]), "filters": in_shape[0], "stride": 1}]


@dataclass(frozen=True)
class PoolGene:
    ph: int = 2
    pw: int = 2

    kind = "pool"
    tag = "POOL"

    def check(self):
        if not (2 <= self.ph <= POOL_MAX and 2 <= self.pw <= POOL_MAX):
            raise GenomeError(f"pool dims {self.ph}x{self.pw} out of [2,{POOL_MAX}]")

    def out_shape(self, c, h, w):
        # a window larger than the input degenerates the dimension
        if h < self.ph or w < self.pw:
            raise ValueError(f"pool {self.ph}x{self.pw} exceeds spatial dims {h}x{w}")
        return c, eng.ceil_div(h, self.ph), eng.ceil_div(w, self.pw)

    def spec(self, in_c):
        return {"kind": self.kind, "ph": self.ph, "pw": self.pw}

    def mirror(self, in_shape, out_shape):
        return _upsample_to(max(self.ph, self.pw), in_shape, out_shape)


# Text tag -> gene class; a gene line is the tag, then the values of the
# class's dataclass fields in order.
GENE_KINDS = {cls.tag: cls for cls in (ConvGene, PoolGene)}


@dataclass(frozen=True)
class Genome:
    id: str
    kind: str  # a key of GENOME_KINDS: ENCODER or CLASSIFIER
    layers: tuple
    learning_rate: float = 0.01
    parent_id: str | None = None
    generation: int = 0
    mutation_applied: str = "Seed"

    def check(self):
        if self.kind not in GENOME_KINDS:
            raise GenomeError(f"unknown genome kind {self.kind!r}")
        if not self.layers:
            raise GenomeError("genome has no layers")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise GenomeError(f"learning rate {self.learning_rate!r} must be positive and finite")
        if self.generation < 0:
            raise GenomeError(f"generation {self.generation} is negative")
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


class MutationKind(str, enum.Enum):
    AlterFilterNumber = "AlterFilterNumber"
    AlterFilterSize = "AlterFilterSize"
    AlterLearningRate = "AlterLearningRate"
    AlterPoolSize = "AlterPoolSize"
    AlterStride = "AlterStride"
    Identity = "Identity"
    InsertConv = "InsertConv"
    InsertPool = "InsertPool"
    RemoveConv = "RemoveConv"
    RemovePool = "RemovePool"


class GenomeKind(NamedTuple):
    step: str             # short name of its evolution step: CLI choice and run directory
    seed_layers: tuple    # genes of a seed genome
    batch_loss: Callable  # (output, x batch, y batch) -> (loss, output gradient)
    metric: Callable      # (network, DatasetView) -> validation metric
    mutations: tuple      # MutationKinds drawn for a child, in value order (seeded draws index it)
    tail: Callable        # (genome, shape trace, n_classes) -> specs of the layers after the genes
    compresses: bool      # must shrink its input, and is scored (compression, metric)


GENOME_KINDS = {
    ENCODER: GenomeKind(
        step="cae",
        seed_layers=(ConvGene(8, 3, 3, 1), PoolGene(2, 2)),  # the pool makes the seed compress
        batch_loss=lambda out, x, y: eng.mse_loss(out, x),
        metric=lambda net, view: eng.reconstruction_accuracy(net, view.val_x),
        mutations=tuple(k for k in MutationKind if k is not MutationKind.AlterLearningRate),
        tail=lambda g, trace, n_classes: derive_decoder(g, trace[0]),
        compresses=True,
    ),
    CLASSIFIER: GenomeKind(
        step="clf",
        seed_layers=(ConvGene(8, 3, 3, 1),),
        batch_loss=lambda out, x, y: eng.softmax_cross_entropy(out, y),
        metric=lambda net, view: eng.classifier_accuracy(net, view.val_x, view.val_y),
        mutations=tuple(MutationKind),
        tail=lambda g, trace, n_classes: [
            {"kind": "flatten"},
            {"kind": "dense", "in_features": math.prod(trace[-1]), "units": n_classes},
        ],
        compresses=False,
    ),
}


def seed_genome(kind, genome_id, learning_rate=0.01):
    """Very simple initial network: the kind's seed genes."""
    return Genome(genome_id, kind, GENOME_KINDS[kind].seed_layers, learning_rate)


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
        try:
            trace.append(gene.out_shape(*trace[-1]))
        except ValueError as exc:
            raise ShapeInferenceError(i, str(exc)) from None
    return tuple(trace)


def compression_ratio(g: Genome, input_shape):
    """1 - encoded/input element count; approaches 1 as the encoding
    shrinks to a single value."""
    trace = infer_shapes(g, input_shape)
    return 1.0 - math.prod(trace[-1]) / math.prod(trace[0])


def fitness_record(g: Genome, input_shape, metric):
    """(compression, metric) for a kind that must compress, else (metric,)."""
    compression = (compression_ratio(g, input_shape),) if GENOME_KINDS[g.kind].compresses else ()
    return FitnessRecord((*compression, metric))


def validate(g: Genome, input_shape):
    """None when the genome builds on input_shape (and compresses it, when
    its kind must), else a human-readable violation description."""
    try:
        g.check()
        trace = infer_shapes(g, input_shape)
    except GenomeError as exc:
        return str(exc)
    encoded, size = math.prod(trace[-1]), math.prod(trace[0])
    if GENOME_KINDS[g.kind].compresses and encoded >= size:
        return f"encoded size {encoded} not smaller than input size {size}"
    return None


# ---------------------------------------------------------------------------
# Decoder mirroring
# ---------------------------------------------------------------------------

def derive_decoder(g: Genome, input_shape):
    """Mirror the encoder into a decoder layer plan.

    Each gene, last first, contributes its `mirror`: pools become
    up-sampling, strided convs up-sampling + a stride-1 conv onto the
    previous channel count, and an up-sample that overshoots the recorded
    pre-gene shape is cropped back to it. The last conv gets a sigmoid
    so reconstructions stay in [0,1].
    """
    trace = infer_shapes(g, input_shape)
    specs = [spec for i in reversed(range(len(g.layers)))
             for spec in g.layers[i].mirror(trace[i], trace[i + 1])]
    for spec in reversed(specs):
        if "activation" in spec:
            spec["activation"] = "sigmoid"
            break
    return specs


def network_specs(g: Genome, input_shape, n_classes=10):
    """Full layer plan for the buildable network behind a genome: its
    genes, then its kind's tail (an encoder's mirrored decoder, or a
    classifier's flatten + dense softmax head). Gene i builds layer i."""
    trace = infer_shapes(g, input_shape)
    genes = [gene.spec(shape[0]) for gene, shape in zip(g.layers, trace)]
    return genes + GENOME_KINDS[g.kind].tail(g, trace, n_classes)


# ---------------------------------------------------------------------------
# Weight inheritance
# ---------------------------------------------------------------------------

def inherit_weights(net, child: Genome, parent: Genome, parent_net, genes_from, rng):
    """Write the parent's weights into the child's freshly built network.

    Gene i builds layer i, and the layers after the genes are the kind's
    tail. Child layer j of a gene takes the arrays of parent layer
    genes_from[j] (the parent gene that child gene j came from, None for
    an inserted gene, as `mutation.apply_mutation` reports), and the n-th
    layer after the child's genes those of the n-th layer after the
    parent's, on the overlap of their shapes, unless a policy line below
    keeps the build's init. Other layers keep the build's init. parent_net
    must follow the parent's layer plan, as `worker.read_individual` checks.
    """
    parent_layers = [*(None if i is None else parent_net.layers[i] for i in genes_from),
                     *parent_net.layers[len(parent.layers):]]
    for j, (layer, old) in enumerate(zip(net.layers, parent_layers)):
        if old is None or not layer.params():
            continue
        tail = j >= len(child.layers)
        reshaped = tuple(a.shape for a in old.params()) != layer.param_shapes()
        if tail and child.kind == ENCODER and parent.layers != child.layers:
            continue  # policy: a changed encoder keeps the build's decoder
        if tail and reshaped:
            continue  # policy: a reshaped classifier head keeps the build's init
        if reshaped:
            layer.init_weights(rng)  # policy: a fresh init, drawn after the build's own draws
        for fresh, kept in zip(layer.params(), old.params()):
            overlap = tuple(slice(0, min(a, b)) for a, b in zip(fresh.shape, kept.shape))
            fresh[overlap] = kept[overlap]


# ---------------------------------------------------------------------------
# Text serialization (format in the module docstring)
# ---------------------------------------------------------------------------

_FORMAT_VERSION = "v1"
_DECIMAL = re.compile(r"0|[1-9][0-9]*")  # how serialize writes an integer


def _decimal(text, line):
    if not _DECIMAL.fullmatch(text):
        raise GenomeParseError(line, f"bad integer {text!r}")
    return int(text)


def serialize(g: Genome) -> str:
    parent = g.parent_id if g.parent_id is not None else "-"
    lines = [
        f"GENOME {_FORMAT_VERSION} {g.kind} {g.id} {parent} "
        f"{g.generation} {g.learning_rate!r} {g.mutation_applied}"
    ]
    for gene in g.layers:
        lines.append(" ".join([gene.tag, *(str(getattr(gene, f.name)) for f in fields(gene))]))
    return "\n".join(lines) + "\n"


def deserialize(text: str) -> Genome:
    """Inverse of `serialize`; malformed text raises GenomeError."""
    lines = text.splitlines()
    if not lines:
        raise GenomeParseError(1, "empty genome file")
    head = lines[0].split()
    if len(head) != 8 or head[0] != "GENOME":
        raise GenomeParseError(1, f"bad header {lines[0]!r}")
    if head[1] != _FORMAT_VERSION:
        raise GenomeParseError(1, f"unsupported genome format version {head[1]!r}")
    kind, gid, parent, gen, lr, mutation = head[2:]
    genes = []
    for n, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        tag, *values = line.split()
        cls = GENE_KINDS.get(tag)
        if cls is None or len(values) != len(fields(cls)):
            raise GenomeParseError(n, f"bad gene line {line!r}")
        genes.append(cls(*(_decimal(v, n) for v in values)))
    if not genes:
        raise GenomeParseError(len(lines), "genome has no gene lines")
    try:
        learning_rate = float(lr)
        if repr(learning_rate) != lr:
            # only the spelling serialize writes: float() also reads 0.0_1 and non-ASCII digits
            raise ValueError(f"learning rate {lr!r} is not written as {learning_rate!r}")
        g = Genome(
            id=gid,
            kind=kind,
            layers=tuple(genes),
            learning_rate=learning_rate,
            parent_id=None if parent == "-" else parent,
            generation=_decimal(gen, 1),
            mutation_applied=mutation,
        )
    except ValueError as exc:
        raise GenomeParseError(1, f"bad header field: {exc}") from exc
    g.check()
    return g
