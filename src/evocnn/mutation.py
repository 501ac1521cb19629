"""Mutation catalog, uniform sampling, and the validity-retry loop."""

from __future__ import annotations

from dataclasses import replace

from . import genome as gn
from .genome import MutationKind

# Filter counts offered to InsertConv.
INSERT_FILTERS = (8, 16, 32, 64)

INAPPLICABLE = None


def sample_mutation(kind_set, rng) -> MutationKind:
    """Uniform draw over the kind set."""
    if not kind_set:
        raise ValueError("kind_set must be non-empty")
    kinds = sorted(kind_set, key=lambda k: k.value)
    return kinds[int(rng.integers(len(kinds)))]


def _new_conv(rng):
    return gn.ConvGene(INSERT_FILTERS[int(rng.integers(len(INSERT_FILTERS)))], 3, 3, 1)


# Each family of per-gene mutations, by the gene kind it acts on.
_INSERTS = {  # kind -> maker of the inserted gene
    MutationKind.InsertConv: _new_conv,
    MutationKind.InsertPool: lambda rng: gn.PoolGene(2, 2),
}
_REMOVES = {MutationKind.RemoveConv: gn.ConvGene, MutationKind.RemovePool: gn.PoolGene}
_RESIZES = {  # kind -> (gene class, window fields)
    MutationKind.AlterFilterSize: (gn.ConvGene, ("kh", "kw")),
    MutationKind.AlterPoolSize: (gn.PoolGene, ("ph", "pw")),
}


def _pick(layers, cls, rng):
    """Index of a uniformly drawn gene of class cls, or None when there is none."""
    indices = [i for i, gene in enumerate(layers) if type(gene) is cls]
    return indices[int(rng.integers(len(indices)))] if indices else None


def _altered(g, kind, child_id, layers, i, **changes):
    """The child with gene i's fields changed, or None when they leave the
    gene's bounds."""
    gene = replace(layers[i], **changes)
    try:
        gene.check()
    except gn.GenomeError:
        return INAPPLICABLE
    layers[i] = gene
    return g.with_child_fields(child_id, kind.value, layers=layers)


def apply_mutation(g, kind: MutationKind, rng, child_id):
    """One mutated child genome, or None when the draw is inapplicable.

    The parent is never modified; the child carries generation+1,
    parent_id, and the mutation name.
    """
    layers = list(g.layers)

    if kind is MutationKind.Identity:
        return g.with_child_fields(child_id, kind.value)

    if kind in _INSERTS:
        gene = _INSERTS[kind](rng)
        layers.insert(int(rng.integers(len(layers) + 1)), gene)
        return g.with_child_fields(child_id, kind.value, layers=layers)

    if kind in _REMOVES:
        i = None if len(layers) == 1 else _pick(layers, _REMOVES[kind], rng)
        if i is None:
            return INAPPLICABLE
        layers.pop(i)
        return g.with_child_fields(child_id, kind.value, layers=layers)

    if kind in _RESIZES:
        cls, dims = _RESIZES[kind]
        i = _pick(layers, cls, rng)
        if i is None:
            return INAPPLICABLE
        dim = dims[int(rng.integers(2))]
        delta = 1 if rng.integers(2) else -1
        return _altered(g, kind, child_id, layers, i, **{dim: getattr(layers[i], dim) + delta})

    if kind is MutationKind.AlterStride:
        i = _pick(layers, gn.ConvGene, rng)
        if i is None:
            return INAPPLICABLE
        delta = 1 if rng.integers(2) else -1
        return _altered(g, kind, child_id, layers, i, stride=layers[i].stride + delta)

    if kind is MutationKind.AlterFilterNumber:
        i = _pick(layers, gn.ConvGene, rng)
        if i is None:
            return INAPPLICABLE
        f = layers[i].filters
        new_f = min(f * 2, gn.FILTERS_MAX) if rng.integers(2) else max(f // 2, 1)
        if new_f == f:
            return INAPPLICABLE
        return _altered(g, kind, child_id, layers, i, filters=new_f)

    if kind is MutationKind.AlterLearningRate:
        factor = 2.0 if rng.integers(2) else 0.5
        return g.with_child_fields(child_id, kind.value,
                                   learning_rate=g.learning_rate * factor)

    raise ValueError(f"unknown mutation kind {kind!r}")


EXHAUSTED = "exhausted"


def mutate_valid(g, input_shape, rng, child_id, max_tries=25, kind_set=None):
    """(sample, apply, validate) until a valid child appears.

    Returns the child genome, or EXHAUSTED after max_tries; the caller
    is expected to fall back to Identity so the worker stays live.
    """
    if max_tries < 1:
        raise ValueError("max_tries must be >= 1")
    if kind_set is None:
        kind_set = gn.GENOME_KINDS[g.kind].mutations
    for _ in range(max_tries):
        kind = sample_mutation(kind_set, rng)
        child = apply_mutation(g, kind, rng, child_id)
        if child is INAPPLICABLE:
            continue
        if gn.validate(child, input_shape) is None:
            return child
    return EXHAUSTED
