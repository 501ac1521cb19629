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


def _step(old, up):
    return old + 1 if up else old - 1


def _double_or_halve(old, up):
    return min(old * 2, gn.FILTERS_MAX) if up else max(old // 2, 1)


_ALTERS = {  # kind -> (gene class, its fields, new value from the old one and the direction)
    MutationKind.AlterFilterSize: (gn.ConvGene, ("kh", "kw"), _step),
    MutationKind.AlterPoolSize: (gn.PoolGene, ("ph", "pw"), _step),
    MutationKind.AlterStride: (gn.ConvGene, ("stride",), _step),
    MutationKind.AlterFilterNumber: (gn.ConvGene, ("filters",), _double_or_halve),
}


def _pick(layers, cls, rng):
    """Index of a uniformly drawn gene of class cls, or None when there is none."""
    indices = [i for i, gene in enumerate(layers) if type(gene) is cls]
    return indices[int(rng.integers(len(indices)))] if indices else None


def apply_mutation(g, kind: MutationKind, rng, child_id):
    """(child, genes_from) for one mutated child genome, or INAPPLICABLE
    when the draw is inapplicable.

    The parent is never modified; the child carries generation+1,
    parent_id, and the mutation name. `genes_from[j]` is the index of the
    parent gene that child gene j came from, or None for an inserted gene.
    An insertion or removal next to equal genes makes the same child at
    several positions; the lowest of them is reported, with no extra draw.
    """
    layers = list(g.layers)
    genes_from = list(range(len(layers)))
    learning_rate = None

    if kind in _INSERTS:
        gene = _INSERTS[kind](rng)
        i = int(rng.integers(len(layers) + 1))
        while i and layers[i - 1] == gene:
            i -= 1
        layers.insert(i, gene)
        genes_from.insert(i, None)
    elif kind in _REMOVES:
        i = None if len(layers) == 1 else _pick(layers, _REMOVES[kind], rng)
        if i is None:
            return INAPPLICABLE
        while i and layers[i - 1] == layers[i]:
            i -= 1
        del layers[i], genes_from[i]
    elif kind in _ALTERS:
        # seeded histories depend on the draw order: the gene, the field
        # (two-field kinds only), then the direction
        cls, names, new_value = _ALTERS[kind]
        i = _pick(layers, cls, rng)
        if i is None:
            return INAPPLICABLE
        name = names[int(rng.integers(2))] if len(names) == 2 else names[0]
        old = getattr(layers[i], name)
        new = new_value(old, bool(rng.integers(2)))
        if new == old:
            return INAPPLICABLE
        layers[i] = replace(layers[i], **{name: new})
        try:
            layers[i].check()
        except gn.GenomeError:  # the new value leaves the gene's bounds
            return INAPPLICABLE
    elif kind is MutationKind.AlterLearningRate:
        learning_rate = g.learning_rate * (2.0 if rng.integers(2) else 0.5)
    elif kind is not MutationKind.Identity:
        raise ValueError(f"unknown mutation kind {kind!r}")

    return g.with_child_fields(child_id, kind.value, layers, learning_rate), genes_from


EXHAUSTED = "exhausted"


def mutate_valid(g, input_shape, rng, child_id, max_tries=25, kind_set=None):
    """(sample, apply, validate) until a valid child appears.

    Returns apply_mutation's (child, genes_from), or EXHAUSTED after
    max_tries; the caller is expected to fall back to Identity so the
    worker stays live.
    """
    if max_tries < 1:
        raise ValueError("max_tries must be >= 1")
    if kind_set is None:
        kind_set = gn.GENOME_KINDS[g.kind].mutations
    for _ in range(max_tries):
        kind = sample_mutation(kind_set, rng)
        mutated = apply_mutation(g, kind, rng, child_id)
        if mutated is not INAPPLICABLE and gn.validate(mutated[0], input_shape) is None:
            return mutated
    return EXHAUSTED
