"""Mutation catalog, uniform sampling, and the validity-retry loop."""

from __future__ import annotations

import enum

from . import genome as gn


class MutationKind(str, enum.Enum):
    Identity = "Identity"
    InsertConv = "InsertConv"
    RemoveConv = "RemoveConv"
    AlterStride = "AlterStride"
    InsertPool = "InsertPool"
    RemovePool = "RemovePool"
    AlterFilterNumber = "AlterFilterNumber"
    AlterFilterSize = "AlterFilterSize"
    AlterPoolSize = "AlterPoolSize"
    AlterLearningRate = "AlterLearningRate"  # classifier-only


ENCODER_KINDS = frozenset(k for k in MutationKind if k is not MutationKind.AlterLearningRate)
CLASSIFIER_KINDS = frozenset(MutationKind)

# Filter counts offered to InsertConv.
INSERT_FILTERS = (8, 16, 32, 64)

INAPPLICABLE = None


def sample_mutation(kind_set, rng) -> MutationKind:
    """Uniform draw over the kind set."""
    if not kind_set:
        raise ValueError("kind_set must be non-empty")
    kinds = sorted(kind_set, key=lambda k: k.value)
    return kinds[int(rng.integers(len(kinds)))]


def _conv_indices(layers):
    return [i for i, g in enumerate(layers) if g.kind == "conv"]


def _pool_indices(layers):
    return [i for i, g in enumerate(layers) if g.kind == "pool"]


def _pick(indices, rng):
    return indices[int(rng.integers(len(indices)))]


def apply_mutation(g, kind: MutationKind, rng, child_id):
    """One mutated child genome, or None when the draw is inapplicable.

    The parent is never modified; the child carries generation+1,
    parent_id, and the mutation name.
    """
    layers = list(g.layers)

    if kind is MutationKind.Identity:
        return g.with_child_fields(child_id, kind.value)

    if kind is MutationKind.InsertConv:
        f = INSERT_FILTERS[int(rng.integers(len(INSERT_FILTERS)))]
        pos = int(rng.integers(len(layers) + 1))
        layers.insert(pos, gn.ConvGene(f, 3, 3, 1))
        return g.with_child_fields(child_id, kind.value, layers=layers)

    if kind is MutationKind.InsertPool:
        pos = int(rng.integers(len(layers) + 1))
        layers.insert(pos, gn.PoolGene(2, 2))
        return g.with_child_fields(child_id, kind.value, layers=layers)

    if kind is MutationKind.RemoveConv:
        idx = _conv_indices(layers)
        if not idx or len(layers) == 1:
            return INAPPLICABLE
        layers.pop(_pick(idx, rng))
        return g.with_child_fields(child_id, kind.value, layers=layers)

    if kind is MutationKind.RemovePool:
        idx = _pool_indices(layers)
        if not idx or len(layers) == 1:
            return INAPPLICABLE
        layers.pop(_pick(idx, rng))
        return g.with_child_fields(child_id, kind.value, layers=layers)

    if kind is MutationKind.AlterStride:
        idx = _conv_indices(layers)
        if not idx:
            return INAPPLICABLE
        i = _pick(idx, rng)
        delta = 1 if rng.integers(2) else -1
        s = layers[i].stride + delta
        if not (1 <= s <= gn.STRIDE_MAX):
            return INAPPLICABLE
        layers[i] = gn.ConvGene(layers[i].filters, layers[i].kh, layers[i].kw, s)
        return g.with_child_fields(child_id, kind.value, layers=layers)

    if kind is MutationKind.AlterFilterNumber:
        idx = _conv_indices(layers)
        if not idx:
            return INAPPLICABLE
        i = _pick(idx, rng)
        f = layers[i].filters
        new_f = min(f * 2, gn.FILTERS_MAX) if rng.integers(2) else max(f // 2, 1)
        if new_f == f:
            return INAPPLICABLE
        layers[i] = gn.ConvGene(new_f, layers[i].kh, layers[i].kw, layers[i].stride)
        return g.with_child_fields(child_id, kind.value, layers=layers)

    if kind is MutationKind.AlterFilterSize:
        idx = _conv_indices(layers)
        if not idx:
            return INAPPLICABLE
        i = _pick(idx, rng)
        dim = int(rng.integers(2))  # 0 = height, 1 = width
        delta = 1 if rng.integers(2) else -1
        kh = layers[i].kh + (delta if dim == 0 else 0)
        kw = layers[i].kw + (delta if dim == 1 else 0)
        if not (1 <= kh <= gn.FILTER_DIM_MAX and 1 <= kw <= gn.FILTER_DIM_MAX):
            return INAPPLICABLE
        layers[i] = gn.ConvGene(layers[i].filters, kh, kw, layers[i].stride)
        return g.with_child_fields(child_id, kind.value, layers=layers)

    if kind is MutationKind.AlterPoolSize:
        idx = _pool_indices(layers)
        if not idx:
            return INAPPLICABLE
        i = _pick(idx, rng)
        dim = int(rng.integers(2))
        delta = 1 if rng.integers(2) else -1
        ph = layers[i].ph + (delta if dim == 0 else 0)
        pw = layers[i].pw + (delta if dim == 1 else 0)
        if not (2 <= ph <= gn.POOL_MAX and 2 <= pw <= gn.POOL_MAX):
            return INAPPLICABLE
        layers[i] = gn.PoolGene(ph, pw)
        return g.with_child_fields(child_id, kind.value, layers=layers)

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
        kind_set = ENCODER_KINDS if g.kind == gn.ENCODER else CLASSIFIER_KINDS
    for _ in range(max_tries):
        kind = sample_mutation(kind_set, rng)
        child = apply_mutation(g, kind, rng, child_id)
        if child is INAPPLICABLE:
            continue
        if g.kind == gn.ENCODER:
            violation = gn.validate_encoder(child, input_shape)
        else:
            violation = gn.validate_classifier(child, input_shape)
        if violation is None:
            return child
    return EXHAUSTED
