import dataclasses
import math

import numpy as np
import pytest

from evocnn import genome as gn
from evocnn import mutation as mu

ENCODER_MUTATIONS = gn.GENOME_KINDS[gn.ENCODER].mutations
CLASSIFIER_MUTATIONS = gn.GENOME_KINDS[gn.CLASSIFIER].mutations


def enc(*layers, gid="p"):
    return gn.Genome(id=gid, kind=gn.ENCODER, layers=tuple(layers))


def clf(*layers, gid="p", lr=0.01):
    return gn.Genome(id=gid, kind=gn.CLASSIFIER, layers=tuple(layers), learning_rate=lr)


class TestSampleMutation:
    def test_uniform_over_nine_kinds(self, rng, monkeypatch):
        # every try is inapplicable, so mutate_valid draws MUTATION_TRIES kinds
        n = 10_000
        drawn = []
        monkeypatch.setattr(mu, "MUTATION_TRIES", n)
        monkeypatch.setattr(mu, "apply_mutation", lambda g, kind, rng, child_id: drawn.append(kind))
        g = enc(gn.ConvGene(8, 3, 3, 1), gn.PoolGene(2, 2))
        assert mu.mutate_valid(g, (3, 32, 32), rng, "c") is mu.EXHAUSTED
        assert len(drawn) == n
        counts = {}
        for k in drawn:
            counts[k] = counts.get(k, 0) + 1
        p = 1 / 9
        sigma = math.sqrt(p * (1 - p) / n)
        assert len(counts) == 9
        for k, c in counts.items():
            assert abs(c / n - p) < 5 * sigma, f"{k}: {c / n}"

    def test_encoder_set_excludes_learning_rate(self):
        assert mu.MutationKind.AlterLearningRate not in ENCODER_MUTATIONS
        assert mu.MutationKind.AlterLearningRate in CLASSIFIER_MUTATIONS
        assert len(ENCODER_MUTATIONS) == 9
        assert len(CLASSIFIER_MUTATIONS) == 10

    @pytest.mark.parametrize("kind", sorted(gn.GENOME_KINDS))
    def test_mutations_are_in_value_order(self, kind):
        # a draw indexes this tuple, so seeded histories depend on its order
        mutations = gn.GENOME_KINDS[kind].mutations
        assert type(mutations) is tuple
        assert list(mutations) == sorted(mutations, key=lambda k: k.value)


class TestApplyMutation:
    def test_identity_changes_only_lineage_fields(self, rng):
        g = enc(gn.ConvGene(8, 3, 3, 1), gn.PoolGene(2, 2))
        child, genes_from = mu.apply_mutation(g, mu.MutationKind.Identity, rng, "c1")
        assert genes_from == [0, 1]
        assert child.layers == g.layers
        assert child.learning_rate == g.learning_rate
        assert child.id == "c1"
        assert child.parent_id == g.id
        assert child.generation == g.generation + 1
        assert child.mutation_applied == "Identity"

    def test_parent_never_modified(self, rng):
        g = enc(gn.ConvGene(8, 3, 3, 1), gn.PoolGene(2, 2))
        before = g.layers
        for kind in ENCODER_MUTATIONS:
            mu.apply_mutation(g, kind, rng, "c")
        assert g.layers == before and g.generation == 0

    def test_remove_pool_on_pool_free_genome_inapplicable(self, rng):
        g = enc(gn.ConvGene(8, 3, 3, 1))
        assert mu.apply_mutation(g, mu.MutationKind.RemovePool, rng, "c") is None

    def test_remove_conv_on_conv_free_genome_inapplicable(self, rng):
        g = enc(gn.PoolGene(2, 2))
        assert mu.apply_mutation(g, mu.MutationKind.RemoveConv, rng, "c") is None

    def test_alter_stride_respects_floor(self):
        g = enc(gn.ConvGene(8, 3, 3, 1))
        seen = set()
        for seed in range(40):
            mutated = mu.apply_mutation(
                g, mu.MutationKind.AlterStride, np.random.default_rng(seed), "c"
            )
            if mutated is None:
                seen.add("inapplicable")  # decrement drawn at stride 1
            else:
                child, genes_from = mutated
                assert child.layers[0].stride == 2
                assert genes_from == [0]
                seen.add("increment")
        assert seen == {"inapplicable", "increment"}

    def test_alter_filter_number_doubles_or_halves(self):
        g = enc(gn.ConvGene(8, 3, 3, 1), gn.PoolGene(2, 2))
        results = set()
        for seed in range(40):
            child, genes_from = mu.apply_mutation(
                g, mu.MutationKind.AlterFilterNumber, np.random.default_rng(seed), "c"
            )
            assert genes_from == [0, 1]
            results.add(child.layers[0].filters)
        assert results == {4, 16}

    @pytest.mark.parametrize(
        "kind, gene, fields, step",
        [
            (mu.MutationKind.AlterFilterSize, gn.ConvGene(8, 1, 1, 2), ("kh", "kw"), +1),
            (mu.MutationKind.AlterFilterSize,
             gn.ConvGene(8, gn.FILTER_DIM_MAX, gn.FILTER_DIM_MAX, 2), ("kh", "kw"), -1),
            (mu.MutationKind.AlterPoolSize, gn.PoolGene(2, 2), ("ph", "pw"), +1),
            (mu.MutationKind.AlterPoolSize, gn.PoolGene(gn.POOL_MAX, gn.POOL_MAX), ("ph", "pw"), -1),
        ],
        ids=["filter-1x1", "filter-9x9", "pool-2x2", "pool-4x4"],
    )
    def test_alter_size_steps_one_dim_within_bounds(self, kind, gene, fields, step):
        # at a bound only the inward step is valid; the outward one is inapplicable
        g = enc(gene)
        seen = set()
        for seed in range(40):
            mutated = mu.apply_mutation(g, kind, np.random.default_rng(seed), "c")
            if mutated is None:
                seen.add("inapplicable")
                continue
            child, genes_from = mutated
            assert genes_from == [0]
            (new,) = child.layers
            changed = [f for f in fields if getattr(new, f) != getattr(gene, f)]
            assert len(changed) == 1
            assert getattr(new, changed[0]) == getattr(gene, changed[0]) + step
            assert new == dataclasses.replace(gene, **{changed[0]: getattr(new, changed[0])})
            seen.add(changed[0])
        assert seen == {"inapplicable", *fields}

    def test_insert_conv_uses_filter_choices(self, rng):
        g = enc(gn.PoolGene(2, 2))
        child, genes_from = mu.apply_mutation(g, mu.MutationKind.InsertConv, rng, "c")
        assert sorted(genes_from, key=str) == [0, None]
        assert child.layers[genes_from.index(0)] == g.layers[0]
        convs = [l for l in child.layers if l.kind == "conv"]
        assert len(convs) == 1
        assert convs[0].filters in mu.INSERT_FILTERS
        assert (convs[0].kh, convs[0].kw, convs[0].stride) == (3, 3, 1)

    def test_insert_pool_is_2x2(self, rng):
        g = enc(gn.ConvGene(8, 3, 3, 1))
        child, genes_from = mu.apply_mutation(g, mu.MutationKind.InsertPool, rng, "c")
        assert child.layers[genes_from.index(None)] == gn.PoolGene(2, 2)
        pools = [l for l in child.layers if l.kind == "pool"]
        assert pools == [gn.PoolGene(2, 2)]

    def test_alter_learning_rate_doubles_or_halves(self):
        g = clf(gn.ConvGene(8, 3, 3, 1), lr=0.02)
        children = [
            mu.apply_mutation(g, mu.MutationKind.AlterLearningRate, np.random.default_rng(s), "c")
            for s in range(20)
        ]
        assert {child.learning_rate for child, _ in children} == {0.01, 0.04}
        assert all(child.layers == g.layers and genes_from == [0] for child, genes_from in children)


class TestMutateValid:
    def test_boundary_remove_pool_rejected(self, monkeypatch):
        # encoder at minimum compression: removing the pool equalizes sizes
        monkeypatch.setattr(mu, "MUTATION_TRIES", 50)
        g = enc(gn.ConvGene(3, 3, 3, 1), gn.PoolGene(2, 2))
        for seed in range(30):
            mutated = mu.mutate_valid(g, (3, 32, 32), np.random.default_rng(seed), "c")
            assert mutated is not mu.EXHAUSTED
            assert gn.validate(mutated[0], (3, 32, 32)) is None

    def test_accepted_children_always_compress(self, rng, monkeypatch):
        monkeypatch.setattr(mu, "MUTATION_TRIES", 50)
        g = enc(gn.ConvGene(8, 3, 3, 1), gn.PoolGene(2, 2))
        current = g
        for i in range(300):
            mutated = mu.mutate_valid(current, (3, 32, 32), rng, f"c{i}")
            assert mutated is not mu.EXHAUSTED
            child, genes_from = mutated
            assert len(genes_from) == len(child.layers)
            trace = gn.infer_shapes(child, (3, 32, 32))
            assert trace[-1][0] * trace[-1][1] * trace[-1][2] < 3 * 32 * 32
            current = child

    def test_exhausted_with_all_inapplicable_kind_set(self, rng, monkeypatch):
        g = enc(gn.ConvGene(4, 3, 3, 1), gn.ConvGene(2, 3, 3, 2))
        only_remove_pool = (mu.MutationKind.RemovePool,)  # no pool to remove
        kind = gn.GENOME_KINDS[gn.ENCODER]._replace(mutations=only_remove_pool)
        monkeypatch.setitem(gn.GENOME_KINDS, gn.ENCODER, kind)
        assert mu.mutate_valid(g, (3, 32, 32), rng, "c") is mu.EXHAUSTED

    def test_deterministic_under_fixed_seed(self):
        g = enc(gn.ConvGene(8, 3, 3, 1), gn.PoolGene(2, 2))
        a = mu.mutate_valid(g, (3, 32, 32), np.random.default_rng(5), "c")
        b = mu.mutate_valid(g, (3, 32, 32), np.random.default_rng(5), "c")
        assert a == b

    def test_generation_and_parent_lineage(self, rng):
        g = clf(gn.ConvGene(8, 3, 3, 1), gid="root")
        for i in range(50):
            child, _ = mu.mutate_valid(g, (3, 16, 16), rng, f"c{i}")
            assert child.generation == g.generation + 1
            assert child.parent_id == "root"


# The four alteration kinds as `apply_mutation` drew them in three separate
# branches before they became one table; the reference the table must match.
ALTERATIONS = (
    mu.MutationKind.AlterFilterSize, mu.MutationKind.AlterPoolSize,
    mu.MutationKind.AlterStride, mu.MutationKind.AlterFilterNumber,
)


def reference_alteration(g, kind, rng, child_id):
    layers = list(g.layers)

    def pick(cls):
        indices = [i for i, gene in enumerate(layers) if type(gene) is cls]
        return indices[int(rng.integers(len(indices)))] if indices else None

    def altered(i, **changes):
        gene = dataclasses.replace(layers[i], **changes)
        try:
            gene.check()
        except gn.GenomeError:
            return None
        layers[i] = gene
        return g.with_child_fields(child_id, kind.value, layers=layers)

    resizes = {
        mu.MutationKind.AlterFilterSize: (gn.ConvGene, ("kh", "kw")),
        mu.MutationKind.AlterPoolSize: (gn.PoolGene, ("ph", "pw")),
    }
    if kind in resizes:
        cls, dims = resizes[kind]
        i = pick(cls)
        if i is None:
            return None
        dim = dims[int(rng.integers(2))]
        delta = 1 if rng.integers(2) else -1
        return altered(i, **{dim: getattr(layers[i], dim) + delta})
    if kind is mu.MutationKind.AlterStride:
        i = pick(gn.ConvGene)
        if i is None:
            return None
        delta = 1 if rng.integers(2) else -1
        return altered(i, stride=layers[i].stride + delta)
    assert kind is mu.MutationKind.AlterFilterNumber
    i = pick(gn.ConvGene)
    if i is None:
        return None
    f = layers[i].filters
    new_f = min(f * 2, gn.FILTERS_MAX) if rng.integers(2) else max(f // 2, 1)
    if new_f == f:
        return None
    return altered(i, filters=new_f)


def _bounded(rng, low, high):
    """A value in [low, high], at a bound half the time so both steps off it are drawn."""
    return int(rng.choice((low, high))) if rng.random() < 0.5 else int(rng.integers(low, high + 1))


def random_genes_genome(rng):
    """An encoder of 1-5 in-bounds genes; pool-free and conv-free ones included."""
    layers = []
    for _ in range(int(rng.integers(1, 6))):
        if rng.random() < 0.6:
            layers.append(gn.ConvGene(
                _bounded(rng, 1, gn.FILTERS_MAX), _bounded(rng, 1, gn.FILTER_DIM_MAX),
                _bounded(rng, 1, gn.FILTER_DIM_MAX), _bounded(rng, 1, gn.STRIDE_MAX)))
        else:
            layers.append(gn.PoolGene(_bounded(rng, 2, gn.POOL_MAX), _bounded(rng, 2, gn.POOL_MAX)))
    return enc(*layers)


class TestAlterationTable:
    def test_draws_what_the_separate_branches_drew(self):
        genomes = np.random.default_rng(2024)
        ours, theirs = np.random.default_rng(77), np.random.default_rng(77)
        outcomes = set()
        for n in range(10_000):
            g = random_genes_genome(genomes)
            for kind in ALTERATIONS:
                mutated = mu.apply_mutation(g, kind, ours, f"c{n}")
                expected = reference_alteration(g, kind, theirs, f"c{n}")
                assert (mutated is None) == (expected is None), (gn.serialize(g), kind)
                child = None if mutated is None else mutated[0]
                if child is not None:
                    assert gn.serialize(child) == gn.serialize(expected), (gn.serialize(g), kind)
                    assert mutated[1] == list(range(len(g.layers))), (gn.serialize(g), kind)
                assert ours.bit_generator.state == theirs.bit_generator.state, (gn.serialize(g), kind)
                outcomes.add((kind, child is None))
        # every kind was both applied and found inapplicable
        assert outcomes == {(kind, none) for kind in ALTERATIONS for none in (True, False)}
