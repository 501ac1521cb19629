import math

import numpy as np
import pytest

from evocnn import genome as gn
from evocnn import mutation as mu


def enc(*layers, gid="p"):
    return gn.Genome(id=gid, kind=gn.ENCODER, layers=tuple(layers))


def clf(*layers, gid="p", lr=0.01):
    return gn.Genome(id=gid, kind=gn.CLASSIFIER, layers=tuple(layers), learning_rate=lr)


class TestSampleMutation:
    def test_singleton_set(self, rng):
        assert mu.sample_mutation({mu.MutationKind.Identity}, rng) is mu.MutationKind.Identity

    def test_uniform_over_nine_kinds(self, rng):
        n = 10_000
        counts = {}
        for _ in range(n):
            k = mu.sample_mutation(mu.ENCODER_KINDS, rng)
            counts[k] = counts.get(k, 0) + 1
        p = 1 / 9
        sigma = math.sqrt(p * (1 - p) / n)
        assert len(counts) == 9
        for k, c in counts.items():
            assert abs(c / n - p) < 5 * sigma, f"{k}: {c / n}"

    def test_encoder_set_excludes_learning_rate(self):
        assert mu.MutationKind.AlterLearningRate not in mu.ENCODER_KINDS
        assert mu.MutationKind.AlterLearningRate in mu.CLASSIFIER_KINDS
        assert len(mu.ENCODER_KINDS) == 9
        assert len(mu.CLASSIFIER_KINDS) == 10

    def test_empty_set_rejected(self, rng):
        with pytest.raises(ValueError):
            mu.sample_mutation(set(), rng)


class TestApplyMutation:
    def test_identity_changes_only_lineage_fields(self, rng):
        g = enc(gn.ConvGene(8, 3, 3, 1), gn.PoolGene(2, 2))
        child = mu.apply_mutation(g, mu.MutationKind.Identity, rng, "c1")
        assert child.layers == g.layers
        assert child.learning_rate == g.learning_rate
        assert child.id == "c1"
        assert child.parent_id == g.id
        assert child.generation == g.generation + 1
        assert child.mutation_applied == "Identity"

    def test_parent_never_modified(self, rng):
        g = enc(gn.ConvGene(8, 3, 3, 1), gn.PoolGene(2, 2))
        before = g.layers
        for kind in mu.ENCODER_KINDS:
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
            child = mu.apply_mutation(
                g, mu.MutationKind.AlterStride, np.random.default_rng(seed), "c"
            )
            if child is None:
                seen.add("inapplicable")  # decrement drawn at stride 1
            else:
                assert child.layers[0].stride == 2
                seen.add("increment")
        assert seen == {"inapplicable", "increment"}

    def test_alter_filter_number_doubles_or_halves(self):
        g = enc(gn.ConvGene(8, 3, 3, 1), gn.PoolGene(2, 2))
        results = set()
        for seed in range(40):
            child = mu.apply_mutation(
                g, mu.MutationKind.AlterFilterNumber, np.random.default_rng(seed), "c"
            )
            results.add(child.layers[0].filters)
        assert results == {4, 16}

    def test_insert_conv_uses_filter_choices(self, rng):
        g = enc(gn.PoolGene(2, 2))
        child = mu.apply_mutation(g, mu.MutationKind.InsertConv, rng, "c")
        convs = [l for l in child.layers if l.kind == "conv"]
        assert len(convs) == 1
        assert convs[0].filters in mu.INSERT_FILTERS
        assert (convs[0].kh, convs[0].kw, convs[0].stride) == (3, 3, 1)

    def test_insert_pool_is_2x2(self, rng):
        g = enc(gn.ConvGene(8, 3, 3, 1))
        child = mu.apply_mutation(g, mu.MutationKind.InsertPool, rng, "c")
        pools = [l for l in child.layers if l.kind == "pool"]
        assert pools == [gn.PoolGene(2, 2)]

    def test_alter_learning_rate_doubles_or_halves(self):
        g = clf(gn.ConvGene(8, 3, 3, 1), lr=0.02)
        rates = {
            mu.apply_mutation(
                g, mu.MutationKind.AlterLearningRate, np.random.default_rng(s), "c"
            ).learning_rate
            for s in range(20)
        }
        assert rates == {0.01, 0.04}


class TestMutateValid:
    def test_boundary_remove_pool_rejected(self):
        # encoder at minimum compression: removing the pool equalizes sizes
        g = enc(gn.ConvGene(3, 3, 3, 1), gn.PoolGene(2, 2))
        for seed in range(30):
            child = mu.mutate_valid(
                g, (3, 32, 32), np.random.default_rng(seed), "c", max_tries=50
            )
            assert child is not mu.EXHAUSTED
            assert gn.validate_encoder(child, (3, 32, 32)) is None

    def test_accepted_children_always_compress(self, rng):
        g = enc(gn.ConvGene(8, 3, 3, 1), gn.PoolGene(2, 2))
        current = g
        for i in range(300):
            child = mu.mutate_valid(current, (3, 32, 32), rng, f"c{i}", max_tries=50)
            assert child is not mu.EXHAUSTED
            trace = gn.infer_shapes(child, (3, 32, 32))
            assert trace[-1][0] * trace[-1][1] * trace[-1][2] < 3 * 32 * 32
            current = child

    def test_exhausted_with_all_inapplicable_kind_set(self, rng):
        g = enc(gn.ConvGene(4, 3, 3, 1), gn.ConvGene(2, 3, 3, 2))
        out = mu.mutate_valid(
            g, (3, 32, 32), rng, "c", max_tries=1,
            kind_set={mu.MutationKind.RemovePool},  # no pool to remove
        )
        assert out is mu.EXHAUSTED

    def test_deterministic_under_fixed_seed(self):
        g = enc(gn.ConvGene(8, 3, 3, 1), gn.PoolGene(2, 2))
        a = mu.mutate_valid(g, (3, 32, 32), np.random.default_rng(5), "c")
        b = mu.mutate_valid(g, (3, 32, 32), np.random.default_rng(5), "c")
        assert a == b

    def test_generation_and_parent_lineage(self, rng):
        g = clf(gn.ConvGene(8, 3, 3, 1), gid="root")
        for i in range(50):
            child = mu.mutate_valid(g, (3, 16, 16), rng, f"c{i}")
            assert child.generation == g.generation + 1
            assert child.parent_id == "root"

    def test_max_tries_must_be_positive(self, rng):
        g = enc(gn.ConvGene(8, 3, 3, 1), gn.PoolGene(2, 2))
        with pytest.raises(ValueError):
            mu.mutate_valid(g, (3, 32, 32), rng, "c", max_tries=0)
