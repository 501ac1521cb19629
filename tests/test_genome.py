import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evocnn import engine as eng
from evocnn import genome as gn
from evocnn import mutation as mu
from evocnn.worker import build_network


def enc(*layers, gid="e", lr=0.01, parent=None, gen=0, mut="Seed"):
    return gn.Genome(id=gid, kind=gn.ENCODER, layers=tuple(layers),
                     learning_rate=lr, parent_id=parent, generation=gen,
                     mutation_applied=mut)


# -- hypothesis strategies ---------------------------------------------------

conv_genes = st.builds(
    gn.ConvGene,
    filters=st.integers(1, 32),
    kh=st.integers(1, gn.FILTER_DIM_MAX),
    kw=st.integers(1, gn.FILTER_DIM_MAX),
    stride=st.integers(1, gn.STRIDE_MAX),
)
pool_genes = st.builds(
    gn.PoolGene, ph=st.integers(2, gn.POOL_MAX), pw=st.integers(2, gn.POOL_MAX)
)
gene_lists = st.lists(st.one_of(conv_genes, pool_genes), min_size=1, max_size=6)

@st.composite
def genomes(draw):
    kind = draw(st.sampled_from([gn.ENCODER, gn.CLASSIFIER]))
    return gn.Genome(
        id=draw(st.text("abcdef0123456789-", min_size=1, max_size=12)),
        kind=kind,
        layers=tuple(draw(gene_lists)),
        learning_rate=draw(st.floats(1e-5, 1.0, allow_nan=False)),
        parent_id=draw(st.none() | st.text("abc123", min_size=1, max_size=8)),
        generation=draw(st.integers(0, 10_000)),
        mutation_applied=draw(st.sampled_from(["Seed", "Identity", "InsertConv"])),
    )


# Tokens that break genome text: non-finite, signed, underscored, hex and
# out-of-range numbers, an unknown tag, a gene tag in the header's place.
BAD_TOKENS = ["nan", "inf", "-inf", "-1", "+2", "1_0", "0x3", "0", "1.5", "257", "x", "DENSE", "POOL"]


@st.composite
def genome_texts(draw):
    """A serialized genome with up to three tokens replaced, dropped or
    added (which also gives wrong field counts), or any text at all."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(max_size=60))
    rows = [line.split() for line in gn.serialize(draw(genomes())).splitlines()]
    for _ in range(draw(st.integers(0, 3))):
        tokens = rows[draw(st.integers(0, len(rows) - 1))]
        pos = draw(st.integers(0, len(tokens)))
        edit = draw(st.sampled_from(["replace", "drop", "add"]))
        if edit == "add":
            tokens.insert(pos, draw(st.sampled_from(BAD_TOKENS)))
        elif pos < len(tokens):
            if edit == "replace":
                tokens[pos] = draw(st.sampled_from(BAD_TOKENS))
            else:
                del tokens[pos]
    return "\n".join(" ".join(tokens) for tokens in rows) + "\n"


def random_valid_encoder(rng, input_shape=(3, 32, 32), max_layers=5):
    while True:
        n = int(rng.integers(1, max_layers + 1))
        layers = []
        for _ in range(n):
            if rng.random() < 0.6:
                layers.append(
                    gn.ConvGene(
                        int(rng.integers(1, 33)),
                        int(rng.integers(1, 10)),
                        int(rng.integers(1, 10)),
                        int(rng.integers(1, 5)),
                    )
                )
            else:
                layers.append(gn.PoolGene(int(rng.integers(2, 5)), int(rng.integers(2, 5))))
        g = enc(*layers)
        if gn.validate(g, input_shape) is None:
            return g


class TestInferShapes:
    def test_seed_conv_same_padding(self):
        g = enc(gn.ConvGene(8, 3, 3, 1))
        trace = gn.infer_shapes(g, (3, 32, 32))
        assert trace[-1] == (8, 32, 32)

    def test_conv_pool_ceil_division(self):
        g = enc(gn.ConvGene(8, 3, 3, 1), gn.PoolGene(2, 2))
        assert gn.infer_shapes(g, (3, 32, 32))[-1] == (8, 16, 16)

    def test_strided_conv_then_pool(self):
        g = enc(gn.ConvGene(4, 3, 3, 2), gn.PoolGene(2, 2))
        trace = gn.infer_shapes(g, (3, 5, 5))
        assert trace[1] == (4, 3, 3)
        assert trace[2] == (4, 2, 2)

    def test_degenerate_shape_names_layer(self):
        g = enc(gn.PoolGene(4, 4), gn.PoolGene(4, 4), gn.PoolGene(4, 4))
        with pytest.raises(gn.ShapeInferenceError):
            gn.infer_shapes(g, (3, 4, 4))


class TestCompressionRatio:
    def test_two_thirds_reduction(self):
        # 3072-element input down to 1024 encoded elements
        g = enc(gn.ConvGene(4, 3, 3, 1), gn.PoolGene(2, 2))
        ratio = gn.compression_ratio(g, (3, 32, 32))
        assert ratio == pytest.approx(1 - 1024 / 3072)
        assert abs(ratio - 2 / 3) < 1e-9

    def test_identity_size_is_zero(self):
        g = enc(gn.ConvGene(3, 3, 3, 1))
        assert gn.compression_ratio(g, (3, 32, 32)) == 0.0

    def test_single_value_approaches_one(self):
        g = enc(
            gn.ConvGene(1, 3, 3, 1),
            gn.PoolGene(4, 4), gn.PoolGene(4, 4), gn.PoolGene(2, 2),
        )
        trace = gn.infer_shapes(g, (3, 32, 32))
        assert trace[-1] == (1, 1, 1)
        assert gn.compression_ratio(g, (3, 32, 32)) == pytest.approx(1 - 1 / 3072)


class TestValidateEncoder:
    def test_equal_size_is_violation(self):
        g = enc(gn.ConvGene(3, 3, 3, 1))
        assert gn.validate(g, (3, 32, 32)) is not None

    def test_compressing_encoder_ok(self):
        g = enc(gn.ConvGene(3, 3, 3, 1), gn.PoolGene(2, 2))
        assert gn.validate(g, (3, 32, 32)) is None

    def test_degenerate_shape_is_violation_not_crash(self):
        g = enc(gn.PoolGene(4, 4), gn.PoolGene(4, 4))
        assert gn.validate(g, (3, 4, 4)) is not None

    def test_valid_implies_compression_in_unit_interval(self, rng):
        for _ in range(200):
            g = random_valid_encoder(rng)
            assert 0.0 < gn.compression_ratio(g, (3, 32, 32)) < 1.0


class TestValidateClassifier:
    def test_no_compression_needed(self):
        g = gn.Genome("c", gn.CLASSIFIER, (gn.ConvGene(3, 3, 3, 1),))
        assert gn.validate(g, (3, 32, 32)) is None

    def test_degenerate_shape_is_violation(self):
        g = gn.Genome("c", gn.CLASSIFIER, (gn.PoolGene(4, 4), gn.PoolGene(4, 4)))
        assert "exceeds" in gn.validate(g, (3, 4, 4))

    def test_out_of_bounds_gene_is_violation(self):
        g = gn.Genome("c", gn.CLASSIFIER, (gn.ConvGene(3, 3, 3, gn.STRIDE_MAX + 1),))
        assert "stride" in gn.validate(g, (3, 32, 32))


class TestDeriveDecoder:
    def test_pool_mirrors_to_upsample(self):
        g = enc(gn.ConvGene(8, 3, 3, 1), gn.PoolGene(2, 2))
        specs = gn.derive_decoder(g, (3, 32, 32))
        kinds = [s["kind"] for s in specs]
        assert kinds == ["upsample", "conv"]  # 2 x 16 is 32: nothing to crop
        assert specs[0]["factor"] == 2
        conv = specs[1]
        assert conv["filters"] == 3 and conv["stride"] == 1
        assert conv["activation"] == "sigmoid"
        specs = gn.derive_decoder(g, (3, 31, 32))  # 2 x 16 overshoots 31
        assert [s["kind"] for s in specs] == ["upsample", "crop", "conv"]
        assert (specs[1]["target_h"], specs[1]["target_w"]) == (31, 32)

    def test_stride_mirrors_to_upsample(self):
        g = enc(gn.ConvGene(8, 3, 3, 2), gn.PoolGene(2, 2))
        specs = gn.derive_decoder(g, (3, 32, 32))
        kinds = [s["kind"] for s in specs]
        assert kinds == ["upsample", "upsample", "conv"]
        assert specs[1]["factor"] == 2  # the mirrored stride
        # 30 -> 15 -> 8: the pool's mirror overshoots 15, the stride's does not
        specs = gn.derive_decoder(g, (3, 30, 30))
        assert [s["kind"] for s in specs] == ["upsample", "crop", "upsample", "conv"]
        assert (specs[1]["target_h"], specs[1]["target_w"]) == (15, 15)

    def _decoder_output_shape(self, g, input_shape):
        c, h, w = gn.infer_shapes(g, input_shape)[-1]
        for spec in gn.derive_decoder(g, input_shape):
            if spec["kind"] == "upsample":
                h, w = h * spec["factor"], w * spec["factor"]
            elif spec["kind"] == "crop":
                assert (spec["target_h"], spec["target_w"]) != (h, w)  # every crop cuts
                h, w = spec["target_h"], spec["target_w"]
            else:
                c = spec["filters"]
        return c, h, w

    def test_round_trip_property_over_random_genomes(self, rng):
        for _ in range(300):
            shape = (int(rng.integers(1, 4)), int(rng.integers(6, 33)), int(rng.integers(6, 33)))
            g = random_valid_encoder(rng, shape)
            assert self._decoder_output_shape(g, shape) == shape


def _three_branch_mapping(parent, child):
    """Reference gene mapping: one branch each for an equal count, an
    insertion and a removal, trying every edit position from the first."""
    p, c = parent.layers, child.layers
    if len(c) == len(p):
        if sum(a != b for a, b in zip(p, c)) > 1:
            raise ValueError("more than one gene differs")
        return list(range(len(p)))
    if len(c) == len(p) + 1:
        for pos in range(len(c)):
            if list(c[:pos]) == list(p[:pos]) and list(c[pos + 1:]) == list(p[pos:]):
                return list(range(pos)) + [None] + list(range(pos, len(p)))
        raise ValueError("not one insertion")
    if len(c) == len(p) - 1:
        for pos in range(len(p)):
            if list(c[:pos]) == list(p[:pos]) and list(c[pos:]) == list(p[pos + 1:]):
                return list(range(pos)) + list(range(pos + 1, len(p)))
        raise ValueError("not one removal")
    raise ValueError("counts differ by more than one")


def _drawn_position(parent, kind, rng):
    """Where an insertion or removal draws its edit, replaying its draws;
    None for other kinds and inapplicable removals."""
    if kind in (mu.MutationKind.InsertConv, mu.MutationKind.InsertPool):
        if kind is mu.MutationKind.InsertConv:
            rng.integers(len(mu.INSERT_FILTERS))
        return int(rng.integers(len(parent.layers) + 1))
    cls = {mu.MutationKind.RemoveConv: gn.ConvGene, mu.MutationKind.RemovePool: gn.PoolGene}.get(kind)
    indices = [i for i, gene in enumerate(parent.layers) if type(gene) is cls]
    if cls is None or len(parent.layers) == 1 or not indices:
        return None
    return indices[int(rng.integers(len(indices)))]


class TestLayerMapping:
    def test_matches_the_three_branch_mapping(self):
        # every parent of 1-4 genes over genes that InsertConv and InsertPool
        # make, plus a strided conv, so equal neighbours occur throughout
        alphabet = (gn.ConvGene(8, 3, 3, 1), gn.ConvGene(16, 3, 3, 1), gn.ConvGene(8, 3, 3, 2),
                    gn.PoolGene(2, 2))
        applied, moved = set(), {"insertion": 0, "removal": 0}
        for n_parent in range(1, 5):
            for p in itertools.product(alphabet, repeat=n_parent):
                parent = enc(*p, gid="p")
                for kind, seed in itertools.product(mu.MutationKind, range(12)):
                    drawn = _drawn_position(parent, kind, np.random.default_rng(seed))
                    mutated = mu.apply_mutation(parent, kind, np.random.default_rng(seed), "c")
                    if mutated is None:
                        continue
                    child, genes_from = mutated
                    assert genes_from == _three_branch_mapping(parent, child), (p, kind, seed)
                    applied.add(kind)
                    if drawn is None:
                        continue
                    if len(child.layers) > len(p):
                        moved["insertion"] += genes_from.index(None) != drawn
                    else:
                        moved["removal"] += drawn in genes_from
        assert applied == set(mu.MutationKind)
        # equal neighbours moved some drawn edits to the lowest equal position
        assert moved["insertion"] > 0 and moved["removal"] > 0, moved


SHAPE = (3, 16, 16)


def _inherit(parent, child, genes_from, rng, n_classes=10):
    """(parent network, child network after inheritance, the child's
    arrays as built, before inheritance)."""
    parent_net = build_network(parent, SHAPE, rng, n_classes)
    net = build_network(child, SHAPE, rng, n_classes)
    built = [[a.copy() for a in layer.params()] for layer in net.layers]
    gn.inherit_weights(net, child, parent, parent_net, genes_from, SHAPE, n_classes, rng)
    return parent_net, net, built


def _assert_arrays_equal(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        np.testing.assert_array_equal(a, b)


class TestInheritWeights:
    def test_identity_is_bit_identical(self, rng):
        parent = enc(gn.ConvGene(8, 3, 3, 1), gn.PoolGene(2, 2), gid="p")
        child = parent.with_child_fields("c", "Identity")
        parent_net, net, _ = _inherit(parent, child, [0, 1], rng)
        for layer, parent_layer in zip(net.layers, parent_net.layers, strict=True):
            _assert_arrays_equal(layer.params(), parent_layer.params())
        assert net.layers[1].params() == ()

    def test_filter_resize_copies_overlap(self, rng):
        parent = enc(gn.ConvGene(8, 3, 3, 1), gn.PoolGene(2, 2), gid="p")
        child = parent.with_child_fields(
            "c", "AlterFilterNumber",
            layers=(gn.ConvGene(16, 3, 3, 1), gn.PoolGene(2, 2)),
        )
        parent_net, net, _ = _inherit(parent, child, [0, 1], rng)
        conv, parent_conv = net.layers[0], parent_net.layers[0]
        np.testing.assert_array_equal(conv.w[:8], parent_conv.w)
        np.testing.assert_array_equal(conv.b[:8], parent_conv.b)
        assert conv.w.shape == (16, 3, 3, 3)
        # the new filters are a fresh init, not zeros
        assert conv.w[8:].any()

    def test_removal_keeps_other_layers_verbatim(self, rng):
        parent = enc(
            gn.ConvGene(8, 3, 3, 1), gn.ConvGene(8, 5, 5, 1), gn.PoolGene(2, 2), gid="p"
        )
        child = parent.with_child_fields(
            "c", "RemoveConv", layers=(gn.ConvGene(8, 3, 3, 1), gn.PoolGene(2, 2))
        )
        parent_net, net, _ = _inherit(parent, child, [0, 2], rng)
        _assert_arrays_equal(net.layers[0].params(), parent_net.layers[0].params())

    def test_inserted_layer_is_fresh(self, rng):
        parent = enc(gn.ConvGene(8, 3, 3, 1), gn.PoolGene(2, 2), gid="p")
        child = parent.with_child_fields(
            "c", "InsertConv",
            layers=(gn.ConvGene(8, 3, 3, 1), gn.ConvGene(4, 3, 3, 1), gn.PoolGene(2, 2)),
        )
        parent_net, net, built = _inherit(parent, child, [0, None, 1], rng)
        _assert_arrays_equal(net.layers[0].params(), parent_net.layers[0].params())
        # the build's init of the inserted conv is kept
        _assert_arrays_equal(net.layers[1].params(), built[1])

    def test_parent_network_off_its_genome_raises(self, rng):
        # an exact mirror's no-op crop, as populations stored before the
        # decoder plan was fixed at build time hold it: the decoder conv
        # would silently keep the build's init
        parent = enc(gn.ConvGene(8, 3, 3, 1), gn.PoolGene(2, 2), gid="p")
        layers = build_network(parent, SHAPE, rng).layers
        parent_net = eng.Network(layers[:3] + (eng.CropLayer(*SHAPE[1:]),) + layers[3:])
        child = parent.with_child_fields("c", "Identity")
        net = build_network(child, SHAPE, rng)
        with pytest.raises(ValueError):
            gn.inherit_weights(net, child, parent, parent_net, [0, 1], SHAPE, 10, rng)


class TestInheritedLayerRoles:
    """What each kind of built layer takes from the parent network."""

    @pytest.mark.parametrize("kind", [gn.ENCODER, gn.CLASSIFIER])
    @pytest.mark.parametrize("mutation", ["Identity", "AlterLearningRate"])
    def test_unchanged_genes_reproduce_the_parent_output(self, rng, kind, mutation):
        parent = gn.Genome("p", kind, (gn.ConvGene(4, 3, 3, 2), gn.PoolGene(2, 2),
                                       gn.ConvGene(3, 3, 3, 1)))
        lr = 0.02 if mutation == "AlterLearningRate" else None
        child = parent.with_child_fields("c", mutation, learning_rate=lr)
        # the parent as a worker reads it back from the store
        parent_net = eng.deserialize_network(
            eng.serialize_network(build_network(parent, SHAPE, rng, 3)))
        net = build_network(child, SHAPE, rng, 3)
        gn.inherit_weights(net, child, parent, parent_net, [0, 1, 2], SHAPE, 3, rng)
        x = rng.random((5, *SHAPE))
        assert net.forward(x).tobytes() == parent_net.forward(x).tobytes()

    @pytest.mark.parametrize("layers", [
        (gn.ConvGene(8, 3, 3, 2), gn.ConvGene(4, 3, 3, 1), gn.PoolGene(2, 2)),  # inserted
        (gn.ConvGene(8, 3, 3, 2),),                                              # removed
        (gn.ConvGene(8, 5, 5, 2), gn.PoolGene(2, 2)),                            # altered
    ])
    def test_changed_encoder_keeps_the_built_decoder(self, rng, layers):
        parent = enc(gn.ConvGene(8, 3, 3, 2), gn.PoolGene(2, 2), gid="p")
        child = parent.with_child_fields("c", "Edit", layers=layers)
        genes_from = _three_branch_mapping(parent, child)
        parent_net, net, built = _inherit(parent, child, genes_from, rng)
        decoder = [s["source"][0] == "mirror" for s in gn.network_specs(child, SHAPE)]
        assert any(decoder)
        for layer, fresh, is_decoder in zip(net.layers, built, decoder, strict=True):
            if is_decoder:
                _assert_arrays_equal(layer.params(), fresh)
        # the first gene's conv still inherits
        np.testing.assert_array_equal(net.layers[0].w[:, :, :3, :3], parent_net.layers[0].w)

    def test_same_shape_head_holds_the_parent_arrays(self, rng):
        parent = gn.Genome("p", gn.CLASSIFIER, (gn.ConvGene(8, 3, 3, 1),))
        # a larger kernel keeps the conv's output shape, so the head's too
        child = parent.with_child_fields("c", "AlterFilterSize", layers=(gn.ConvGene(8, 5, 5, 1),))
        parent_net, net, built = _inherit(parent, child, [0], rng, n_classes=4)
        assert net.layers[-1].kind == "dense"
        _assert_arrays_equal(net.layers[-1].params(), parent_net.layers[-1].params())
        assert not np.array_equal(net.layers[-1].w, built[-1][0])

    def test_reshaped_head_keeps_the_built_init(self, rng):
        parent = gn.Genome("p", gn.CLASSIFIER, (gn.ConvGene(8, 3, 3, 1),))
        child = parent.with_child_fields("c", "AlterFilterNumber", layers=(gn.ConvGene(16, 3, 3, 1),))
        parent_net, net, built = _inherit(parent, child, [0], rng, n_classes=4)
        assert net.layers[-1].w.shape != parent_net.layers[-1].w.shape
        _assert_arrays_equal(net.layers[-1].params(), built[-1])


class TestSerialization:
    @given(genomes())
    @settings(max_examples=200, deadline=None)
    def test_round_trip_identity(self, g):
        assert gn.deserialize(gn.serialize(g)) == g

    def test_truncated_file_is_parse_error(self):
        g = gn.seed_genome(gn.ENCODER, "x")
        text = gn.serialize(g)
        with pytest.raises(gn.GenomeParseError):
            gn.deserialize(text.splitlines()[0] + "\n")  # header only

    def test_unsupported_version(self):
        g = gn.seed_genome(gn.ENCODER, "x")
        text = gn.serialize(g).replace("GENOME v1", "GENOME v9")
        with pytest.raises(gn.GenomeParseError, match="version"):
            gn.deserialize(text)

    @given(genome_texts())
    @example("GENOME v1 Encoder x - 0 nan Seed\nCONV 8 3 3 1\n")
    @example("GENOME v1 Encoder x - -1 0.01 Seed\nCONV 8 3 3 1\n")
    @example("GENOME v1 Encoder x - 1_0 0.01 Seed\nCONV 1_0 3 3 1\n")
    @example("GENOME v1 Encoder x - 0 0.01 Seed\nCONV \u0668 3 3 +1\n")
    @example("GENOME v1 Encoder x - 0 0.01 Seed\nCONV 08 3 3 1\n")
    @example("GENOME v1 Encoder x - 0 0.01 Seed\nDENSE 8 3\n")
    @example("GENOME v1 Encoder x - 0 0.01 Seed\nCONV 8 3 3\nPOOL 2 2 2\n")
    @settings(max_examples=500, deadline=None)
    def test_arbitrary_lines_round_trip_or_raise(self, text):
        try:
            g = gn.deserialize(text)
        except gn.GenomeError:
            return
        # only the spelling serialize writes parses: the gene lines come back token for token
        genes = [line.split() for line in text.splitlines()[1:] if line.strip()]
        assert genes == [line.split() for line in gn.serialize(g).splitlines()[1:]]
        assert gn.deserialize(gn.serialize(g)) == g
        assert gn.serialize(gn.deserialize(gn.serialize(g))) == gn.serialize(g)

    @pytest.mark.parametrize(
        "field, value",
        [("lr", "nan"), ("lr", "inf"), ("lr", "-inf"), ("lr", "0"), ("lr", "-0.5"),
         # spellings float() reads but serialize never writes
         ("lr", "0.0_1"), ("lr", "\u0660.\u0665"), ("lr", "1e-2"), ("lr", ".01"), ("lr", "+0.01"),
         ("generation", "-1")],
    )
    def test_bad_header_value_rejected(self, field, value):
        head = ["GENOME", "v1", "Encoder", "x", "-", "0", "0.01", "Seed"]
        head[{"generation": 5, "lr": 6}[field]] = value
        with pytest.raises(gn.GenomeError):
            gn.deserialize(" ".join(head) + "\nCONV 8 3 3 1\nPOOL 2 2\n")

    def test_garbage_line_reports_offset(self):
        text = "GENOME v1 Encoder x - 0 0.01 Seed\nCONV 8 3 3 1\nBANANA 1\n"
        with pytest.raises(gn.GenomeParseError, match="line 3"):
            gn.deserialize(text)
