"""The benchmark's correctness checks read EVOW blobs with their own parser
and run them with their own forward pass (`perfbench/oracle.py`). If the
program's layer kinds or the decoders it builds drift from what that
parser knows, the checks would judge networks they misread; these tests
make such a drift fail tier-1."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from evocnn import engine as eng
from evocnn import genome as gn
from evocnn.worker import build_network

from conftest import to_float64

ORACLE = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"


def load_oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = load_oracle()

# name -> (genes, input shape, kinds of the decoder built after the genes)
CAES = {
    "exact": ((gn.ConvGene(4, 3, 3, 1), gn.PoolGene(2, 2)), (3, 8, 8), ["upsample", "conv"]),
    "inexact": ((gn.ConvGene(4, 3, 3, 1), gn.PoolGene(2, 2)), (3, 7, 8), ["upsample", "crop", "conv"]),
    "strided": ((gn.ConvGene(5, 2, 3, 2), gn.PoolGene(2, 2), gn.ConvGene(3, 3, 3, 1)), (2, 8, 12),
                ["conv", "upsample", "upsample", "conv"]),
    "strided inexact": ((gn.ConvGene(5, 2, 3, 2), gn.PoolGene(2, 2), gn.ConvGene(3, 3, 3, 1)), (2, 9, 12),
                        ["conv", "upsample", "crop", "upsample", "crop", "conv"]),
    "pool first": ((gn.PoolGene(2, 2), gn.ConvGene(4, 3, 3, 1)), (3, 7, 8), ["conv", "upsample", "crop"]),
    "non-square pool": ((gn.ConvGene(4, 3, 3, 1), gn.PoolGene(2, 3)), (3, 8, 9),
                        ["upsample", "crop", "conv"]),
}


def test_tag_table_is_the_engines():
    assert oracle._TAGS == {kind.tag: name for name, kind in eng.LAYER_KINDS.items()}


@pytest.mark.parametrize("name", CAES)
def test_oracle_forward_matches_the_engine(rng, name):
    genes, shape, decoder = CAES[name]
    net = build_network(gn.Genome(name, gn.ENCODER, genes), shape, rng)
    assert [layer.kind for layer in net.layers[len(genes):]] == decoder
    blob = eng.serialize_network(net)
    x = rng.uniform(0, 1, (3, *shape))
    engine_net = eng.deserialize_network(blob)
    to_float64(*engine_net.layers)  # the oracle computes in float64
    np.testing.assert_allclose(oracle.forward(oracle.parse_evow(blob), x),
                               engine_net.forward(x), rtol=1e-12, atol=1e-12)
