import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evocnn.selection import (
    FitnessRecord,
    isolation,
    pareto_fronts,
    tournament_compare,
)

from conftest import dominates, pareto_fronts_oracle

# a few grid values force ties and duplicates; any finite float covers the rest
objectives = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(
    -1e6, 1e6, allow_nan=False, allow_infinity=False
)


class TestParetoFronts:
    def test_single_element(self):
        assert pareto_fronts([(0.5, 0.5)]) == [[0]]

    def test_chain_gives_singleton_fronts(self):
        fronts = pareto_fronts([(0.9, 0.9), (0.5, 0.5), (0.1, 0.1)])
        assert fronts == [[0], [1], [2]]

    def test_partition_property(self, rng):
        pairs = [tuple(rng.random(2)) for _ in range(40)]
        fronts = pareto_fronts(pairs)
        flat = sorted(i for front in fronts for i in front)
        assert flat == list(range(40))

    def test_matches_brute_force_oracle(self, rng):
        # fronts and the order inside each front, which isolation sums follow
        for _ in range(50):
            n = int(rng.integers(1, 65))
            pairs = [tuple(rng.integers(0, 6, 2) / 5) for _ in range(n)]
            assert pareto_fronts(pairs) == pareto_fronts_oracle(pairs)

    @given(st.lists(st.tuples(objectives, objectives), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle_property(self, pairs):
        assert pareto_fronts(pairs) == pareto_fronts_oracle(pairs)

    @given(st.lists(objectives, min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_one_objective_ranks_by_value(self, values):
        # the distinct values in descending order, equal values sharing a front
        fronts = pareto_fronts([(v,) for v in values])
        assert [values[front[0]] for front in fronts] == sorted(set(values), reverse=True)
        for front in fronts:
            assert front == sorted(front)
            assert all(values[i] == values[front[0]] for i in front)
        assert sorted(i for front in fronts for i in front) == list(range(len(values)))

    def test_rank_invariant_under_monotone_rescale(self, rng):
        pairs = [tuple(rng.random(2)) for _ in range(30)]
        rescaled = [(math.sqrt(c), a ** 3) for c, a in pairs]
        assert [sorted(f) for f in pareto_fronts(pairs)] == [
            sorted(f) for f in pareto_fronts(rescaled)
        ]


class TestIsolation:
    def test_singleton_front_is_infinite(self):
        assert isolation((0.5, 0.5), [(0.5, 0.5)]) == math.inf

    def test_extreme_point_scores_highest(self):
        front = [(0.2, 0.8), (0.4, 0.6), (0.9, 0.1)]
        scores = [isolation(p, front) for p in front]
        expected = (math.dist((0.9, 0.1), (0.2, 0.8)) + math.dist((0.9, 0.1), (0.4, 0.6))) / 2
        assert scores[2] == pytest.approx(expected)
        assert scores[2] == max(scores)

    def test_two_member_front_is_symmetric(self):
        front = [(0.3, 0.7), (0.6, 0.2)]
        assert isolation(front[0], front) == pytest.approx(isolation(front[1], front))

    def test_non_member_rejected(self):
        with pytest.raises(ValueError):
            isolation((0.9, 0.9), [(0.1, 0.1)])


def scalar_pop(**kv):
    return {k: FitnessRecord((v,)) for k, v in kv.items()}


def pair_pop(**kv):
    return {k: FitnessRecord(v) for k, v in kv.items()}


def scalar_rule(id_a, id_b, records, rng):
    """The classifier tournament as a rule of its own: the higher value
    wins, and a tie is a coin."""
    (a,), (b,) = records[id_a].values, records[id_b].values
    if a == b:
        return (id_a, id_b, "coin") if rng.integers(2) else (id_b, id_a, "coin")
    return (id_a, id_b, "scalar") if a > b else (id_b, id_a, "scalar")


class TestTournamentCompare:
    def test_higher_scalar_wins(self, rng):
        records = scalar_pop(a=0.75, b=0.60)
        assert tournament_compare("a", "b", records, rng) == ("a", "b", "scalar")

    def test_dominating_front_wins(self, rng):
        records = pair_pop(
            a=(0.9, 0.9),     # front 0
            b=(0.1, 0.1),     # dominated twice -> front 2
            mid=(0.5, 0.5),   # front 1
        )
        winner, loser, reason = tournament_compare("a", "b", records, rng)
        assert (winner, loser, reason) == ("a", "b", "front")

    def test_same_front_isolation_wins(self, rng):
        records = pair_pop(
            a=(0.2, 0.8), b=(0.4, 0.6), far=(0.9, 0.1),
        )
        winner, loser, reason = tournament_compare("far", "b", records, rng)
        assert winner == "far" and reason == "isolation"

    def test_exact_tie_coin_flip_is_seeded(self):
        records = scalar_pop(a=0.5, b=0.5)
        outcomes = {
            tournament_compare("a", "b", records, np.random.default_rng(s))[0]
            for s in range(20)
        }
        assert outcomes == {"a", "b"}
        first = tournament_compare("a", "b", records, np.random.default_rng(3))
        again = tournament_compare("a", "b", records, np.random.default_rng(3))
        assert first == again
        assert first[2] == "coin"

    def test_antisymmetry(self, rng):
        # non-tied contests: swapping the arguments swaps winner and loser
        records = pair_pop(a=(0.3, 0.6), b=(0.7, 0.2), c=(0.1, 0.9), d=(0.5, 0.5))
        for x, y in (("a", "d"), ("c", "d"), ("a", "b")):
            w1, l1, r1 = tournament_compare(x, y, records, np.random.default_rng(0))
            w2, l2, r2 = tournament_compare(y, x, records, np.random.default_rng(0))
            if r1 != "coin":
                assert (w1, l1) == (w2, l2)
                assert r1 == r2

    def test_winner_never_dominated_by_loser(self, rng):
        for _ in range(200):
            vals = {f"i{k}": tuple(rng.random(2)) for k in range(6)}
            records = pair_pop(**vals)
            ids = sorted(records)
            a, b = ids[int(rng.integers(6))], ids[int(rng.integers(6))]
            if a == b:
                continue
            winner, loser, _ = tournament_compare(a, b, records, rng)
            assert not dominates(records[loser].pair, records[winner].pair)

    @given(
        values=st.lists(st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0]), min_size=2, max_size=12),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_one_objective_is_the_scalar_rule(self, values, data, seed):
        # the Pareto rule on one objective picks the same winner, gives the
        # same reason and draws the same coin as ranking by value
        records = scalar_pop(**{f"i{k}": v for k, v in enumerate(values)})
        a, b = data.draw(st.permutations(sorted(records)))[:2]
        pareto_rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert tournament_compare(a, b, records, pareto_rng) == scalar_rule(a, b, records, scalar_rng)
        assert pareto_rng.bit_generator.state == scalar_rng.bit_generator.state

    def test_record_holds_one_or_two_values(self):
        with pytest.raises(ValueError):
            FitnessRecord(())
        with pytest.raises(ValueError):
            FitnessRecord((0.5, 0.5, 0.5))
        assert FitnessRecord((0.5,)).values == (0.5,)
        assert FitnessRecord((0.5, 0.25)).pair == (0.5, 0.25)
