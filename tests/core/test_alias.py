"""Unit tests for the alias structure (paper §3.1, Theorem 1)."""

import math
import pickle
import random

import pytest

from repro.core import kernels
from repro.core.alias import AliasSampler, alias_draw, build_alias_tables
from repro.errors import BuildError, InvalidWeightError
from repro.stats.tests import chi_square_weighted_pvalue

ALPHA = 1e-6


class TestConstruction:
    def test_empty_items_rejected(self):
        with pytest.raises(BuildError):
            AliasSampler([], [])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(BuildError):
            AliasSampler(["a", "b"], [1.0])

    def test_zero_weight_rejected(self):
        with pytest.raises(InvalidWeightError):
            AliasSampler(["a", "b"], [1.0, 0.0])

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidWeightError):
            AliasSampler(["a"], [-2.0])

    def test_nan_weight_rejected(self):
        with pytest.raises(InvalidWeightError):
            AliasSampler(["a"], [float("nan")])

    def test_infinite_weight_rejected(self):
        with pytest.raises(InvalidWeightError):
            AliasSampler(["a"], [float("inf")])

    def test_uniform_default_weights(self):
        sampler = AliasSampler(["a", "b", "c"])
        assert sampler.total_weight == pytest.approx(3.0)

    def test_len_and_items(self):
        sampler = AliasSampler(["x", "y"], [1.0, 2.0])
        assert len(sampler) == 2
        assert sampler.items == ("x", "y")

    def test_singleton(self):
        sampler = AliasSampler(["only"], [7.0])
        assert all(sampler.sample() == "only" for _ in range(10))


class TestUrnConditions:
    """The two §3.1 urn conditions, checked via the recovered table."""

    def test_probabilities_sum_to_one(self):
        weights = [0.1, 0.4, 2.0, 3.5, 0.01]
        sampler = AliasSampler(list(range(5)), weights)
        total = sum(sampler.probability(i) for i in range(5))
        assert total == pytest.approx(1.0)

    def test_per_element_mass_matches_weight(self):
        # Condition (2): each element's urn masses sum to w(e)/W.
        weights = [3.0, 1.0, 1.0, 1.0, 10.0, 0.5]
        sampler = AliasSampler(list(range(6)), weights)
        for index in range(6):
            assert sampler.probability(index) == pytest.approx(
                sampler.expected_probability(index), abs=1e-12
            )

    def test_tables_valid_urn_shape(self):
        # Every urn keeps its primary with prob in [0, 1] and aliases to a
        # valid element.
        prob, alias = build_alias_tables([5.0, 1.0, 1.0, 1.0])
        assert len(prob) == len(alias) == 4
        assert all(0.0 <= p <= 1.0 + 1e-12 for p in prob)
        assert all(0 <= a < 4 for a in alias)

    def test_equal_weights_give_full_urns(self):
        prob, _ = build_alias_tables([2.0] * 8)
        assert all(p == pytest.approx(1.0) for p in prob)


class TestSampling:
    def test_sample_in_items(self):
        sampler = AliasSampler(["a", "b", "c"], [1, 2, 3], rng=7)
        for _ in range(100):
            assert sampler.sample() in {"a", "b", "c"}

    def test_sample_many_length(self):
        sampler = AliasSampler(list(range(10)), rng=7)
        assert len(sampler.sample_many(37)) == 37

    def test_sample_many_rejects_zero(self):
        sampler = AliasSampler([1, 2])
        with pytest.raises(ValueError):
            sampler.sample_many(0)

    def test_sample_many_rejects_non_int(self):
        sampler = AliasSampler([1, 2])
        with pytest.raises(TypeError):
            sampler.sample_many(2.5)

    def test_deterministic_under_seed(self):
        a = AliasSampler(list(range(20)), rng=99).sample_many(50)
        b = AliasSampler(list(range(20)), rng=99).sample_many(50)
        assert a == b

    def test_distribution_matches_weights(self):
        weights = {0: 1.0, 1: 2.0, 2: 4.0, 3: 8.0}
        sampler = AliasSampler(list(weights), list(weights.values()), rng=5)
        samples = sampler.sample_many(40_000)
        assert chi_square_weighted_pvalue(samples, weights) > ALPHA

    def test_distribution_extreme_skew(self):
        weights = {0: 1.0, 1: 1000.0}
        sampler = AliasSampler(list(weights), list(weights.values()), rng=5)
        samples = sampler.sample_many(60_000)
        rare = samples.count(0)
        expected = 60_000 / 1001
        assert abs(rare - expected) < 6 * math.sqrt(expected) + 5

    def test_alias_draw_respects_rng(self):
        prob, alias = build_alias_tables([1.0, 1.0])
        draws = {alias_draw(prob, alias, random.Random(3)) for _ in range(1)}
        assert draws <= {0, 1}

    def test_independent_streams_differ(self):
        # Different seeds should (overwhelmingly) give different streams.
        a = AliasSampler(list(range(100)), rng=1).sample_many(20)
        b = AliasSampler(list(range(100)), rng=2).sample_many(20)
        assert a != b


class TestPickling:
    @pytest.mark.parametrize("numpy_tier", [True, False])
    def test_round_trip_gives_the_same_draws(self, numpy_tier, monkeypatch):
        # The tables are flat buffers read through memoryviews, which do
        # not pickle; the unpickled sampler binds them again.
        if not numpy_tier:
            monkeypatch.setattr(kernels, "HAVE_NUMPY", False)
        rnd = random.Random(4)
        weights = [rnd.random() + 0.01 for _ in range(200)]
        sampler = AliasSampler(list(range(200)), weights, rng=3)
        clone = pickle.loads(pickle.dumps(sampler))
        for s in (8, 400):  # the scalar loop and, on the numpy tier, the batch path
            assert clone.sample_indices(s, rng=11) == sampler.sample_indices(s, rng=11)
            assert clone.sample_many(s, rng=12) == sampler.sample_many(s, rng=12)
        assert [clone.sample() for _ in range(20)] == [sampler.sample() for _ in range(20)]
        assert clone.probability(7) == sampler.probability(7)
