"""Unit tests for the treap-based dynamic range sampler (§4.3, Dir. 1)."""

import random

import pytest

from repro.core.dynamic_range import DynamicRangeSampler
from repro.errors import BuildError, EmptyQueryError, InvalidWeightError
from repro.stats.tests import chi_square_weighted_pvalue

ALPHA = 1e-6


def build(keys, weights=None, rng=1):
    sampler = DynamicRangeSampler(rng=rng)
    for index, key in enumerate(keys):
        sampler.insert(key, 1.0 if weights is None else weights[index])
    return sampler


class TestUpdates:
    def test_insert_and_contains(self):
        sampler = build([3.0, 1.0, 2.0])
        assert 2.0 in sampler
        assert 5.0 not in sampler
        assert len(sampler) == 3

    def test_in_order_is_sorted(self):
        keys = random.Random(1).sample(range(1000), 200)
        sampler = build([float(k) for k in keys])
        assert sampler.keys_in_order() == sorted(float(k) for k in keys)

    def test_duplicate_insert_rejected(self):
        sampler = build([1.0])
        with pytest.raises(BuildError):
            sampler.insert(1.0)

    def test_nan_key_rejected(self):
        # A NaN key compares false with every key, so no search finds it
        # again: ranges it lies outside counted and drew it, and it could
        # never be deleted.
        sampler = build([1.0, 2.0])
        state = sampler._rng.getstate()
        with pytest.raises(BuildError):
            sampler.insert(float("nan"))
        assert sampler._rng.getstate() == state
        assert len(sampler) == 2
        assert sampler.keys_in_order() == [1.0, 2.0]
        assert sampler.count(0.0, 100.0) == 2

    def test_bad_weight_rejected(self):
        sampler = DynamicRangeSampler(rng=1)
        with pytest.raises(InvalidWeightError):
            sampler.insert(1.0, 0.0)
        sampler.insert(1.0, 1.0)
        with pytest.raises(InvalidWeightError):
            sampler.update_weight(1.0, -1.0)

    def test_delete(self):
        sampler = build([1.0, 2.0, 3.0])
        sampler.delete(2.0)
        assert 2.0 not in sampler
        assert len(sampler) == 2
        assert sampler.keys_in_order() == [1.0, 3.0]

    def test_delete_missing_raises_and_preserves(self):
        sampler = build([1.0, 2.0])
        with pytest.raises(KeyError):
            sampler.delete(9.0)
        assert sampler.keys_in_order() == [1.0, 2.0]

    def test_update_weight(self):
        sampler = build([1.0, 2.0], weights=[1.0, 1.0])
        sampler.update_weight(2.0, 5.0)
        assert sampler.weight_of(2.0) == 5.0
        assert sampler.total_weight == pytest.approx(6.0)

    def test_update_missing_raises(self):
        sampler = build([1.0])
        with pytest.raises(KeyError):
            sampler.update_weight(2.0, 1.0)

    def test_total_weight_tracks_churn(self):
        sampler = DynamicRangeSampler(rng=2)
        rng = random.Random(3)
        reference = {}
        for step in range(300):
            if not reference or rng.random() < 0.6:
                key = float(rng.randrange(10_000))
                if key not in reference:
                    weight = 1.0 + rng.random() * 9
                    sampler.insert(key, weight)
                    reference[key] = weight
            else:
                key = rng.choice(list(reference))
                sampler.delete(key)
                del reference[key]
        assert len(sampler) == len(reference)
        assert sampler.total_weight == pytest.approx(sum(reference.values()))


class TestQueries:
    def test_count_matches_reference(self):
        keys = sorted(random.Random(4).sample(range(500), 120))
        sampler = build([float(k) for k in keys])
        for x, y in [(0, 499), (100, 300), (250, 250), (600, 700)]:
            expected = sum(1 for k in keys if x <= k <= y)
            assert sampler.count(float(x), float(y)) == expected

    def test_empty_range_raises(self):
        sampler = build([1.0, 2.0])
        with pytest.raises(EmptyQueryError):
            sampler.sample(5.0, 6.0, 1)

    def test_samples_in_range(self):
        keys = [float(k) for k in range(100)]
        sampler = build(keys, rng=5)
        out = sampler.sample(20.0, 70.0, 200)
        assert all(20.0 <= value <= 70.0 for value in out)

    def test_uniform_distribution(self):
        keys = [float(k) for k in range(12)]
        sampler = build(keys, rng=6)
        samples = sampler.sample(2.0, 9.0, 30_000)
        target = {float(k): 1.0 for k in range(2, 10)}
        assert chi_square_weighted_pvalue(samples, target) > ALPHA

    def test_weighted_distribution(self):
        keys = [float(k) for k in range(8)]
        weights = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        sampler = build(keys, weights, rng=7)
        samples = sampler.sample(1.0, 6.0, 30_000)
        target = {float(k): weights[k] for k in range(1, 7)}
        assert chi_square_weighted_pvalue(samples, target) > ALPHA

    def test_distribution_after_updates(self):
        sampler = build([float(k) for k in range(6)], rng=8)
        sampler.delete(3.0)
        sampler.insert(3.5, 4.0)
        sampler.update_weight(2.0, 2.0)
        samples = sampler.sample(1.0, 4.0, 30_000)
        target = {1.0: 1.0, 2.0: 2.0, 3.5: 4.0, 4.0: 1.0}
        assert chi_square_weighted_pvalue(samples, target) > ALPHA

    def test_single_key_range(self):
        sampler = build([float(k) for k in range(10)], rng=9)
        assert sampler.sample(4.0, 4.0, 5) == [4.0] * 5

    def test_range_weight(self):
        sampler = build([1.0, 2.0, 3.0], weights=[2.0, 3.0, 4.0])
        assert sampler.range_weight(1.5, 3.5) == pytest.approx(7.0)

    def test_repeated_queries_independent(self):
        sampler = build([float(k) for k in range(50)], rng=10)
        outputs = {tuple(sampler.sample(0.0, 49.0, 3)) for _ in range(20)}
        assert len(outputs) > 15


class TestBalance:
    def test_expected_logarithmic_depth(self):
        sampler = DynamicRangeSampler(rng=11)
        n = 4096
        for key in range(n):  # adversarial sorted insertion order
            sampler.insert(float(key))

        def depth(node):
            if node is None:
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        import sys

        sys.setrecursionlimit(10_000)
        assert depth(sampler._root) < 5 * 12  # ~4.3·log2(n) whp for treaps
