"""Unit tests for WoR range sampling on the IQS structures (§1 schemes)."""

from collections import Counter

import pytest

from repro.core.naive import NaiveRangeSampler
from repro.core.range_sampler import (
    AliasAugmentedRangeSampler,
    ChunkedRangeSampler,
    TreeWalkRangeSampler,
)
from repro.engine import QueryRequest, SamplingEngine
from repro.engine.shard import ShardedSampler
from repro.errors import EmptyQueryError, SampleBudgetExceededError

ALL_SAMPLERS = [
    TreeWalkRangeSampler,
    AliasAugmentedRangeSampler,
    ChunkedRangeSampler,
    NaiveRangeSampler,
]


@pytest.mark.parametrize("sampler_cls", ALL_SAMPLERS)
class TestWoRContracts:
    def test_distinct_and_in_range(self, sampler_cls):
        keys = [float(i) for i in range(100)]
        sampler = sampler_cls(keys, rng=1)
        out = sampler.sample_without_replacement(10.0, 60.0, 20)
        assert len(out) == 20
        assert len(set(out)) == 20
        assert all(10.0 <= value <= 60.0 for value in out)

    def test_full_range_draw(self, sampler_cls):
        keys = [float(i) for i in range(30)]
        sampler = sampler_cls(keys, rng=2)
        out = sampler.sample_without_replacement(0.0, 29.0, 30)
        assert sorted(out) == keys

    def test_oversized_request_raises(self, sampler_cls):
        keys = [float(i) for i in range(10)]
        sampler = sampler_cls(keys, rng=3)
        with pytest.raises(EmptyQueryError):
            sampler.sample_without_replacement(0.0, 4.0, 6)

    def test_empty_range_raises(self, sampler_cls):
        sampler = sampler_cls([1.0, 2.0], rng=4)
        with pytest.raises(EmptyQueryError):
            sampler.sample_without_replacement(5.0, 6.0, 1)

    def test_weighted_wor_distinct(self, sampler_cls):
        keys = [float(i) for i in range(40)]
        weights = [1.0 + (i % 7) for i in range(40)]
        sampler = sampler_cls(keys, weights, rng=5)
        out = sampler.sample_without_replacement(5.0, 35.0, 15)
        assert len(set(out)) == 15


class TestWoRDistribution:
    def test_uniform_wor_marginals(self):
        # Each element of a 5-key range appears in a size-2 WoR sample
        # with probability 2/5.
        keys = [float(i) for i in range(20)]
        sampler = ChunkedRangeSampler(keys, rng=6)
        counts = Counter()
        trials = 15_000
        for _ in range(trials):
            counts.update(sampler.sample_without_replacement(5.0, 9.0, 2))
        for key in (5.0, 6.0, 7.0, 8.0, 9.0):
            frequency = counts[key] / trials
            assert abs(frequency - 0.4) < 0.03

    def test_repeated_wor_queries_independent(self):
        # Unlike the §2 dependent structure, the IQS WoR wrapper returns
        # fresh sets across repeats.
        keys = [float(i) for i in range(100)]
        sampler = ChunkedRangeSampler(keys, rng=7)
        outputs = {
            tuple(sorted(sampler.sample_without_replacement(0.0, 99.0, 5)))
            for _ in range(20)
        }
        assert len(outputs) > 15


@pytest.mark.parametrize("path", ["direct", "sharded2", "engine"])
def test_budget_failure_is_not_an_empty_query(path):
    # Three keys, one of weight 1e12: 240 draws almost surely miss one of
    # the light keys, so s=3 exhausts the attempt budget. That is a
    # rejection-budget failure, as in every other rejection loop, not
    # an empty result.
    sampler = ChunkedRangeSampler([0.0, 1.0, 2.0], [1e12, 1.0, 1.0], rng=1)
    if path == "engine":
        with SamplingEngine(backend="serial", seed=3) as engine:
            (result,) = engine.run(
                sampler, [QueryRequest(op="sample_wor", args=(0.0, 2.0), s=3)]
            )
        assert type(result.error) is SampleBudgetExceededError
        return
    if path == "sharded2":
        sampler = ShardedSampler(sampler, 2)
    with pytest.raises(SampleBudgetExceededError):
        sampler.sample_without_replacement(0.0, 2.0, 3)
