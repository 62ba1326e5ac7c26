"""Unit tests for sampling-scheme conversions (paper §1–§2, §4.1)."""

import random
from collections import Counter

import pytest

from repro.core.schemes import (
    multinomial_split,
    sample_without_replacement,
    uniform_indices_without_replacement,
    wr_from_wor,
)
from repro.errors import EmptyQueryError, SampleBudgetExceededError
from repro.stats.tests import chi_square_weighted_pvalue

ALPHA = 1e-6


class TestMultinomialSplit:
    def test_counts_sum_to_s(self):
        counts = multinomial_split([1.0, 2.0, 3.0], 100, rng=1)
        assert sum(counts) == 100
        assert len(counts) == 3

    def test_single_part_gets_everything(self):
        assert multinomial_split([5.0], 17, rng=1) == [17]

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            multinomial_split([1.0, 1.0], 0)

    def test_proportions_follow_weights(self):
        totals = [0, 0, 0]
        for seed in range(30):
            counts = multinomial_split([1.0, 1.0, 8.0], 1000, rng=seed)
            for index, count in enumerate(counts):
                totals[index] += count
        grand = sum(totals)
        assert totals[2] / grand == pytest.approx(0.8, abs=0.02)

    def test_deterministic_under_seed(self):
        assert multinomial_split([1, 2, 3], 50, rng=4) == multinomial_split(
            [1, 2, 3], 50, rng=4
        )


class TestFloydWoR:
    def test_distinct_and_in_range(self):
        indices = uniform_indices_without_replacement(10, 30, 15, rng=2)
        assert len(indices) == 15
        assert len(set(indices)) == 15
        assert all(10 <= index < 30 for index in indices)

    def test_full_population(self):
        indices = uniform_indices_without_replacement(0, 8, 8, rng=2)
        assert sorted(indices) == list(range(8))

    def test_oversized_request_rejected(self):
        with pytest.raises(EmptyQueryError):
            uniform_indices_without_replacement(0, 4, 5)

    def test_marginal_uniformity(self):
        # Each index should appear in a size-2 WoR sample of [0, 5) with
        # probability 2/5.
        counts = Counter()
        trials = 20_000
        rng = random.Random(11)
        for _ in range(trials):
            counts.update(uniform_indices_without_replacement(0, 5, 2, rng=rng))
        weights = {index: 1.0 for index in range(5)}
        samples = [index for index, count in counts.items() for _ in range(count)]
        assert chi_square_weighted_pvalue(samples, weights) > ALPHA


class TestRejectionWoR:
    def test_distinct_outputs(self):
        rng = random.Random(3)
        population = list(range(20))
        result = sample_without_replacement(
            lambda k: [population[rng.randrange(20)] for _ in range(k)], 10, 20
        )
        assert len(set(result)) == 10

    def test_impossible_request_rejected(self):
        with pytest.raises(EmptyQueryError):
            sample_without_replacement(lambda k: [1] * k, 3, 2)

    def test_broken_drawer_hits_budget(self):
        with pytest.raises(SampleBudgetExceededError):
            sample_without_replacement(lambda k: [42] * k, 2, 10)


class TestWRFromWoR:
    def test_output_size_matches(self):
        result = wr_from_wor(["a", "b", "c"], population_size=100, rng=1)
        assert len(result) == 3

    def test_output_subset_of_wor(self):
        wor = ["a", "b", "c", "d"]
        result = wr_from_wor(wor, population_size=10, rng=2)
        assert set(result) <= set(wor)

    def test_empty_input(self):
        assert wr_from_wor([], population_size=5) == []

    def test_population_too_small_rejected(self):
        with pytest.raises(ValueError):
            wr_from_wor(["a", "b"], population_size=1)

    def test_collision_rate_matches_birthday(self):
        # For s=2 draws from N=2, a WR pair collides with probability 1/2.
        rng = random.Random(9)
        collisions = 0
        trials = 20_000
        for _ in range(trials):
            pair = wr_from_wor(["x", "y"], population_size=2, rng=rng)
            collisions += pair[0] == pair[1]
        assert abs(collisions / trials - 0.5) < 0.02

    def test_uniform_marginal(self):
        # Each WR slot should be uniform over the population. The
        # conversion requires its input to be a *uniformly ordered* WoR
        # sample (which real WoR samples are), so shuffle per trial.
        rng = random.Random(10)
        counts = Counter()
        for _ in range(30_000):
            wor = ["x", "y", "z"]
            rng.shuffle(wor)
            counts.update(wr_from_wor(wor, population_size=3, rng=rng))
        values = list(counts.values())
        assert max(values) - min(values) < 0.05 * sum(values)
