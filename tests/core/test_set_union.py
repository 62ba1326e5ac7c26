"""Unit tests for set-union sampling (paper §7, Theorem 8)."""

import pytest

from repro.apps.workloads import overlapping_sets, skewed_set_family
from repro.core.naive import NaiveSetUnionSampler
from repro.core.set_union import SetUnionSampler
from repro.errors import BuildError, EmptyQueryError
from repro.stats.tests import chi_square_weighted_pvalue

ALPHA = 1e-6


class TestConstruction:
    def test_empty_family_rejected(self):
        with pytest.raises(BuildError):
            SetUnionSampler([])

    def test_all_empty_sets_rejected(self):
        with pytest.raises(BuildError):
            SetUnionSampler([[], []])

    def test_duplicates_within_a_set_collapse(self):
        sampler = SetUnionSampler([[1, 1, 2]], rng=1)
        assert sampler.total_size == 2

    def test_sizes(self):
        sampler = SetUnionSampler([[1, 2, 3], [3, 4]], rng=1)
        assert sampler.total_size == 5  # n: sum of set sizes
        assert sampler.universe_size == 4  # U: distinct elements


class TestEstimates:
    def test_estimate_within_factor(self):
        family = overlapping_sets(20, 200, 1000, rng=2)
        sampler = SetUnionSampler(family, rng=3)
        group = [0, 3, 7, 11, 19]
        exact = sampler.exact_union_size(group)
        estimate = sampler.union_size_estimate(group)
        assert exact / 2 <= estimate <= 1.5 * exact

    def test_small_sets_get_on_the_fly_sketches(self):
        family = [[1, 2], [3], list(range(100))]
        sampler = SetUnionSampler(family, rng=4)
        estimate = sampler.union_size_estimate([0, 1])
        assert estimate == pytest.approx(3.0)  # below k, the sketch is exact

    def test_empty_group_raises(self):
        sampler = SetUnionSampler([[1, 2]], rng=5)
        with pytest.raises(EmptyQueryError):
            sampler.union_size_estimate([])

    def test_estimate_is_merged_again_after_a_rebuild(self):
        # Û_G is merged once per permutation epoch: a rebuild draws a new
        # sketch salt, so the next estimate comes from the new sketches.
        family = overlapping_sets(20, 200, 1000, rng=2)
        sampler = SetUnionSampler(family, rng=3)
        group = [0, 3, 7, 11, 19]
        before = sampler.union_size_estimate(group)
        assert sampler.union_size_estimate(group) == before
        sampler.rebuild()
        after = sampler.union_size_estimate(group)
        assert after == sampler._merge_sketches(group) != before


class TestSampling:
    def test_sample_belongs_to_union(self):
        family = [[1, 2, 3], [3, 4, 5], [10, 11]]
        sampler = SetUnionSampler(family, rng=6)
        for _ in range(50):
            assert sampler.sample([0, 1]) in {1, 2, 3, 4, 5}

    def test_empty_group_raises(self):
        sampler = SetUnionSampler([[1]], rng=7)
        with pytest.raises(EmptyQueryError):
            sampler.sample([])

    def test_union_of_empty_sets_raises(self):
        sampler = SetUnionSampler([[1], []], rng=7)
        with pytest.raises(EmptyQueryError):
            sampler.sample([1])

    def test_bad_set_index_raises(self):
        sampler = SetUnionSampler([[1]], rng=7)
        with pytest.raises(IndexError):
            sampler.sample([5])

    @pytest.mark.slow
    def test_uniform_over_overlapping_union(self):
        # Heavy overlap: naive "pick set then member" would bias toward
        # elements in many sets; Theorem 8 must stay uniform.
        # Slow: 30k scalar draws; the batch path's uniformity over the same
        # family is covered by tests/core/test_batch_kernels.py.
        family = [[1, 2, 3, 4, 5], [4, 5, 6], [5, 6, 7]]
        sampler = SetUnionSampler(family, rng=8)
        samples = [sampler.sample([0, 1, 2]) for _ in range(30_000)]
        target = {element: 1.0 for element in range(1, 8)}
        assert chi_square_weighted_pvalue(samples, target) > ALPHA

    def test_uniform_single_set(self):
        sampler = SetUnionSampler([[10, 20, 30]], rng=9)
        samples = sampler.sample_many([0], 20_000)
        target = {10: 1.0, 20: 1.0, 30: 1.0}
        assert chi_square_weighted_pvalue(samples, target) > ALPHA

    def test_skewed_family(self):
        family = skewed_set_family(12, 300, rng=10)
        sampler = SetUnionSampler(family, rng=11)
        group = list(range(len(family)))
        union = set().union(*[set(s) for s in family])
        out = sampler.sample_many(group, 100)
        assert all(element in union for element in out)

    def test_expected_attempts_scale_with_log(self):
        family = overlapping_sets(8, 100, 400, rng=12)
        sampler = SetUnionSampler(family, rng=13)
        sampler.sample_many([0, 1, 2, 3], 50)
        mean_attempts = sampler.total_attempts / sampler.total_queries
        # Θ(m) = Θ(c log n) expected repeats; generous envelope.
        assert mean_attempts < 20 * sampler.interval_cap


class TestRebuilding:
    def test_rebuild_after_n_queries(self):
        family = [[1, 2, 3], [4, 5]]
        sampler = SetUnionSampler(family, rng=14, rebuild_after=5)
        for _ in range(12):
            sampler.sample([0, 1])
        assert sampler.rebuild_count >= 2

    def test_rebuild_disabled(self):
        family = [[1, 2, 3]]
        sampler = SetUnionSampler(family, rng=15, rebuild_after=0)
        for _ in range(10):
            sampler.sample([0])
        assert sampler.rebuild_count == 0

    def test_rebuild_preserves_distribution(self):
        family = [[1, 2], [2, 3]]
        sampler = SetUnionSampler(family, rng=16, rebuild_after=100)
        samples = sampler.sample_many([0, 1], 30_000)
        target = {1: 1.0, 2: 1.0, 3: 1.0}
        assert chi_square_weighted_pvalue(samples, target) > ALPHA


class TestNaiveBaseline:
    def test_matches_union(self):
        naive = NaiveSetUnionSampler([[1, 2], [2, 3]], rng=17)
        assert naive.sample([0, 1]) in {1, 2, 3}

    def test_uniformity(self):
        naive = NaiveSetUnionSampler([[1, 2, 3], [3, 4]], rng=18)
        samples = naive.sample_many([0, 1], 20_000)
        target = {element: 1.0 for element in range(1, 5)}
        assert chi_square_weighted_pvalue(samples, target) > ALPHA

    def test_empty_union_raises(self):
        naive = NaiveSetUnionSampler([[], [1]], rng=19)
        with pytest.raises(EmptyQueryError):
            naive.sample([0])
