"""Unit tests shared across the three weighted range samplers (§3.2, §4)."""

import random

import pytest

from repro.core import kernels
from repro.core.naive import NaiveRangeSampler
from repro.core.range_sampler import (
    AliasAugmentedRangeSampler,
    ChunkedRangeSampler,
    TreeWalkRangeSampler,
)
from repro.errors import BuildError, EmptyQueryError, InvalidWeightError
from repro.stats.tests import chi_square_weighted_pvalue

ALPHA = 1e-6

ALL_SAMPLERS = [
    TreeWalkRangeSampler,
    AliasAugmentedRangeSampler,
    ChunkedRangeSampler,
    NaiveRangeSampler,
]


def make_keys(n):
    return [float(i) for i in range(n)]


@pytest.mark.parametrize("sampler_cls", ALL_SAMPLERS)
class TestContracts:
    def test_empty_keys_rejected(self, sampler_cls):
        with pytest.raises(BuildError):
            sampler_cls([])

    def test_unsorted_keys_rejected(self, sampler_cls):
        with pytest.raises(BuildError):
            sampler_cls([2.0, 1.0])

    def test_duplicate_keys_rejected(self, sampler_cls):
        with pytest.raises(BuildError):
            sampler_cls([1.0, 1.0, 2.0])

    def test_bad_weight_rejected(self, sampler_cls):
        with pytest.raises(InvalidWeightError):
            sampler_cls([1.0, 2.0], [1.0, -1.0])

    def test_weight_length_mismatch_rejected(self, sampler_cls):
        with pytest.raises(BuildError):
            sampler_cls([1.0, 2.0], [1.0])

    def test_empty_range_raises(self, sampler_cls):
        sampler = sampler_cls(make_keys(100), rng=1)
        with pytest.raises(EmptyQueryError):
            sampler.sample(200.0, 300.0, 1)

    def test_inverted_range_raises(self, sampler_cls):
        sampler = sampler_cls(make_keys(100), rng=1)
        with pytest.raises(EmptyQueryError):
            sampler.sample(50.0, 10.0, 1)

    @pytest.mark.parametrize("s", [4, 64])
    @pytest.mark.parametrize("span", [(-5, 10), (94, 144), (105, 110), (-10, -2)])
    def test_index_span_outside_the_keys_rejected(self, sampler_cls, span, s):
        sampler = sampler_cls(make_keys(100), rng=1)
        with pytest.raises(ValueError, match=r"outside \[0, 100\)") as info:
            sampler.sample_span(*span, s, rng=7)
        assert not isinstance(info.value, EmptyQueryError)
        assert str(span[0]) in str(info.value) and str(span[1]) in str(info.value)
        assert len(getattr(sampler, "plan_cache", ())) == 0  # raised before planning

    def test_zero_samples_rejected(self, sampler_cls):
        sampler = sampler_cls(make_keys(100), rng=1)
        with pytest.raises(ValueError):
            sampler.sample(0.0, 99.0, 0)

    def test_samples_inside_range(self, sampler_cls):
        sampler = sampler_cls(make_keys(500), rng=2)
        out = sampler.sample(100.0, 400.0, 200)
        assert len(out) == 200
        assert all(100.0 <= value <= 400.0 for value in out)

    def test_samples_inside_tight_range(self, sampler_cls):
        sampler = sampler_cls(make_keys(500), rng=2)
        out = sampler.sample(250.0, 250.0, 5)
        assert out == [250.0] * 5

    def test_endpoints_inclusive(self, sampler_cls):
        sampler = sampler_cls([1.0, 2.0, 3.0], rng=3)
        seen = set(sampler.sample(1.0, 3.0, 300))
        assert seen == {1.0, 2.0, 3.0}

    def test_range_between_keys(self, sampler_cls):
        sampler = sampler_cls([1.0, 5.0, 9.0], rng=3)
        out = sampler.sample(2.0, 8.0, 20)
        assert set(out) == {5.0}

    def test_whole_domain_query(self, sampler_cls):
        sampler = sampler_cls(make_keys(64), rng=4)
        out = sampler.sample(float("-inf"), float("inf"), 50)
        assert all(0.0 <= value <= 63.0 for value in out)

    def test_deterministic_under_seed(self, sampler_cls):
        a = sampler_cls(make_keys(200), rng=11).sample(10.0, 150.0, 30)
        b = sampler_cls(make_keys(200), rng=11).sample(10.0, 150.0, 30)
        assert a == b

    def test_single_element_dataset(self, sampler_cls):
        sampler = sampler_cls([42.0], [3.0], rng=1)
        assert sampler.sample(0.0, 100.0, 4) == [42.0] * 4

    def test_sample_indices_matches_keys(self, sampler_cls):
        keys = [10.0, 20.0, 30.0, 40.0]
        sampler = sampler_cls(keys, rng=5)
        indices = sampler.sample_indices(15.0, 45.0, 50)
        assert all(keys[i] in (20.0, 30.0, 40.0) for i in indices)

    def test_weighted_distribution(self, sampler_cls):
        keys = [float(i) for i in range(8)]
        weights = [1.0, 1.0, 2.0, 4.0, 8.0, 1.0, 1.0, 1.0]
        sampler = sampler_cls(keys, weights, rng=6)
        # Query covers indices 2..5 → weights 2, 4, 8, 1.
        samples = sampler.sample(2.0, 5.0, 30_000)
        target = {2.0: 2.0, 3.0: 4.0, 4.0: 8.0, 5.0: 1.0}
        assert chi_square_weighted_pvalue(samples, target) > ALPHA

    def test_uniform_distribution(self, sampler_cls):
        keys = [float(i) for i in range(10)]
        sampler = sampler_cls(keys, rng=7)
        samples = sampler.sample(0.0, 9.0, 30_000)
        target = {key: 1.0 for key in keys}
        assert chi_square_weighted_pvalue(samples, target) > ALPHA


class TestSpaceAccounting:
    def test_lemma2_space_superlinear(self):
        # Lemma 2 uses Θ(n log n) words; Theorem 3 stays Θ(n).
        n_small, n_big = 1 << 10, 1 << 14
        lemma2_small = AliasAugmentedRangeSampler(make_keys(n_small)).space_words()
        lemma2_big = AliasAugmentedRangeSampler(make_keys(n_big)).space_words()
        chunked_small = ChunkedRangeSampler(make_keys(n_small)).space_words()
        chunked_big = ChunkedRangeSampler(make_keys(n_big)).space_words()
        # Per-element footprint grows for Lemma 2, stays ~flat for Theorem 3.
        assert lemma2_big / n_big > 1.25 * (lemma2_small / n_small)
        assert chunked_big / n_big < 1.25 * (chunked_small / n_small)
        # The exact shape over these four doublings (E4 reads +8.0 and -0.3):
        # Lemma 2 gains 2 words/element per doubling, Theorem 3 under one.
        assert lemma2_big / n_big - lemma2_small / n_small > 2.0
        assert abs(chunked_big / n_big - chunked_small / n_small) < 1.0

    def test_naive_space_linear(self):
        assert NaiveRangeSampler(make_keys(1000)).space_words() == 2000


class TestTreeWalkSpecifics:
    def test_space_linear(self):
        sampler = TreeWalkRangeSampler(make_keys(256))
        assert sampler.space_words() == 6 * (2 * 256 - 1)


@pytest.fixture(params=["numpy", "scalar"])
def tier(request, monkeypatch):
    """The kernel tier the structure is built and drawn on."""
    if request.param == "scalar":
        monkeypatch.setattr(kernels, "HAVE_NUMPY", False)
    elif not kernels.HAVE_NUMPY:
        pytest.skip("numpy tier unavailable")
    return request.param


@pytest.fixture(params=["built", "attached"])
def share(request):
    """Identity for a built structure, a shared-memory round trip for an
    attached one (its segments are unlinked at teardown)."""
    if request.param == "built":
        yield lambda sampler: sampler
        return
    if kernels.np is None:
        pytest.skip("shared-memory attach needs numpy")
    from repro.engine import shm

    segments = []

    def attach(sampler):
        manifest, made = shm.export_sampler(sampler)
        segments.extend(made)
        return shm.attach_sampler(manifest)

    yield attach
    shm.unlink_segments(segments)


@pytest.mark.parametrize("key_type", [float, int])
@pytest.mark.parametrize(
    "sampler_cls",
    [TreeWalkRangeSampler, AliasAugmentedRangeSampler, ChunkedRangeSampler],
)
class TestDrawContainer:
    """``execute_plan`` keeps the container its kernel rung made (an
    ``intp`` array exactly when ``kernels.use_batch(s)``, else a list of
    ``int``); the public methods always return lists of Python values."""

    N = 256  # Theorem 3 cuts it into chunks of 8 keys
    SIZES = (1, 15, 16, 17, 1024)
    # Chunked parts: one (a partial chunk; the aligned middle), two (head
    # + middle), three (head + middle + tail), and a head and a tail of
    # three keys each, whose split at s = 20 leaves every part below the
    # batch cutoff while s is not.
    SPANS = ((3, 7), (8, 64), (3, 64), (3, 61), (0, N))
    SMALL_PARTS = (5, 11)

    def _draws_ok(self, draws, s, context):
        if kernels.use_batch(s):
            assert isinstance(draws, kernels.np.ndarray), context
            assert draws.dtype == kernels.np.intp, context
        else:
            assert type(draws) is list, context
            assert {type(v) for v in draws} == {int}, context
        assert len(draws) == s, context

    def _lists_ok(self, sampler, lo, hi, s, key_type, context):
        x, y = sampler.keys[lo], sampler.keys[hi - 1]
        for draws in (
            sampler.sample_span(lo, hi, s, rng=3),
            sampler.sample_indices(x, y, s, rng=3),
        ):
            assert type(draws) is list, context
            assert {type(v) for v in draws} == {int}, context
        values = sampler.sample(x, y, s, rng=3)
        assert type(values) is list, context
        assert {type(v) for v in values} == {key_type}, context

    def test_execute_plan_container(self, sampler_cls, key_type, tier, share):
        keys = [key_type(3 * i) for i in range(self.N)]
        weights = [1.0 + (i % 5) for i in range(self.N)]
        sampler = share(sampler_cls(keys, weights, rng=1))
        for lo, hi in self.SPANS:
            plan = sampler.plan_span(lo, hi)
            for s in self.SIZES:
                context = (tier, lo, hi, s)
                self._draws_ok(sampler.execute_plan(plan, s, random.Random(s)), s, context)
                self._lists_ok(sampler, lo, hi, s, key_type, context)

    def test_small_parts_join_to_an_array(self, sampler_cls, key_type, tier, share):
        keys = [key_type(3 * i) for i in range(self.N)]
        sampler = share(sampler_cls(keys, rng=1))
        lo, hi = self.SMALL_PARTS
        plan = sampler.plan_span(lo, hi)
        s = 20
        if sampler_cls is ChunkedRangeSampler:
            split, parts = plan.payload
            assert [kind for kind, *_ in parts] == ["head", "tail"]
            # The draw's first random calls are this split.
            counts = split.counts(s, random.Random(7))
            assert max(counts) < kernels.BATCH_MIN_SIZE <= s
        self._draws_ok(sampler.execute_plan(plan, s, random.Random(7)), s, (tier, s))
        self._lists_ok(sampler, lo, hi, s, key_type, (tier, s))
