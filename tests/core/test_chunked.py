"""Internals of the Theorem-3 chunked structure, incl. the Figure-2 split."""

import random
import sys
import threading

import pytest

from repro.core import kernels
from repro.core.range_sampler import ChunkedRangeSampler
from repro.errors import BuildError
from repro.stats.tests import chi_square_weighted_pvalue

ALPHA = 1e-6


def make(n, chunk_size=None, weights=None, rng=1):
    keys = [float(i) for i in range(n)]
    return ChunkedRangeSampler(keys, weights, rng=rng, chunk_size=chunk_size)


class TestChunking:
    def test_default_chunk_size_is_log_n(self):
        sampler = make(1 << 12)
        assert sampler.chunk_size == 12

    def test_chunk_count(self):
        sampler = make(100, chunk_size=7)
        assert sampler.num_chunks == 15  # ceil(100 / 7)

    def test_chunk_size_validation(self):
        with pytest.raises(BuildError):
            make(10, chunk_size=0)

    def test_single_chunk_dataset(self):
        sampler = make(5, chunk_size=10)
        assert sampler.num_chunks == 1
        assert set(sampler.sample(0.0, 4.0, 100)) == {0.0, 1.0, 2.0, 3.0, 4.0}


class TestFigure2Split:
    """The q1 / q2 / q3 decomposition of §4.2 (Figure 2)."""

    def test_generic_split_is_partition(self):
        sampler = make(100, chunk_size=10)
        # Query [13, 67) : head = [13, 20), middle = chunks 2..6, tail = [60, 67).
        (h_lo, h_hi), (m_lo, m_hi), (t_lo, t_hi) = sampler.query_split(13, 67)
        assert (h_lo, h_hi) == (13, 20)
        assert (m_lo, m_hi) == (2, 6)
        assert (t_lo, t_hi) == (60, 67)

    def test_chunk_aligned_query_has_no_partials(self):
        sampler = make(100, chunk_size=10)
        (h_lo, h_hi), (m_lo, m_hi), (t_lo, t_hi) = sampler.query_split(20, 70)
        assert h_lo == h_hi
        assert t_lo == t_hi
        assert (m_lo, m_hi) == (2, 7)

    def test_head_aligned_only(self):
        sampler = make(100, chunk_size=10)
        (h_lo, h_hi), (m_lo, m_hi), (t_lo, t_hi) = sampler.query_split(20, 75)
        assert h_lo == h_hi  # chunk 2 fully covered → goes to the middle
        assert (m_lo, m_hi) == (2, 7)
        assert (t_lo, t_hi) == (70, 75)

    def test_tail_aligned_only(self):
        sampler = make(100, chunk_size=10)
        (h_lo, h_hi), (m_lo, m_hi), (t_lo, t_hi) = sampler.query_split(25, 70)
        assert (h_lo, h_hi) == (25, 30)
        assert (m_lo, m_hi) == (3, 7)
        assert t_lo == t_hi

    def test_query_within_one_chunk(self):
        sampler = make(100, chunk_size=10)
        (h_lo, h_hi), (m_lo, m_hi), (t_lo, t_hi) = sampler.query_split(13, 17)
        assert (h_lo, h_hi) == (13, 17)
        assert m_lo == m_hi
        assert t_lo == t_hi

    def test_query_exactly_one_chunk(self):
        sampler = make(100, chunk_size=10)
        (h_lo, h_hi), (m_lo, m_hi), (t_lo, t_hi) = sampler.query_split(30, 40)
        assert h_lo == h_hi
        assert (m_lo, m_hi) == (3, 4)
        assert t_lo == t_hi

    def test_adjacent_partial_chunks_no_middle(self):
        sampler = make(100, chunk_size=10)
        (h_lo, h_hi), (m_lo, m_hi), (t_lo, t_hi) = sampler.query_split(15, 25)
        assert (h_lo, h_hi) == (15, 20)
        assert m_lo == m_hi
        assert (t_lo, t_hi) == (20, 25)

    @pytest.mark.parametrize("lo,hi", [(0, 100), (1, 99), (5, 95), (13, 67), (0, 1), (99, 100), (37, 38)])
    def test_split_partitions_every_query(self, lo, hi):
        sampler = make(100, chunk_size=10)
        (h_lo, h_hi), (m_lo, m_hi), (t_lo, t_hi) = sampler.query_split(lo, hi)
        covered = set(range(h_lo, h_hi)) | set(range(t_lo, t_hi))
        for chunk in range(m_lo, m_hi):
            covered |= set(range(chunk * 10, min(chunk * 10 + 10, 100)))
        assert covered == set(range(lo, hi))

    def test_ragged_final_chunk(self):
        sampler = make(23, chunk_size=5)  # last chunk holds 3 elements
        (h_lo, h_hi), (m_lo, m_hi), (t_lo, t_hi) = sampler.query_split(2, 23)
        assert (h_lo, h_hi) == (2, 5)
        assert (m_lo, m_hi) == (1, 5)  # final ragged chunk fully covered
        assert t_lo == t_hi


class TestDistributionAcrossSplit:
    def test_weighted_across_head_middle_tail(self):
        weights = [1.0 + (i % 5) for i in range(50)]
        sampler = make(50, chunk_size=8, weights=weights, rng=3)
        samples = sampler.sample(3.0, 44.0, 40_000)
        target = {float(i): weights[i] for i in range(3, 45)}
        assert chi_square_weighted_pvalue(samples, target) > ALPHA

    def test_uniform_tiny_chunks(self):
        sampler = make(30, chunk_size=1, rng=4)
        samples = sampler.sample(0.0, 29.0, 30_000)
        target = {float(i): 1.0 for i in range(30)}
        assert chi_square_weighted_pvalue(samples, target) > ALPHA


class TestPlanMemoRace:
    """A chunked plan fills its memo slots (the T_chunk sub-plan, the
    prepared splits' tier state, numpy table views) on its first
    execute, without a lock. Two threads racing that first execute must
    each draw exactly what a serial run of an equal plan draws."""

    N = 1 << 12
    S = 64
    SPANS = [(5, 3001), (100, 2000), (13, 4090), (700, 1500)]

    @pytest.mark.parametrize("numpy_tier", [True, False])
    def test_racing_first_execute_matches_serial(self, numpy_tier, monkeypatch):
        if not numpy_tier:
            monkeypatch.setattr(kernels, "HAVE_NUMPY", False)
        elif not kernels.HAVE_NUMPY:
            pytest.skip("numpy tier unavailable")
        sampler = make(self.N, weights=[1.0 + (i % 9) for i in range(self.N)])
        for round_, (lo, hi) in enumerate(self.SPANS):
            seeds = (2 * round_ + 1, 2 * round_ + 2)
            reference = sampler._build_plan(lo, hi)
            expected = [
                sampler.execute_plan(reference, self.S, random.Random(seed))
                for seed in seeds
            ]
            plan = sampler._build_plan(lo, hi)
            barrier = threading.Barrier(2)
            got = [None, None]

            def run(slot, seed):
                rng = random.Random(seed)
                barrier.wait(timeout=30)
                got[slot] = sampler.execute_plan(plan, self.S, rng)

            threads = [
                threading.Thread(target=run, args=(slot, seed))
                for slot, seed in enumerate(seeds)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # switch threads inside the memo fills
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            # Draws of s >= the batch cutoff are arrays: compare list forms.
            assert [list(draw) for draw in got] == [list(draw) for draw in expected]
            split, parts = plan.payload
            (mid_slot,) = [slot for kind, _, _, _, slot in parts if kind == "mid"]
            assert mid_slot[0] is not None  # the race filled the sub-plan slot
            tier_state = split._prob if numpy_tier else split._tables
            assert tier_state is not None  # ...and the part split's state
