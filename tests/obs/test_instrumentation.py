"""Theorem-shaped counter assertions.

The paper's guarantees are *cost-shape* claims — expected O(1)
rejections per draw (Lemma-2-style analysis), O((1+s) log n) TreeWalk
node visits, ≤ s urn probes per Lemma-2 query, O(1 + s/B) I/Os per EM
query. The ``repro.obs`` counters record exactly those quantities, so
each claim is asserted on the counted primitive operations rather than
inferred from wall-clock curves.

All tests use the ``metrics_on`` fixture (enable + reset + restore), so
they are exact and deterministic under fixed seeds.
"""

import math

import pytest

from repro import obs
from repro.core.alias import AliasSampler
from repro.core.range_sampler import (
    AliasAugmentedRangeSampler,
    ChunkedRangeSampler,
    TreeWalkRangeSampler,
)
from repro.em.em_range_sampler import EMRangeSampler
from repro.em.model import EMMachine


def _keys(n):
    return [float(v) for v in range(n)]


class TestAliasDraws:
    def test_scalar_path_counts_exact(self, metrics_on):
        from repro.core import kernels

        sampler = AliasSampler(list(range(64)), [1.0 + (i % 3) for i in range(64)], rng=7)
        saved = kernels.HAVE_NUMPY
        kernels.HAVE_NUMPY = False
        try:
            sampler.sample_many(100)
            sampler.sample()
        finally:
            kernels.HAVE_NUMPY = saved
        assert obs.value("alias.draws") == 101

    def test_batch_path_counts_exact(self, metrics_on):
        pytest.importorskip("numpy")
        from repro.core import kernels

        if not kernels.HAVE_NUMPY:
            pytest.skip("numpy kernels disabled")
        sampler = AliasSampler(list(range(64)), rng=7)
        sampler.sample_many(5000)
        assert obs.value("alias.draws") == 5000


class TestWorRejectionsBounded:
    """Mean rejection-loop iterations per WoR draw stay O(1) across n.

    With uniform weights and ``s = |S_q| / 10`` the acceptance
    probability never falls below 0.9, so rejections/draw is expected
    ≈ 0.06 and certainly below 0.5 — and, critically, it does NOT grow
    with n (the bound is a constant, not a function of the input size).
    """

    BOUND = 0.5

    @pytest.mark.parametrize("n", [1_000, 10_000, 100_000])
    def test_rejections_per_draw_constant(self, metrics_on, n):
        sampler = AliasAugmentedRangeSampler(_keys(n), rng=11)
        s = n // 10
        sampler.sample_without_replacement(0.0, float(n), s)
        draws = obs.value("wor.draws")
        rejections = obs.value("wor.rejections")
        assert draws == s
        assert rejections / draws < self.BOUND

    def test_ratio_in_derived_snapshot(self, metrics_on):
        sampler = AliasAugmentedRangeSampler(_keys(2_000), rng=11)
        sampler.sample_without_replacement(0.0, 2_000.0, 100)
        ratio = obs.snapshot()["derived"]["wor.rejections_per_draw"]
        assert ratio is not None and ratio < self.BOUND


class TestTreeWalkVisits:
    """Node visits per query obey the §3.2 bound O((1+s) log n)."""

    @pytest.mark.parametrize("n", [1_024, 16_384, 131_072])
    def test_visits_within_logarithmic_bound(self, metrics_on, n):
        s = 16
        sampler = TreeWalkRangeSampler(_keys(n), rng=5)
        queries = 8
        for q in range(queries):
            sampler.sample(float(q), float(q) + n / 2.0, s)
        visits = obs.value("range.treewalk.node_visits")
        assert obs.value("range.treewalk.queries") == queries
        per_query = visits / queries
        bound = 3.0 * (1 + s) * (math.log2(n) + 2)
        assert 0 < per_query <= bound

    def test_visits_grow_logarithmically_not_linearly(self, metrics_on):
        per_query = {}
        for n in (1_024, 131_072):
            obs.reset()
            sampler = TreeWalkRangeSampler(_keys(n), rng=5)
            sampler.sample(0.0, float(n), 16)
            per_query[n] = obs.value("range.treewalk.node_visits")
        # 128x more keys → at most ~2.2x more visits (log ratio is 17/10);
        # a linear-cost walk would scale by ~128x.
        assert per_query[131_072] <= 4 * per_query[1_024]


class TestLemma2Probes:
    def test_probes_at_most_draws(self, metrics_on):
        """Each Lemma-2 draw probes at most one per-node urn (≤ s/query)."""
        sampler = AliasAugmentedRangeSampler(_keys(8_192), rng=3)
        s = 64
        for q in range(8):
            sampler.sample(float(q * 100), float(q * 100) + 4_000.0, s)
        probes = obs.value("range.lemma2.urn_probes")
        draws = obs.value("range.lemma2.draws")
        assert draws == 8 * s
        assert 0 < probes <= draws


    @pytest.mark.parametrize("s", [5, 64])
    def test_leaf_draws_probe_no_urn(self, metrics_on, s):
        """Draws from a leaf of the cover probe no urn, on both the urn
        loop and the batch pass; a batch draw is one numpy dispatch."""
        import random

        from repro.core import kernels

        weights = [1.0] * 96
        weights[5] = weights[90] = 20.0  # the cover's two leaves get draws
        sampler = AliasAugmentedRangeSampler(_keys(96), weights, rng=3)
        tree = sampler._tree
        cover = tree.canonical_nodes_for_span(5, 91)
        leaves = {tree.leaf_span(u)[0] for u in cover if tree.is_leaf(u)}
        assert leaves == {5, 90}
        obs.reset()
        draws = sampler.sample_indices(5.0, 90.0, s, rng=random.Random(11))
        leaf_draws = sum(index in leaves for index in draws)
        assert 0 < leaf_draws < s
        assert obs.value("range.lemma2.draws") == s
        assert obs.value("range.lemma2.urn_probes") == s - leaf_draws
        batched = kernels.HAVE_NUMPY and s >= kernels.BATCH_MIN_SIZE
        assert obs.value("kernels.dispatch.numpy") == (1 if batched else 0)


class TestChunkedTouches:
    def test_touches_bounded_by_s_plus_partials(self, metrics_on):
        sampler = ChunkedRangeSampler(_keys(8_192), rng=4)
        s = 32
        queries = 8
        for q in range(queries):
            sampler.sample(float(q * 50), float(q * 50) + 4_000.0, s)
        touches = obs.value("range.chunked.chunk_touches")
        # At most one chunk per draw plus the two boundary partials.
        assert 0 < touches <= queries * (s + 2)


class TestPlanCache:
    def test_hit_rate_appears_in_derived(self, metrics_on):
        sampler = AliasAugmentedRangeSampler(_keys(4_096), rng=9)
        for _ in range(10):
            sampler.sample(100.0, 3_000.0, 8)
        snap = obs.snapshot()
        assert obs.value("plan_cache.misses") >= 1
        assert obs.value("plan_cache.hits") >= 9
        hit_rate = snap["derived"]["plan_cache.hit_rate"]
        assert hit_rate is not None and hit_rate >= 0.9


class TestEMAccounting:
    def _run_queries(self, queries=8, s=32):
        machine = EMMachine(block_size=16, memory_blocks=4)
        sampler = EMRangeSampler(machine, _keys(1_024), rng=2, pool_blocks=2)
        for q in range(queries):
            sampler.query(float(q), float(q) + 512.0, s)
        return machine

    def test_ios_per_query_derived(self, metrics_on):
        machine = self._run_queries()
        snap = obs.snapshot()
        assert obs.value("em.queries") == 8
        # Registry mirrors the per-machine counters exactly.
        assert obs.value("em.block_reads") == machine.stats.reads
        assert obs.value("em.block_writes") == machine.stats.writes
        assert snap["derived"]["em.ios_per_query"] is not None
        assert snap["derived"]["em.ios_per_query"] > 0

    def test_reset_clears_stale_io_counts(self, metrics_on):
        """Consecutive experiments must not accumulate stale I/O counts."""
        machine = self._run_queries()
        assert obs.value("em.block_reads") > 0
        obs.reset()
        machine.stats.reset()
        assert obs.value("em.block_reads") == 0
        assert obs.value("em.queries") == 0
        assert machine.stats.total == 0
        assert machine.stats.history == []
        # A fresh window counts only its own work.
        self._run_queries(queries=2)
        assert obs.value("em.queries") == 2


@pytest.mark.slow
class TestExperimentSnapshots:
    """Acceptance shape: E1/E3/E9 runs yield the headline derived ratios."""

    def test_e1_e3_e9_quick_produce_required_ratios(self, metrics_on):
        from repro.experiments.runner import run_experiment

        derived = {}
        for experiment_id in ("e1", "e3", "e9"):
            result = run_experiment(experiment_id, quick=True)
            assert result.metrics is not None
            for name, value in result.metrics["derived"].items():
                if value is not None:
                    derived[name] = value
        assert "wor.rejections_per_draw" in derived or "range.lemma2.urn_probes_per_query" in derived
        assert "range.treewalk.node_visits_per_query" in derived
        assert "plan_cache.hit_rate" in derived
        assert "em.ios_per_query" in derived
