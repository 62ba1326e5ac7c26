"""Plan-cache semantics and their integration into the range samplers.

The cache under test is a :class:`~repro.core.planner.PlanScope` over a
:class:`~repro.core.planner.PlanStore` of its own: one owner, one LRU.

Three concerns, in order of subtlety:

1. **Cache mechanics** — bounded LRU behaviour, hit/miss/eviction
   counters, the ``REPRO_PLAN_CACHE_SIZE`` environment knob, and the
   capacity-0 kill switch.
2. **Determinism** — a plan is a pure function of the structure and the
   span, so a warm-cache run must be *byte-identical* to a cold-cache
   run under the same seed. This is the property that makes caching safe
   for IQS: it cannot change any query's output, only its latency.
3. **Independence** — repeated hot-range queries served from the cache
   must still produce mutually independent outputs (eq. 1 of the paper),
   checked with the repo's lag-independence diagnostic.
"""

import random

import pytest

from repro.core import kernels
from repro.core.planner import (
    DEFAULT_CAPACITY,
    ENV_CAPACITY,
    PlanScope,
    PlanStore,
    resolve_capacity,
    shared_store,
)
from repro.core.range_sampler import (
    AliasAugmentedRangeSampler,
    ChunkedRangeSampler,
    TreeWalkRangeSampler,
)
from repro.stats.independence import (
    lag_independence_pvalue,
    repeat_query_outputs,
)

SAMPLERS = [TreeWalkRangeSampler, AliasAugmentedRangeSampler, ChunkedRangeSampler]


def make_cache(capacity=None):
    return PlanScope(PlanStore(capacity), "treewalk")


class TestCacheMechanics:
    def test_lru_eviction_order(self):
        cache = make_cache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"; "b" is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.evictions == 1

    def test_put_refreshes_existing_key(self):
        cache = make_cache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh, not insert: no eviction
        cache.put("c", 3)  # evicts "b", the true LRU
        assert cache.evictions == 1
        assert cache.get("a") == 10
        assert cache.get("b") is None

    def test_counters(self):
        cache = make_cache(4)
        assert cache.get("x") is None
        cache.put("x", 42)
        assert cache.get("x") == 42
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.evictions == 0
        assert len(cache) == 1
        assert cache.capacity == 4

    def test_clear_keeps_counters(self):
        cache = make_cache(4)
        cache.put("x", 1)
        cache.get("x")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1

    def test_capacity_zero_disables(self):
        cache = make_cache(0)
        assert not cache.enabled
        cache.put("x", 1)
        assert cache.get("x") is None
        assert len(cache) == 0
        # A disabled cache is a bypass, not a 100%-miss cache.
        assert cache.misses == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            make_cache(-1)

    def test_registry_counters_mirror_instance_counters(self):
        from repro import obs

        saved = obs.ENABLED
        obs.enable()
        obs.reset()
        try:
            cache = make_cache(2)
            cache.get("x")  # miss
            cache.put("x", 1)
            cache.get("x")  # hit
            cache.put("y", 2)
            cache.put("z", 3)  # evicts "x"
            assert obs.value("plan_cache.hits") == cache.hits == 1
            assert obs.value("plan_cache.misses") == cache.misses == 1
            assert obs.value("plan_cache.evictions") == cache.evictions == 1
        finally:
            obs.reset()
            (obs.enable if saved else obs.disable)()

    def test_stats_shim_records_without_metrics(self):
        from repro import obs

        saved = obs.ENABLED
        obs.disable()
        try:
            cache = make_cache(2)
            cache.get("x")
            cache.put("x", 1)
            cache.get("x")
            # The per-instance tallies still count with the registry off...
            assert cache.hits == 1
            assert cache.misses == 1
            # ...while the registry stays untouched.
            assert obs.value("plan_cache.hits") == 0
        finally:
            (obs.enable if saved else obs.disable)()


class TestCapacityResolution:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(ENV_CAPACITY, raising=False)
        assert resolve_capacity() == DEFAULT_CAPACITY

    def test_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(ENV_CAPACITY, "7")
        assert resolve_capacity(3) == 3

    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv(ENV_CAPACITY, "7")
        assert resolve_capacity() == 7
        assert make_cache().capacity == 7

    def test_env_zero_disables(self, monkeypatch):
        monkeypatch.setenv(ENV_CAPACITY, "0")
        sampler = TreeWalkRangeSampler([1.0, 2.0, 3.0], rng=1)
        sampler.sample_span(0, 3, 2)
        assert not sampler.plan_cache.enabled
        assert len(sampler.plan_cache) == 0

    def test_blank_env_ignored(self, monkeypatch):
        monkeypatch.setenv(ENV_CAPACITY, "  ")
        assert resolve_capacity() == DEFAULT_CAPACITY

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv(ENV_CAPACITY, "many")
        with pytest.raises(ValueError):
            resolve_capacity()

    def test_negative_env_rejected_not_silent_zero(self, monkeypatch):
        monkeypatch.setenv(ENV_CAPACITY, "-5")
        with pytest.raises(ValueError):
            resolve_capacity()
        with pytest.raises(ValueError):
            make_cache()


@pytest.mark.parametrize("sampler_cls", SAMPLERS)
class TestSamplerIntegration:
    N = 96

    def build(self, sampler_cls, **kwargs):
        rnd = random.Random(23)
        keys = [float(i) for i in range(self.N)]
        weights = [rnd.random() + 0.05 for _ in range(self.N)]
        return sampler_cls(keys, weights, **kwargs)

    def test_counters_advance_on_repeated_spans(self, sampler_cls):
        sampler = self.build(sampler_cls, rng=3)
        for _ in range(5):
            sampler.sample_span(7, 61, 4)
        scope = sampler.plan_cache
        assert scope.misses == 1
        assert scope.hits == 4
        assert len(scope) == 1

    def test_distinct_spans_fill_and_evict(self, sampler_cls):
        sampler = self.build(sampler_cls, rng=4, plan_cache_size=3)
        for lo in range(6):
            sampler.sample_span(lo, lo + 30, 2)
        scope = sampler.plan_cache
        assert scope.misses == 6
        assert len(scope) == 3
        assert scope.evictions == 3

    def test_warm_run_byte_identical_to_cold_run(self, sampler_cls):
        spans = [(3, 77), (10, 40), (3, 77), (50, 96), (3, 77), (10, 40)]
        outputs = {}
        for label, cache_size in (("cold", 0), ("warm", None)):
            sampler = self.build(sampler_cls, rng=99, plan_cache_size=cache_size)
            outputs[label] = [
                sampler.sample_span(lo, hi, 5) for lo, hi in spans for _ in range(3)
            ]
        assert outputs["cold"] == outputs["warm"]
        # and the warm run really was served from the cache:
        sampler = self.build(sampler_cls, rng=99)
        for lo, hi in spans:
            sampler.sample_span(lo, hi, 5)
        assert sampler.plan_cache.hits == len(spans) - 3  # 3 distinct spans

    def test_warm_run_byte_identical_under_scalar_fallback(
        self, sampler_cls, monkeypatch
    ):
        monkeypatch.setattr(kernels, "HAVE_NUMPY", False)
        self.test_warm_run_byte_identical_to_cold_run(sampler_cls)

    def test_warm_cache_outputs_stay_independent(self, sampler_cls):
        sampler = self.build(sampler_cls, rng=31)
        sampler.sample_span(5, 69, 1)  # prime the plan
        outputs = repeat_query_outputs(
            lambda: sampler.sample_span(5, 69, 1)[0], 4000
        )
        assert sampler.plan_cache.hits >= 4000
        assert len(set(outputs)) > 32  # many distinct elements, no sticking
        assert lag_independence_pvalue(outputs) > 1e-6


class TestChunkedPlanOwnership:
    """A chunked plan holds its T_chunk sub-plan, so a chunked sampler's
    plans live in its own scope only: one store entry per span, nothing
    in the shared store unless the sampler joined it."""

    N = 1024

    def build(self, **kwargs):
        weights = [1.0 + (i % 9) for i in range(self.N)]
        return ChunkedRangeSampler(
            [float(i) for i in range(self.N)], weights, rng=5, **kwargs
        )

    @staticmethod
    def spans(k):
        # Every span covers whole middle chunks, so every query uses T_chunk.
        return [(7 * j, 7 * j + 300) for j in range(k)]

    @pytest.fixture
    def shared(self, monkeypatch):
        # A capacity of its own gives this test a fresh shared store.
        monkeypatch.setenv(ENV_CAPACITY, "4093")
        store = shared_store()
        store.clear()
        yield store
        store.clear()

    def test_capacity_zero_adds_nothing_to_the_shared_store(self, shared):
        sampler = self.build(plan_cache_size=0)
        for lo, hi in self.spans(50):
            sampler.sample_span(lo, hi, 5)
            sampler.sample_span(lo, hi, 40)
        assert len(shared) == 0

    def test_private_store_bounds_everything_cached(self, shared):
        sampler = self.build(plan_cache_size=8)
        for lo, hi in self.spans(50):
            sampler.sample_span(lo, hi, 5)
        assert len(sampler.plan_cache.store) == len(sampler.plan_cache) == 8
        assert len(shared) == 0

    def test_one_shared_entry_per_distinct_span(self, shared):
        sampler = self.build()
        k = 20
        for lo, hi in self.spans(k):
            sampler.sample_span(lo, hi, 5)
            sampler.sample_span(lo, hi, 5)
        assert len(shared) == len(sampler.plan_cache) == k

    @pytest.mark.parametrize("s", [5, 40])
    def test_repeated_span_touches_no_lemma2_plan(self, shared, monkeypatch, s):
        sampler = self.build()
        t_chunk = sampler._t_chunk
        calls = {"build": 0, "lookup": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(t_chunk, "_build_plan", counting("build", t_chunk._build_plan))
        monkeypatch.setattr(t_chunk, "plan_span", counting("lookup", t_chunk.plan_span))
        sampler.sample_span(10, 500, s)
        assert calls == {"build": 1, "lookup": 0}
        sampler.sample_span(10, 500, s)
        assert calls == {"build": 1, "lookup": 0}
        assert sampler.plan_cache.hits == 1
