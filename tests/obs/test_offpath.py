"""The disabled path must be free: no counts, no stream drift, no time.

Three contracts when ``REPRO_METRICS`` is off (the default):

1. Counters stay untouched — instrumented code never records.
2. Seeded sample streams are byte-identical to a metrics-on run —
   instrumentation never consumes randomness.
3. The guard overhead is within 5% of an instrumentation-absent build —
   measured against a hand-inlined twin of the scalar alias loop, the
   hottest instrumented call site.
"""

import statistics
import time

from repro import obs
from repro.core.alias import AliasSampler, alias_draw
from repro.core.range_sampler import (
    AliasAugmentedRangeSampler,
    ChunkedRangeSampler,
    TreeWalkRangeSampler,
)
from repro.em.em_range_sampler import EMRangeSampler
from repro.em.model import EMMachine


def _keys(n):
    return [float(v) for v in range(n)]


def _workload(seed_base=100):
    """One pass over every instrumented sampler family; returns outputs."""
    out = {}
    keys = _keys(2_048)
    out["alias"] = AliasSampler(keys, rng=seed_base).sample_many(50)
    for name, cls in (
        ("treewalk", TreeWalkRangeSampler),
        ("lemma2", AliasAugmentedRangeSampler),
        ("chunked", ChunkedRangeSampler),
    ):
        sampler = cls(keys, rng=seed_base + 1)
        out[name] = sampler.sample(10.0, 1_500.0, 40)
        out[name + ".wor"] = sampler.sample_without_replacement(10.0, 1_500.0, 20)
    machine = EMMachine(block_size=16, memory_blocks=4)
    em = EMRangeSampler(machine, keys[:512], rng=seed_base + 2, pool_blocks=2)
    out["em"] = em.query(5.0, 300.0, 25)
    return out


class TestCountersUntouchedWhenDisabled:
    def test_no_counts_recorded(self, metrics_off):
        _workload()
        snap = obs.snapshot()
        assert snap["enabled"] is False
        assert all(v == 0 for v in snap["counters"].values())
        assert snap["spans"] == []

    def test_counts_recorded_when_enabled(self, metrics_on):
        _workload()
        counters = obs.snapshot()["counters"]
        for name in (
            "alias.draws",
            "range.treewalk.node_visits",
            "range.lemma2.urn_probes",
            "range.chunked.chunk_touches",
            "wor.draws",
            "em.block_reads",
            "em.queries",
            "bst.covers",
        ):
            assert counters[name] > 0, name


class TestStreamsIdentical:
    def test_seeded_outputs_byte_identical_on_and_off(self):
        saved = obs.ENABLED
        try:
            obs.disable()
            off = _workload()
            obs.enable()
            obs.reset()
            on = _workload()
        finally:
            obs.reset()
            (obs.enable if saved else obs.disable)()
        assert off == on


def _median_paired_ratio(fn_a, fn_b, rounds=41):
    """Median over rounds of ``time(fn_a) / time(fn_b)``, timed in pairs.

    Each round times both callables back to back and keeps their ratio,
    so slow drift — CPU frequency scaling, cache warmth, a background
    process — lands on both sides of a pair instead of on whichever ran
    in a quieter moment. Which side runs first alternates every round,
    and the median discards the rounds a burst of noise hit.
    """
    ratios = []
    for index in range(rounds):
        pair = {}
        for name, fn in (("a", fn_a), ("b", fn_b))[:: 1 if index % 2 else -1]:
            start = time.process_time()
            fn()
            pair[name] = time.process_time() - start
        ratios.append(pair["a"] / pair["b"])
    return statistics.median(ratios)


class TestOffPathOverhead:
    """Disabled-metrics sampling within 5% of an instrumentation-absent twin.

    The twin is the pre-instrumentation body of ``AliasSampler.sample_many``
    (scalar path) inlined by hand; the instrumented method adds exactly one
    ``if obs.ENABLED:`` guard per call. ``time.process_time`` and the
    median of per-round paired ratios keep scheduler noise out of the 5%
    budget.
    """

    S = 20_000

    def test_disabled_guard_within_five_percent(self, metrics_off):
        from repro.core import kernels
        from repro.validation import validate_sample_size

        sampler = AliasSampler(list(range(1_024)), rng=31)
        s = self.S

        def twin():
            # sample_many minus the `if obs.ENABLED:` guard, nothing else.
            validate_sample_size(s)
            items = sampler._items
            if kernels.use_batch(s):
                return [items[i] for i in sampler._batch_indices(s)]
            prob, alias, rng = sampler._prob, sampler._alias, sampler._rng
            return [items[alias_draw(prob, alias, rng)] for _ in range(s)]

        saved = kernels.HAVE_NUMPY
        kernels.HAVE_NUMPY = False
        try:
            # Warm both paths, then measure them in pairs.
            sampler.sample_many(s)
            twin()
            ratio = _median_paired_ratio(lambda: sampler.sample_many(s), twin)
        finally:
            kernels.HAVE_NUMPY = saved
        assert ratio <= 1.05, (
            f"disabled-metrics path takes {ratio:.3f}x the bare twin's time, "
            f"over the 5% off-path budget"
        )
