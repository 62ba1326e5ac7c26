"""E3 — the headline table: IQS range sampling vs report-then-sample
across selectivities (Lemma 2, Theorem 3 vs §1 naive)."""

import pytest

from repro.apps.workloads import (
    distinct_uniform_reals,
    interval_with_selectivity,
    zipf_weights,
)
from repro.engine import build

N = 100_000
S = 16
SELECTIVITIES = [0.01, 0.1, 0.5]


@pytest.fixture(scope="module")
def dataset():
    keys = distinct_uniform_reals(N, rng=1)
    weights = zipf_weights(N, alpha=0.8, rng=2)
    queries = {
        selectivity: interval_with_selectivity(keys, selectivity, rng=3)
        for selectivity in SELECTIVITIES
    }
    return keys, weights, queries


SAMPLERS = {
    "naive": "range.naive",
    "treewalk": "range.treewalk",
    "lemma2": "range.lemma2",
    "theorem3": "range.chunked",
}


@pytest.mark.parametrize("selectivity", SELECTIVITIES)
@pytest.mark.parametrize("name", list(SAMPLERS))
def bench_range_query(benchmark, dataset, name, selectivity):
    keys, weights, queries = dataset
    sampler = build(SAMPLERS[name], keys=keys, weights=weights, rng=4)
    x, y = queries[selectivity]
    benchmark.group = f"e3-selectivity-{selectivity}"
    benchmark(lambda: sampler.sample(x, y, S))


@pytest.mark.parametrize("s", [1, 64, 1024])
def bench_theorem3_sample_size_sweep(benchmark, dataset, s):
    keys, weights, queries = dataset
    sampler = build("range.chunked", keys=keys, weights=weights, rng=5)
    x, y = queries[0.1]
    benchmark.group = "e3-s-sweep"
    benchmark(lambda: sampler.sample(x, y, s))


@pytest.mark.parametrize("name", list(SAMPLERS))
def bench_range_scalar_vs_batch(benchmark, dataset, batch_mode, name):
    """Scalar-vs-batch comparison column: s = 10⁴ draws at selectivity 0.5."""
    keys, weights, queries = dataset
    sampler = build(SAMPLERS[name], keys=keys, weights=weights, rng=6)
    x, y = queries[0.5]
    sampler.sample(x, y, 10_000)  # warm lazy kernel caches
    benchmark.group = f"e3-batch-vs-scalar-{name}"
    benchmark.extra_info["mode"] = batch_mode
    benchmark(lambda: sampler.sample(x, y, 10_000))


@pytest.mark.parametrize("name", ["treewalk", "lemma2", "theorem3"])
def bench_build_scalar_vs_batch(benchmark, dataset, batch_mode, name):
    """Construction column (PR 2): vectorized vs pure-Python structure
    build. The Lemma-2 row exercises the flat segmented Vose kernel over
    all O(n log n) urns; the Theorem-3 row the packed per-chunk build."""
    keys, weights, _ = dataset
    benchmark.group = f"e3-build-batch-vs-scalar-{name}"
    benchmark.extra_info["mode"] = batch_mode
    benchmark(lambda: build(SAMPLERS[name], keys=keys, weights=weights, rng=7))


@pytest.mark.parametrize("cache", ["cold", "warm"])
@pytest.mark.parametrize("name", ["treewalk", "theorem3"])
def bench_repeated_range_plan_cache(benchmark, dataset, name, cache):
    """Warm vs cold plan cache on a hot-range workload (PR 2).

    ``cold`` disables the sampler's plan cache (``plan_cache_size=0``),
    ``warm`` uses the default capacity; EXPERIMENTS.md records the
    latency ratio.
    """
    keys, weights, queries = dataset
    x, y = queries[0.1]
    cache_size = 0 if cache == "cold" else None
    sampler = build(
        SAMPLERS[name], keys=keys, weights=weights, rng=8, plan_cache_size=cache_size
    )
    sampler.sample(x, y, 4)  # prime the plan (a no-op when disabled)
    benchmark.group = f"e3-plan-cache-{name}"
    benchmark.extra_info["mode"] = cache
    benchmark(lambda: sampler.sample(x, y, 4))
