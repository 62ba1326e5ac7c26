"""E18 — design ablations: the knobs DESIGN.md calls out, swept one at a time.

* Theorem 3's chunk size (the paper picks Θ(log n): tiny chunks blow up
  T_chunk, huge chunks blow up the partial-chunk scans);
* the EM range sampler's pool size (refill amortisation vs space);
* the fair-NN grid count L (candidate quality vs set-family size);
* the Theorem-8 sketch size k (estimate accuracy vs merge cost);
* the kd-tree coverage backend (Theorem-3 chunks vs per-node alias tables);
* the plan cache on a repeated-range workload (16 hot spans of ~3,000
  keys, 160 queries per round; off = ``plan_cache_size=0``).
"""

from __future__ import annotations

from repro.apps.workloads import (
    clustered_points,
    distinct_uniform_reals,
    interval_with_selectivity,
    overlapping_sets,
    uniform_points,
    zipf_weights,
)
from repro.em.model import EMMachine
from repro.engine import build
from repro.experiments.runner import ExperimentResult, time_per_call
from repro.substrates.kdtree import KDTree
from repro.substrates.rng import ensure_rng

HOT_SPANS = 16
HOT_SPAN_KEYS = 3_000


def run(quick: bool = False) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="e18",
        title="Design ablations",
        claim="each knob trades query time against space, accuracy or candidate "
        "quality (this is the time side); the plan cache cuts query time at every s",
        columns=["ablation", "setting", "us_per_query"],
    )

    # Calls per timed round: a full-size plan-cache round is 10 passes over
    # the hot spans, 160 queries.
    calls = 2 if quick else 10

    def add(ablation: str, setting, query, queries_per_call: int = 1) -> None:
        seconds = time_per_call(query, repeats=5, inner=calls) / queries_per_call
        result.add_row(ablation, setting, seconds * 1e6)

    n = 1 << 12 if quick else 1 << 15
    keys = distinct_uniform_reals(n, rng=1)
    weights = zipf_weights(n, rng=2)
    x, y = keys[n // 10], keys[9 * n // 10]
    for chunk_size in (2, 15, 120, 1000):
        sampler = build(
            "range.chunked", keys=keys, weights=weights, rng=3, chunk_size=chunk_size
        )
        add("chunk_size", chunk_size, lambda: sampler.sample(x, y, 16))

    values = [float(i) for i in range(1 << 12)]
    for pool_blocks in (1, 4, 16):
        machine = EMMachine(block_size=64, memory_blocks=16)
        ranger = build("range.em", machine=machine, values=values, rng=4, pool_blocks=pool_blocks)
        ranger.query(values[0], values[-1], 64)  # fill the pools
        add("pool_blocks", pool_blocks, lambda: ranger.query(values[0], values[-1], 64))

    points = clustered_points(2_000 if quick else 5_000, 2, clusters=8, spread=0.05, rng=5)
    for num_grids in (1, 2, 4):
        fair = build("fair_nn", points=points, radius=0.05, num_grids=num_grids, rng=6)
        add("num_grids", num_grids, lambda: fair.sample(points[0]))

    family = overlapping_sets(10, 250 if quick else 1000, 750 if quick else 3000, rng=7)
    group = list(range(6))
    for sketch_k in (8, 64, 256):
        union = build("setunion", family=family, rng=8, sketch_k=sketch_k, rebuild_after=0)
        add("sketch_k", sketch_k, lambda: union.sample(group))

    spatial_n = 1 << 12 if quick else 1 << 14
    kd = KDTree(
        uniform_points(spatial_n, 2, rng=1), zipf_weights(spatial_n, alpha=0.5, rng=2), leaf_size=8
    )
    rect = [(0.25, 0.75), (0.25, 0.75)]
    for backend in ("alias", "chunked"):
        covered = build("coverage", index=kd, backend=backend, rng=5)
        add("kd_backend", backend, lambda: covered.sample(rect, 16))

    hot_n = 50_000 if quick else 100_000
    hot_keys = distinct_uniform_reals(hot_n, rng=1)
    hot_weights = zipf_weights(hot_n, alpha=0.8, rng=2)
    span_rng = ensure_rng(3)
    spans = [
        interval_with_selectivity(hot_keys, HOT_SPAN_KEYS / hot_n, rng=span_rng)
        for _ in range(HOT_SPANS)
    ]
    for name, spec in (("treewalk", "range.treewalk"), ("theorem3", "range.chunked")):
        samplers = {
            cache: build(spec, keys=hot_keys, weights=hot_weights, rng=8, plan_cache_size=size)
            for cache, size in (("off", 0), ("on", None))
        }
        for s in (1, 4, 8):
            for cache, sampler in samplers.items():

                def hot_pass():
                    for lo, hi in spans:
                        sampler.sample(lo, hi, s)

                hot_pass()  # build every plan before timing (no-op when off)
                add(f"plan_cache {name} s={s}", cache, hot_pass, HOT_SPANS)
    result.add_note(
        "run under REPRO_DISABLE_NUMPY=1 for the scalar tier; the plan-cache rows "
        "pay the per-query cover walk and cover-table build only when off"
    )
    return result
