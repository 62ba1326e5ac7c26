"""Plan-layer exporter (``BENCH_10.json``).

Measures the plan → execute split end to end and exports one diffable
JSON artifact per CI run:

* **Plan latency** — cold cover computation vs warm plan-store fetch,
  per plan kind (treewalk / lemma2 / chunked), in microseconds.
* **Warm-path draw latency gate** — the refactor's no-regression claim,
  measured machine-independently: a warm ``sample_span`` is a plan-store
  fetch plus ``execute_plan``, so the fetch overhead is
  ``(warm_sample - execute_only) / warm_sample`` against an
  execute-only baseline holding a prefetched plan (its draw made a
  list the way ``sample_span`` makes one). ``--gate`` fails the
  run when any kind's overhead exceeds ``GATE_OVERHEAD`` (5%) — i.e.
  the plan layer must be invisible on the warm draw path.
* **Cover computations per request vs shard count** — for K ∈ {2, 4, 8}
  a warm sharded batch must plan exactly once: ``engine.plan_builds``
  stays at 1 while ``engine.plan_reuse`` absorbs the rest, and the
  per-request cover computation count collapses to 1/requests.

A standalone script (no ``bench_*`` functions, so pytest collects
nothing from it). Run::

    python benchmarks/bench_plan_layer.py --out BENCH_10.json [--quick] [--gate]

Schema::

    {
      "workload": "plan_layer",
      "n": ..., "s": ..., "iters": ..., "cpu_count": ...,
      "plan_latency": [
        {"kind": ..., "cold_build_us": ..., "warm_fetch_us": ...,
         "speedup": ...}, ...
      ],
      "warm_path": [
        {"kind": ..., "warm_sample_us": ..., "execute_only_us": ...,
         "plan_fetch_overhead": ...}, ...
      ],
      "sharded": [
        {"shards": ..., "requests": ..., "plan_builds": ...,
         "plan_reuse": ..., "reuse_rate": ...,
         "cover_computations_per_request": ...,
         "plan_cache_hits": ..., "plan_cache_misses": ...}, ...
      ],
      "gate": {"enforced": bool, "budget": ..., "max_overhead": ...,
               "ok": bool}
    }
"""

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import obs  # noqa: E402
from repro.core.range_sampler import (  # noqa: E402
    AliasAugmentedRangeSampler,
    ChunkedRangeSampler,
    TreeWalkRangeSampler,
)
from repro.engine import SamplingEngine  # noqa: E402
from repro.engine.protocol import QueryRequest  # noqa: E402

KINDS = [
    ("treewalk", TreeWalkRangeSampler),
    ("lemma2", AliasAugmentedRangeSampler),
    ("chunked", ChunkedRangeSampler),
]
#: Warm-draw budget under ``--gate``: the plan-store fetch may cost at
#: most this fraction of a warm sample_span (interleaved minima).
GATE_OVERHEAD = 0.05
SHARD_COUNTS = (2, 4, 8)


def make_keys(n):
    return [float(i) for i in range(1, n + 1)]


def make_weights(n):
    return [1.0 + (i % 9) for i in range(n)]


def median_us(samples):
    return statistics.median(samples) * 1e6


def bench_plan_latency(sampler_cls, keys, weights, spans, iters):
    """(cold_build_us, warm_fetch_us) medians for one plan kind."""
    # Cold: capacity 0 bypasses the store, so every plan_span call is a
    # full cover computation.
    cold_sampler = sampler_cls(keys, weights, rng=1, plan_cache_size=0)
    cold = []
    for index in range(iters):
        lo, hi = spans[index % len(spans)]
        start = time.perf_counter()
        cold_sampler.plan_span(lo, hi)
        cold.append(time.perf_counter() - start)
    # Warm: one priming build, then every fetch is a store hit.
    warm_sampler = sampler_cls(keys, weights, rng=1, plan_cache_size=64)
    for lo, hi in spans:
        warm_sampler.plan_span(lo, hi)
    warm = []
    for index in range(iters):
        lo, hi = spans[index % len(spans)]
        start = time.perf_counter()
        warm_sampler.plan_span(lo, hi)
        warm.append(time.perf_counter() - start)
    return median_us(cold), median_us(warm)


def bench_warm_path(sampler_cls, keys, weights, span, s, iters, rounds=3):
    """(warm_sample_us, execute_only_us) minima for one plan kind.

    The two legs are *interleaved* (alternating order within each
    iteration) so clock-frequency and GC drift over the run cancels
    instead of landing entirely on whichever leg runs second, and the
    estimator is the minimum — timing noise is strictly additive, so
    the min converges on the true cost of each leg. Best of ``rounds``
    by overhead, since the gate asks "can the warm path match
    execute-only", not "does it on every sample".
    """
    sampler = sampler_cls(keys, weights, rng=3)
    lo, hi = span
    sampler.sample_span(lo, hi, s)  # prime the plan store
    plan = sampler.plan_span(lo, hi)

    def execute_only_listed():
        # ``execute_plan`` keeps a batch draw's intp array; turn it into
        # a list exactly as ``sample_span`` does, so the two legs differ
        # only by validation and the plan fetch.
        indices = sampler.execute_plan(plan, s)
        return indices if isinstance(indices, list) else indices.tolist()

    best = None
    for _ in range(rounds):
        warm = []
        execute_only = []
        for index in range(iters):
            legs = [
                (warm, lambda: sampler.sample_span(lo, hi, s)),
                (execute_only, execute_only_listed),
            ]
            if index % 2:
                legs.reverse()
            for sink, leg in legs:
                start = time.perf_counter()
                leg()
                sink.append(time.perf_counter() - start)
        pair = (min(warm) * 1e6, min(execute_only) * 1e6)
        overhead = pair[0] - pair[1]
        if best is None or overhead < best[0]:
            best = (overhead, pair)
    return best[1]


def bench_sharded(keys, weights, span, shards, requests, s):
    """Cover-computation accounting for one warm sharded batch."""
    saved = obs.ENABLED
    obs.enable()
    obs.reset()
    try:
        sampler = ChunkedRangeSampler(keys, weights, rng=5)
        lo, hi = span
        batch = [
            QueryRequest(op="sample", args=(keys[lo], keys[hi - 1]), s=s)
            for _ in range(requests)
        ]
        with SamplingEngine(
            backend="serial", placement="sharded", seed=42, shards=shards
        ) as engine:
            results = engine.run(sampler, batch)
        for result in results:
            if result.error is not None:
                raise RuntimeError(f"sharded batch failed: {result.error!r}")
        builds = obs.value("engine.plan_builds")
        reuse = obs.value("engine.plan_reuse")
        hits = obs.value("plan_cache.hits")
        misses = obs.value("plan_cache.misses")
    finally:
        obs.reset()
        (obs.enable if saved else obs.disable)()
    return {
        "shards": shards,
        "requests": requests,
        "plan_builds": builds,
        "plan_reuse": reuse,
        "reuse_rate": reuse / (builds + reuse) if builds + reuse else 0.0,
        "cover_computations_per_request": builds / requests,
        "plan_cache_hits": hits,
        "plan_cache_misses": misses,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_10.json", help="output path")
    parser.add_argument(
        "--quick", action="store_true", help="small workload for smoke runs"
    )
    parser.add_argument(
        "--gate",
        action="store_true",
        help=f"fail when the warm-path plan-fetch overhead exceeds "
        f"{GATE_OVERHEAD:.0%} for any plan kind",
    )
    args = parser.parse_args(argv)

    if args.quick:
        n, s, iters, requests = 8_192, 256, 300, 16
    else:
        n, s, iters, requests = 50_000, 512, 800, 32

    keys = make_keys(n)
    weights = make_weights(n)
    span = (n // 8, (7 * n) // 8)
    spans = [
        (n // 8 + offset, (7 * n) // 8 - offset)
        for offset in range(0, n // 4, max(1, n // 64))
    ]

    plan_latency = []
    warm_path = []
    for kind, sampler_cls in KINDS:
        cold_us, warm_us = bench_plan_latency(
            sampler_cls, keys, weights, spans, iters
        )
        plan_latency.append(
            {
                "kind": kind,
                "cold_build_us": cold_us,
                "warm_fetch_us": warm_us,
                "speedup": cold_us / warm_us if warm_us else float("inf"),
            }
        )
        warm_sample_us, execute_only_us = bench_warm_path(
            sampler_cls, keys, weights, span, s, iters
        )
        overhead = (
            max(0.0, (warm_sample_us - execute_only_us) / warm_sample_us)
            if warm_sample_us
            else 0.0
        )
        warm_path.append(
            {
                "kind": kind,
                "warm_sample_us": warm_sample_us,
                "execute_only_us": execute_only_us,
                "plan_fetch_overhead": overhead,
            }
        )
        print(
            f"{kind:<9} plan: cold={cold_us:8.1f}us warm={warm_us:7.2f}us  "
            f"draw: warm={warm_sample_us:8.1f}us "
            f"exec-only={execute_only_us:8.1f}us "
            f"overhead={overhead:6.2%}",
            file=sys.stderr,
        )

    sharded = [
        bench_sharded(keys, weights, span, shards, requests, s)
        for shards in SHARD_COUNTS
    ]
    for row in sharded:
        print(
            f"sharded K={row['shards']}: builds={row['plan_builds']} "
            f"reuse={row['plan_reuse']} "
            f"covers/request={row['cover_computations_per_request']:.3f}",
            file=sys.stderr,
        )
        if row["plan_builds"] != 1:
            print(
                "** warm sharded batch planned more than once **",
                file=sys.stderr,
            )
            return 1

    max_overhead = max(row["plan_fetch_overhead"] for row in warm_path)
    gate_ok = max_overhead <= GATE_OVERHEAD
    print(
        f"warm-path plan-fetch overhead: max={max_overhead:.2%} "
        f"(budget {GATE_OVERHEAD:.0%}, "
        + ("enforced" if args.gate else "not enforced")
        + (")" if gate_ok or not args.gate else ")  ** OVER BUDGET **"),
        file=sys.stderr,
    )

    report = {
        "workload": "plan_layer",
        "n": n,
        "s": s,
        "iters": iters,
        "cpu_count": os.cpu_count() or 1,
        "plan_latency": plan_latency,
        "warm_path": warm_path,
        "sharded": sharded,
        "gate": {
            "enforced": args.gate,
            "budget": GATE_OVERHEAD,
            "max_overhead": max_overhead,
            "ok": gate_ok,
        },
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    if args.gate and not gate_ok:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
