"""Engine executor benches: batched range queries across all backends.

The :class:`~repro.engine.executor.SamplingEngine` promises things a
benchmark can check: (1) the thread backend returns the *same* results as
the serial backend when every request runs on its own spawned seed;
(2) fanning a large batch over threads is profitable when the sampler's
hot path drops the GIL in numpy kernels; (3) the process backend lifts
the GIL off CPU-bound *scalar* samplers entirely (workers keep rebuilt
samplers resident, so the pool pays one build per worker, not per
request); (4) the shard backend's §4.1 multinomial split scales with the
shard count K — the ``engine-shard-scaling`` group records the K ∈
{1, 2, 4, 8} curve. On runners without enough cores the speedup claims
are vacuous, so those tests skip themselves there.

``REPRO_BENCH_QUICK=1`` shrinks the GIL-bound speedup workload for smoke
runs.
"""

import os
import time

import pytest

from repro.engine import QueryRequest, SamplingEngine, build, spec_token
from repro.substrates.env import env_flag

N = 1 << 14
BATCH = 1000
S = 8
QUICK = env_flag("REPRO_BENCH_QUICK")
SHARD_COUNTS = (1, 2, 4, 8)


@pytest.fixture(scope="module")
def sampler():
    return build("range.chunked", keys=[float(i) for i in range(N)], rng=1)


@pytest.fixture(scope="module")
def requests():
    # 1000 distinct intervals marching across the key space.
    return [
        QueryRequest(
            op="sample",
            args=(float(i % (N // 2)), float(i % (N // 2) + N // 2)),
            s=S,
        )
        for i in range(BATCH)
    ]


def bench_engine_serial(benchmark, sampler, requests):
    engine = SamplingEngine(backend="serial", seed=7)
    benchmark.group = "engine-backend"
    benchmark(lambda: engine.run(sampler, requests))


def bench_engine_thread(benchmark, sampler, requests):
    engine = SamplingEngine(backend="thread", seed=7)
    benchmark.group = "engine-backend"
    benchmark(lambda: engine.run(sampler, requests))


def bench_engine_process(benchmark, requests):
    keys = [float(i) for i in range(N)]
    token = spec_token("range.chunked", {"keys": keys, "rng": 1})
    with SamplingEngine(backend="process", seed=7, max_workers=2) as engine:
        engine.run_token(token, requests[:8])  # fork workers, build resident
        benchmark.group = "engine-backend"
        benchmark(lambda: engine.run_token(token, requests))


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def bench_engine_shard_scaling(benchmark, sampler, requests, shards):
    """One curve point per K: batched queries through the K-shard view."""
    engine = SamplingEngine(placement="sharded", backend="thread", seed=7, shards=shards)
    engine.run(sampler, requests[:8])  # build + memoize the K-shard view
    benchmark.group = "engine-shard-scaling"
    benchmark.extra_info["shards"] = shards
    benchmark(lambda: engine.run(sampler, requests))


def test_thread_matches_serial(sampler, requests):
    """Same engine seed → identical per-request results on both backends."""
    serial = SamplingEngine(backend="serial", seed=7).run(sampler, requests)
    threaded = SamplingEngine(backend="thread", seed=7).run(sampler, requests)
    assert [r.values for r in serial] == [r.values for r in threaded]
    assert [r.seed for r in serial] == [r.seed for r in threaded]


def test_thread_speedup_on_multicore(sampler, requests):
    """The thread backend must not be slower than serial on multicore."""
    if (os.cpu_count() or 1) < 2:
        pytest.skip("single-core runner — no parallel speedup to measure")
    serial = SamplingEngine(backend="serial", seed=7)
    threaded = SamplingEngine(backend="thread", seed=7)
    for engine in (serial, threaded):  # warm caches before timing
        engine.run(sampler, requests[:32])
    started = time.perf_counter()
    serial.run(sampler, requests)
    serial_s = time.perf_counter() - started
    started = time.perf_counter()
    threaded.run(sampler, requests)
    thread_s = time.perf_counter() - started
    # Generous bound: threads must at least roughly keep pace; CI boxes
    # are noisy, so this guards against pathological serialization only.
    assert thread_s < serial_s * 1.5


def test_shard_scaling_stays_deterministic(sampler, requests):
    """Every K on the curve reproduces the same engine-seeded batch."""
    per_k = {}
    for shards in SHARD_COUNTS:
        engine = SamplingEngine(
            placement="sharded", backend="thread", seed=7, shards=shards
        )
        first = engine.run(sampler, requests[:32])
        second = engine.run(sampler, requests[:32])
        assert [r.values for r in first] == [r.values for r in second]
        per_k[shards] = [r.values for r in first]
    # K = 1 is a genuine single-shard execution, not a serial alias.
    assert all(values is not None for values in per_k[1])


def test_process_speedup_on_gil_bound_scalar_sampler():
    """Acceptance: ≥ 2x over serial on a scalar treewalk, n=1e5, s=1e4.

    The treewalk's per-draw root-to-leaf descent is pure Python when the
    numpy kernels are disabled, so the thread backend cannot help (the
    GIL serializes it) while the process backend parallelizes across
    cores. Needs enough cores for 2x to be reachable.
    """
    if (os.cpu_count() or 1) < 3:
        pytest.skip("needs >= 3 cores for a meaningful 2x process speedup")
    from repro.core import kernels

    n = 10_000 if QUICK else 100_000
    s = 2_000 if QUICK else 10_000
    keys = [float(i) for i in range(n)]
    params = {"keys": keys, "rng": 1}
    requests = [
        QueryRequest(op="sample", args=(0.0, float(n)), s=s) for _ in range(8)
    ]
    saved = kernels.HAVE_NUMPY
    kernels.HAVE_NUMPY = False  # force the GIL-bound scalar hot loops
    os.environ["REPRO_DISABLE_NUMPY"] = "1"  # workers forked later follow
    try:
        sampler = build("range.treewalk", **params)
        serial_engine = SamplingEngine(backend="serial", seed=7)
        serial_engine.run(sampler, requests[:1])  # warm plan caches
        started = time.perf_counter()
        serial_engine.run(sampler, requests)
        serial_s = time.perf_counter() - started
        token = spec_token("range.treewalk", params)
        with SamplingEngine(backend="process", seed=7, max_workers=4) as engine:
            engine.run_token(token, requests)  # fork + resident builds
            started = time.perf_counter()
            engine.run_token(token, requests)
            process_s = time.perf_counter() - started
    finally:
        kernels.HAVE_NUMPY = saved
        os.environ.pop("REPRO_DISABLE_NUMPY", None)
    assert process_s * 2.0 <= serial_s, (
        f"process backend {process_s:.3f}s vs serial {serial_s:.3f}s "
        f"— expected >= 2x speedup"
    )
