"""The engine's one RNG contract, checked on every registry spec.

Eq. 1 asks only that each query's output depend on its own randomness.
Every op method therefore takes a keyword ``rng`` and a seeded request
runs as ``method(*args, rng=...)``: it must never touch the sampler's
instance generator — not through an embedded sampler, a batch kernel,
or a query-time refill or rebuild (EM sample pools, set-union epochs,
the de-amortized spare pipeline). Non-thread-safe samplers serialize on
a per-instance lock only, so seeded requests on two instances run
concurrently. And a request leaves no reference cycles behind, so the
read path never feeds the cyclic garbage collector.
"""

from __future__ import annotations

import gc
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, ClassVar, List, Mapping

import pytest

from repro.core import kernels
from repro.engine import QueryRequest, SamplingEngine, build, demo_build
from repro.engine.protocol import EngineOp, EngineSampler
from repro.engine.registry import REGISTRY
from repro.substrates.rng import ensure_rng

SPECS = sorted(entry.key for entry in REGISTRY.specs())
#: Above kernels.BATCH_MIN_SIZE, and above the demo size, so requests
#: reach the batch kernels and the query-time refills and rebuilds.
BULK_S = 64
DEMO_VALUES = [float(i) for i in range(1, 65)]
DEMO_FAMILY = [list(range(j * 8, (j + 1) * 8 + 2)) for j in range(6)]

#: Forced refill and rebuild cases: (spec, build params, request, the
#: counter that must move, proving the case drew at query time).
FORCED = {
    "em.setpool(pool_size=8)": (
        "em.setpool",
        dict(values=DEMO_VALUES, rng=1, block_size=8, memory_blocks=4, pool_size=8),
        QueryRequest(op="sample", s=5),
        "rebuild_count",
    ),
    "setunion(rebuild_after=1)": (
        "setunion",
        dict(family=DEMO_FAMILY, rng=1, rebuild_after=1),
        QueryRequest(op="sample", args=([0, 1, 2],), s=3),
        "rebuild_count",
    ),
    "em.setpool.deamortized(pool_size=16)": (
        "em.setpool.deamortized",
        dict(values=DEMO_VALUES, rng=1, block_size=8, memory_blocks=4, pool_size=16),
        QueryRequest(op="sample", s=7),
        "rebuild_count",
    ),
}


def _instance_stream(sampler: Any):
    """The instance generator's state, its cached numpy generator's too."""
    rng = sampler._rng
    generator = getattr(rng, "_repro_batch_generator", None)
    return rng.getstate(), (
        None if generator is None else generator.bit_generator.state
    )


def _warm(sampler: Any) -> None:
    # Derive the instance's batch generator up front: a seeded batch
    # draw that strayed onto the instance stream would then move the
    # numpy state even where the Random's own state stays put.
    if kernels.HAVE_NUMPY:
        kernels.batch_generator(sampler._rng)


def _seeded(template: QueryRequest, s: int, count: int) -> List[QueryRequest]:
    return [
        QueryRequest(op=template.op, args=template.args, s=s, seed=1000 + index)
        for index in range(count)
    ]


def _run(sampler: Any, requests: List[QueryRequest], path: str) -> None:
    if path == "direct":
        for request in requests:
            sampler.execute(request)
        return
    engine = SamplingEngine(backend=path, seed=11, max_workers=4, errors="raise")
    try:
        engine.run(sampler, requests)
    finally:
        engine.close()


@pytest.mark.parametrize("path", ["serial", "thread", "direct"])
@pytest.mark.parametrize("spec", SPECS)
def test_seeded_requests_leave_instance_stream(spec, path):
    sampler, template = demo_build(spec)
    _warm(sampler)
    before = _instance_stream(sampler)
    _run(sampler, _seeded(template, 5, 2) + _seeded(template, BULK_S, 4), path)
    assert _instance_stream(sampler) == before


@pytest.mark.parametrize("path", ["serial", "thread", "direct"])
@pytest.mark.parametrize("case", sorted(FORCED))
def test_forced_refills_and_rebuilds_leave_instance_stream(case, path):
    spec, params, template, counter = FORCED[case]
    sampler = build(spec, **params)
    _warm(sampler)
    before = _instance_stream(sampler)
    moved_from = getattr(sampler, counter)
    _run(sampler, _seeded(template, template.s, 8), path)
    assert getattr(sampler, counter) >= moved_from + 2
    assert _instance_stream(sampler) == before


@pytest.mark.parametrize("spec", SPECS)
def test_seed_and_generator_overrides_agree(spec):
    # A seed builds a generator private to the request (a spawn op
    # re-seeds it in place); a caller's Random is spawned from instead.
    # Both must hand the op the same stream.
    by_seed, template = demo_build(spec)
    by_generator, _ = demo_build(spec)
    request = QueryRequest(op=template.op, args=template.args, s=BULK_S)
    seeded = QueryRequest(op=template.op, args=template.args, s=BULK_S, seed=7)
    expected = by_seed.execute(seeded).values
    assert by_generator.execute(request, rng=random.Random(7)).values == expected


@pytest.mark.parametrize("spec", SPECS)
def test_unseeded_execute_advances_instance_stream(spec):
    sampler, template = demo_build(spec)
    before = _instance_stream(sampler)
    for _ in range(3):
        sampler.execute(QueryRequest(op=template.op, args=template.args, s=BULK_S))
    assert _instance_stream(sampler) != before


class _BarrierSampler(EngineSampler):
    """Non-thread-safe sampler whose op waits on a shared barrier."""

    engine_ops: ClassVar[Mapping[str, EngineOp]] = {"sample": EngineOp("draw")}
    engine_thread_safe: ClassVar[bool] = False

    def __init__(self, barrier: threading.Barrier):
        self._barrier = barrier
        self._rng = ensure_rng(0)

    def draw(self, s: int, *, rng: Any = None) -> List[float]:
        self._barrier.wait()
        rng = self._rng if rng is None else rng
        return [rng.random() for _ in range(s)]


def _two_requests(seed: int) -> List[QueryRequest]:
    return [QueryRequest(op="sample", s=1, seed=seed + index) for index in range(2)]


def test_lock_is_per_instance():
    # Each instance admits one request at a time, so the barrier only
    # opens for one request of each instance at once. A process-wide
    # lock would keep the second instance out and break the barrier.
    barrier = threading.Barrier(2, timeout=10.0)
    samplers = [_BarrierSampler(barrier), _BarrierSampler(barrier)]
    engine = SamplingEngine(backend="thread", seed=3, max_workers=4)
    try:
        with ThreadPoolExecutor(max_workers=2) as callers:
            batches = [
                callers.submit(engine.run, sampler, _two_requests(10 * index))
                for index, sampler in enumerate(samplers)
            ]
            results = [
                result for batch in batches for result in batch.result(timeout=60)
            ]
    finally:
        engine.close()
    assert [result.error for result in results] == [None] * 4
    assert not barrier.broken


def test_requests_on_one_instance_serialize():
    barrier = threading.Barrier(2, timeout=0.5)
    sampler = _BarrierSampler(barrier)
    engine = SamplingEngine(backend="thread", seed=3, max_workers=2)
    try:
        results = engine.run(sampler, _two_requests(0))
    finally:
        engine.close()
    # The first request waits alone until the barrier times out; the
    # second then finds it broken.
    assert barrier.broken
    assert all(isinstance(r.error, threading.BrokenBarrierError) for r in results)


def test_per_instance_lock_keeps_rebuild_schedule_exact():
    # More workers than cores and a short switch interval: without the
    # lock, two requests could both see the rebuild due and rebuild twice,
    # or sample from a half-rebuilt index.
    family = [list(range(i, i + 20)) for i in range(0, 60, 10)]
    sampler = build("setunion", family=family, rng=1, rebuild_after=5)
    requests = [
        QueryRequest(op="sample", args=([0, 2, 4],), s=3, seed=index)
        for index in range(96)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        engine = SamplingEngine(backend="thread", max_workers=8, errors="raise")
        try:
            engine.run(sampler, requests)
        finally:
            engine.close()
    finally:
        sys.setswitchinterval(interval)
    assert sampler.total_queries == 96 * 3
    # A rebuild runs before samples 6, 11, ..., 286.
    assert sampler.rebuild_count == (96 * 3 - 1) // 5


@pytest.mark.parametrize("spec", SPECS)
def test_requests_leave_no_cyclic_garbage(spec):
    sampler, template = demo_build(spec)
    engine = SamplingEngine(backend="serial", seed=5, errors="raise")
    try:
        engine.run(sampler, [template])  # warm lazy caches
        gc.collect()
        gc.disable()
        try:
            engine.run(sampler, [template] * 50)
            unreachable = gc.collect()
        finally:
            gc.enable()
    finally:
        engine.close()
    assert unreachable == 0
