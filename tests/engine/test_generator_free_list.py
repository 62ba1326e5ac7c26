"""The per-thread free list of numpy generators (``repro.substrates.rng``).

A seeded engine request keys a recycled ``Generator(PCG64DXSM)`` instead
of seeding a new one. These tests pin the rules that keep that safe: the
engine releases only the streams it built for one call, a generator
belongs to at most one live stream, release detaches it, the list stays
as short as the number of streams live at once, and a request that
raises still gives its generator back.
"""

from __future__ import annotations

import random
import threading
from typing import Any, ClassVar, List, Mapping

import pytest

from repro.core import kernels
from repro.engine import QueryRequest, SamplingEngine, demo_build
from repro.engine.protocol import EngineOp, EngineSampler
from repro.engine.shard import ShardedSampler
from repro.substrates.rng import GENERATOR_ATTR, free_generators, release_stream

pytestmark = pytest.mark.skipif(
    not kernels.HAVE_NUMPY, reason="the free list holds numpy generators"
)


class _Probe(EngineSampler):
    """Borrows its stream's numpy generator; records it and, on op
    ``fail``, raises after borrowing."""

    engine_ops: ClassVar[Mapping[str, EngineOp]] = {
        "draw": EngineOp("draw"),
        "fail": EngineOp("fail"),
    }
    engine_thread_safe: ClassVar[bool] = True

    def __init__(self):
        self.generators: List[Any] = []

    def draw(self, s: int, *, rng: Any = None) -> List[float]:
        generator = kernels.batch_generator(rng)
        self.generators.append(generator)
        return generator.random(s).tolist()

    def fail(self, s: int, *, rng: Any = None) -> List[float]:
        self.generators.append(kernels.batch_generator(rng))
        raise RuntimeError("after the borrow")


def test_consecutive_requests_reuse_one_generator_for_different_streams():
    probe = _Probe()
    with SamplingEngine(backend="serial", seed=3) as engine:
        first, second = engine.run(probe, [QueryRequest(op="draw", s=8)] * 2)
    assert probe.generators[0] is probe.generators[1]
    assert first.values != second.values


def test_release_detaches_and_a_reused_random_gets_a_new_stream():
    rng = random.Random(1)
    generator = kernels.batch_generator(rng)
    keyed = generator.bit_generator.state
    release_stream(rng)
    assert not hasattr(rng, GENERATOR_ATTR)
    assert free_generators()[-1] is generator
    again = kernels.batch_generator(rng)
    assert again is generator  # popped back off this thread's list
    assert again.bit_generator.state != keyed


def test_nested_sharded_streams_never_share_a_generator(monkeypatch):
    seen: List[random.Random] = []
    most_live = [0]
    borrow = kernels.batch_generator

    def tracked(rng):
        generator = borrow(rng)
        if all(other is not rng for other in seen):
            seen.append(rng)
        held = [getattr(r, GENERATOR_ATTR, None) for r in seen]
        held = [g for g in held if g is not None]
        assert len({id(g) for g in held}) == len(held)
        most_live[0] = max(most_live[0], len(held))
        return generator

    fan_out = ShardedSampler._fan_out

    def holding_fan_out(self, lo, hi, s, rng=None, span=None):
        # The request's own stream holds a generator across the fan-out,
        # as an op mixing its own batch draw with the split would.
        kernels.batch_generator(rng)
        return fan_out(self, lo, hi, s, rng, span)

    monkeypatch.setattr(kernels, "batch_generator", tracked)
    monkeypatch.setattr(ShardedSampler, "_fan_out", holding_fan_out)
    sampler, template = demo_build("range.chunked")
    requests = [QueryRequest(op="sample", args=template.args, s=64)] * 20
    with SamplingEngine(placement="sharded", backend="serial", shards=2, seed=5) as engine:
        results = engine.run(sampler, requests)
    assert all(result.ok for result in results)
    # the request's stream beside the split stream or a shard stream
    assert most_live[0] == 2
    assert len(seen) >= 3 * len(requests)


@pytest.mark.parametrize(
    "placement,backend", [(None, "serial"), (None, "thread"), ("sharded", "thread")]
)
def test_free_list_stays_short(placement, backend):
    sampler, template = demo_build("range.chunked")
    requests = [QueryRequest(op="sample", args=template.args, s=16)] * 10_000
    with SamplingEngine(
        placement=placement, backend=backend, shards=2, max_workers=2, seed=9
    ) as engine:
        assert all(result.ok for result in engine.run(sampler, requests))
        lengths = [len(free_generators())]
        if backend == "thread":
            # One task per pool thread: each waits for the other.
            barrier = threading.Barrier(2, timeout=30)

            def length():
                barrier.wait()
                return len(free_generators())

            tasks = [engine._threads.submit(length) for _ in range(2)]
            lengths += [task.result(timeout=60) for task in tasks]
    assert max(lengths) <= 3


def test_a_callers_random_keeps_its_generator():
    sampler, template = demo_build("range.chunked")
    request = QueryRequest(op="sample", args=template.args, s=64)
    rng = random.Random(11)
    sampler.execute(request, rng=rng)
    generator = getattr(rng, GENERATOR_ATTR)
    sampler.execute(request, rng=rng)
    assert getattr(rng, GENERATOR_ATTR) is generator
    assert all(g is not generator for g in free_generators())


def test_a_request_that_raises_returns_its_generator():
    probe = _Probe()
    with pytest.raises(RuntimeError):
        probe.execute(QueryRequest(op="fail", s=1, seed=4))
    assert free_generators()[-1] is probe.generators[0]
    with SamplingEngine(backend="serial", seed=2) as engine:
        (result,) = engine.run(probe, [QueryRequest(op="fail", s=1)])
    assert isinstance(result.error, RuntimeError)
    assert free_generators()[-1] is probe.generators[1]
