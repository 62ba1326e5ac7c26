"""The engine's one RNG contract, checked on every registry spec.

Eq. 1 asks only that each query's output depend on its own randomness.
Every op method therefore takes a keyword ``rng`` and a seeded request
runs as ``method(*args, rng=...)``: it must never touch the sampler's
instance generator — not through an embedded sampler, a batch kernel,
or a query-time refill or rebuild (EM sample pools, set-union epochs,
the de-amortized spare pipeline). Non-thread-safe samplers serialize on
a per-instance lock only, so seeded requests on two instances run
concurrently, and the thread backend runs a batch on one of them in
submission order. And a request leaves no reference cycles behind, so the
read path never feeds the cyclic garbage collector.
"""

from __future__ import annotations

import gc
import random
import sys
import threading
import time
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


#: Specs with non-spawn ops: an int ``rng`` passed to the op method
#: directly seeds the stream a seeded request runs on (normalized once
#: per call, as the ``RNGLike`` annotation promises).
INT_SEED_SPECS = (
    "alias",
    "coverage",
    "coverage.halfplane",
    "coverage.kdtree",
    "coverage.quadtree",
    "coverage.rangetree",
    "range.chunked",
    "range.integer",
    "range.lemma2",
    "range.naive",
    "range.treewalk",
    "tree.flat",
    "tree.topdown",
)


def _outcome(call):
    """A call's value, or the type and message of what it raised."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("s", [4, BULK_S])
def test_every_op_takes_an_int_rng(spec, s):
    # Normalized once at each op method's entry, never per draw or per
    # round: an int seeds exactly the stream random.Random(int) gives.
    first, template = demo_build(spec)
    for op in sorted(first.engine_ops):
        outcomes = []
        for rng in (7, random.Random(7)):
            sampler, _ = demo_build(spec)
            engine_op = sampler.engine_ops[op]
            args = (*template.args, s) if engine_op.takes_s else template.args
            method = getattr(sampler, engine_op.method)
            outcomes.append(_outcome(lambda: method(*args, rng=rng)))
        assert outcomes[0] == outcomes[1], op


@pytest.mark.parametrize("s", [4, BULK_S])
def test_uniform_flat_tree_takes_an_int_rng(s):
    # Uniform leaf weights skip the range sampler the demo tree's
    # weights route through, so sample_many draws positions itself.
    from repro.core.tree_sampling import Tree

    tree = Tree.from_nested([[(f"leaf{i}", 1.0) for i in range(4)]] * 2)
    results = []
    for rng in (7, random.Random(7)):
        sampler = build("tree.flat", tree=tree, rng=1)
        assert sampler._uniform
        results.append(sampler.sample_many(tree.root, s, rng=rng))
    assert results[0] == results[1]


@pytest.mark.parametrize("spec", INT_SEED_SPECS)
@pytest.mark.parametrize("s", [4, BULK_S])
def test_int_rng_matches_seeded_request(spec, s):
    sampler, template = demo_build(spec)
    engine = SamplingEngine(backend="serial", errors="raise")
    try:
        for op, method in (
            (op, getattr(sampler, sampler.engine_ops[op].method))
            for op in ("sample", "sample_indices")
            if op in sampler.engine_ops
        ):
            request = QueryRequest(op, template.args, s, seed=7)
            expected = engine.run(sampler, [request])[0].values
            assert method(*template.args, s, rng=7) == expected
    finally:
        engine.close()


def test_int_rng_seeds_a_chunked_coverage_query_once():
    # Non-uniform weights take the chunked backend. An int normalized
    # per part would re-seed the split and each cover part with its own
    # Random(seed): over seeds 0-1999, two draws would land at the same
    # offset of the two cover halves 18 times, against 62.5 expected.
    from repro.core.coverage import BSTIndex, CoverageSampler

    keys = [float(i) for i in range(64)]
    weights = [2.0] + [1.0] * 63
    sampler = CoverageSampler(BSTIndex(keys, weights))
    assert sampler.backend == "chunked"
    query = (16.0, 47.0)
    assert len(sampler.plan_query(query).spans) == 2
    for seed in range(50):
        assert sampler.sample(query, 2, rng=seed) == sampler.sample(
            query, 2, rng=random.Random(seed)
        )


@pytest.mark.parametrize(
    "method,s",
    [("sample", None), ("sample_many", 4), ("sample_many", BULK_S), ("sample_distinct", 4)],
)
def test_fair_nn_takes_an_int_rng(method, s):
    # Normalized once per call: its rejection loops draw every round
    # from one stream (the demo ball holds 13 points, so s=BULK_S takes
    # the batch path).
    results = []
    for rng in (7, random.Random(7)):
        fair, template = demo_build("fair_nn")
        sizes = () if s is None else (s,)
        results.append(getattr(fair, method)(*template.args, *sizes, rng=rng))
    assert results[0] == results[1]


@pytest.mark.parametrize(
    "spec,method,s",
    [("alias", method, s) for method in ("sample_many", "sample_indices") for s in (4, BULK_S)]
    + [
        (spec, method, s)
        for spec in ("dynamic.fenwick", "dynamic.bucket", "dynamic.approx")
        for method, s in (("sample", None), ("sample_many", 4), ("sample_many", BULK_S))
    ],
)
def test_whole_set_samplers_take_an_int_rng(spec, method, s):
    # Normalized once per call, never per draw: the approximate sampler's
    # sample_many calls sample once per draw, so re-seeding there would
    # repeat one value s times.
    results = []
    for rng in (7, random.Random(7)):
        sampler, _ = demo_build(spec)
        sizes = () if s is None else (s,)
        results.append(getattr(sampler, method)(*sizes, rng=rng))
    assert results[0] == results[1]


def test_int_rng_seeds_a_table_rejection_loop_once():
    # The predicate loop draws several rounds from one stream; an int
    # seed must not restart that stream each round.
    table, template = demo_build("table")
    column, lo, hi = template.args

    def odd(row):
        return row["id"] % 2 == 1

    by_seed = table.sample_where(column, lo, hi, 40, where=odd, rng=7)
    by_generator = table.sample_where(
        column, lo, hi, 40, where=odd, rng=random.Random(7)
    )
    assert by_seed == by_generator
    assert len({row["id"] for row in by_seed}) > 10


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


class _OrderSampler(EngineSampler):
    """Non-thread-safe sampler that records the order its ops ran in;
    its first request (``s=1``) reaches the lock late."""

    engine_ops: ClassVar[Mapping[str, EngineOp]] = {"sample": EngineOp("draw")}
    engine_thread_safe: ClassVar[bool] = False

    def __init__(self):
        self.order: List[int] = []

    def validate_request(self, request: QueryRequest) -> None:
        super().validate_request(request)
        if request.s == 1:
            time.sleep(0.05)

    def draw(self, s: int, *, rng: Any = None) -> List[int]:
        self.order.append(s)
        return [s]


def test_thread_backend_runs_a_stateful_batch_in_submission_order():
    # Fanned out over the pool, the late first request would take the
    # lock last, and query-time state (a set-union rebuild) would reach
    # the requests in another order than under the serial backend.
    sampler = _OrderSampler()
    engine = SamplingEngine(backend="thread", seed=3, max_workers=4)
    try:
        engine.run(sampler, [QueryRequest(op="sample", s=s) for s in (1, 2, 3)])
    finally:
        engine.close()
    assert sampler.order == [1, 2, 3]


def test_per_instance_lock_keeps_rebuild_schedule_exact():
    # Concurrent batches on one sampler, more callers than cores and a
    # short switch interval: without the lock, two requests could both
    # see the rebuild due and rebuild twice, or sample from a
    # half-rebuilt index.
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
            with ThreadPoolExecutor(max_workers=8) as callers:
                batches = [
                    callers.submit(engine.run, sampler, requests[i::8])
                    for i in range(8)
                ]
                for batch in batches:
                    batch.result(timeout=60)
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
