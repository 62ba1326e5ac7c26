"""The four benchmark workloads: seeded inputs, op streams and output checks.

Every input is generated from ``--seed``: keys, weights, query spans,
per-request seeds, the update stream and the engine seed. The program
receives only those generated values. The client is one closed loop: each
call waits for the previous one to finish, and each call is timed on its
own, so input generation and output checks run between calls, outside the
timed intervals.

Round sizes are fixed here and are the same on every commit. They were
chosen so that a round takes about one to four seconds on a 2-core box
and holds at least 1000 timed calls, which leaves ten samples beyond each
round's p99.

``cold-bulk`` uses n = 2^15 keys: at 2^17 its O(n log n) urn tables
(about 27 MB) no longer fit in cache, and its run-to-run spread followed
the memory traffic of other tenants of the machine (7% on ``ops_per_s``,
14% on ``call_p99_us`` over ten seeds) instead of the program.
"""

from __future__ import annotations

import math
import os
import random
import statistics
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.core.planner import shared_store
from repro.engine import QueryRequest, SamplingEngine, build
from repro.errors import IQSError
from repro.stats.tests import chi_square_weighted_pvalue

#: Engine pools never exceed the machine's cores (and two in any case).
WORKERS = max(1, min(2, os.cpu_count() or 1))
#: Distinct shapes in the repeated-span pool.
POOL_SHAPES = 128
#: Keys in the chi-square probe window, and samples drawn over it.
PROBE_KEYS = 96
PROBE_SAMPLES = 12_000
#: A probe fails below this p-value.
PROBE_ALPHA = 1e-6
#: Iterations of the speed-reference loop, and its duration at full
#: speed on the 2-core box the baseline was taken on.
REFERENCE_LOOPS = 3000
REFERENCE_NOMINAL_S = 170e-6


@dataclass(frozen=True)
class Config:
    """One workload's fixed shape."""

    name: str
    spec: str
    log2_n: int
    placement: str
    execution: str
    #: Requests per engine.run call.
    requests_per_call: int
    s: int
    #: Share of requests drawn from the repeated-shape pool.
    repetition: float
    #: Operations per round: engine.run calls for the range workloads,
    #: reads plus updates for dynamic-mixed.
    round_size: int
    #: Operations between two speed references (about 10 ms of work).
    block: int = 16
    shards: int = 1
    #: dynamic-mixed only: share of operations that are reads.
    read_share: float = 1.0


CONFIGS: Dict[str, Config] = {
    c.name: c
    for c in (
        Config(
            "hot-spans",
            "range.chunked", 17, "local", "serial",
            requests_per_call=8, s=16, repetition=0.9, round_size=2000,
        ),
        Config(
            "cold-bulk",
            "range.lemma2", 15, "local", "thread",
            requests_per_call=4, s=4096, repetition=0.0, round_size=1000, block=4,
        ),
        Config(
            "sharded-process",
            "range.chunked", 18, "sharded", "process",
            requests_per_call=1, s=1024, repetition=0.5, round_size=1000, block=8,
            shards=2,
        ),
        Config(
            "dynamic-mixed",
            "range.dynamic", 15, "local", "serial",
            requests_per_call=1, s=16, repetition=0.0, round_size=15000, block=128,
            read_share=0.7,
        ),
    )
}

def config_for(name: str, quick: bool) -> Config:
    """The workload's config; ``quick`` shrinks it to n = 2^10 and short rounds."""
    config = CONFIGS[name]
    if quick:
        config = replace(config, log2_n=10, round_size=max(40, config.round_size // 50))
    return config


def stream_rng(seed: int, name: str, purpose: str) -> random.Random:
    """A generator for one purpose of one workload, a pure function of the seed."""
    return random.Random(f"{seed}/{name}/{purpose}")


def reference_s() -> float:
    """Seconds for a fixed pure-Python loop: the machine's current speed.

    The shared cores of a small cloud VM switch between full speed and
    states that run the same code up to about half as fast, in episodes
    from a fraction of a second to many seconds. CPU time tracks wall
    time, so no clock choice hides it. The loop runs before every block
    of about 10 ms of operations, and each block's timings are scaled by
    ``REFERENCE_NOMINAL_S`` over the mean of the loops on both sides of
    it: the benchmark reports times at the reference speed.
    """
    started = perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOPS):
        acc += (i * 7) % 13
    return perf_counter() - started


def speed_factor(before: float, after: float) -> float:
    """Scale that converts a time measured between two references to
    the reference speed."""
    return 2 * REFERENCE_NOMINAL_S / (before + after)


@dataclass
class Round:
    """Timings and outcomes of one round, grouped in blocks.

    ``refs[b]`` is the reference time taken before block ``b`` and
    ``refs[-1]`` the one after the last block; ``marks`` are the matching
    ``perf_counter()`` readings; ``reads`` and ``writes`` are ``(block,
    seconds)`` pairs.
    """

    refs: List[float] = field(default_factory=list)
    marks: List[float] = field(default_factory=list)
    reads: List[Tuple[int, float]] = field(default_factory=list)
    writes: List[Tuple[int, float]] = field(default_factory=list)
    ops: List[int] = field(default_factory=list)
    failed: int = 0

    def factors(self) -> List[float]:
        return [speed_factor(a, b) for a, b in zip(self.refs, self.refs[1:])]

    def summary(self) -> "Summary":
        """The round's statistics at the reference speed."""
        factors = self.factors()
        reads = [s * factors[b] for b, s in self.reads]
        writes = [s * factors[b] for b, s in self.writes]
        ops = sum(self.ops)
        return Summary(
            ops_per_s=ops / (sum(reads) + sum(writes)),
            call_p50_us=percentile(reads, 0.5) * 1e6,
            call_p99_us=percentile(reads, 0.99) * 1e6,
            write_p50_us=percentile(writes, 0.5) * 1e6 if writes else None,
            write_p99_us=percentile(writes, 0.99) * 1e6 if writes else None,
            ops=ops,
            failed=self.failed,
            speed=statistics.median(factors),
        )


@dataclass(frozen=True)
class Summary:
    """What a round contributes to the end-to-end metrics.

    Percentiles are nearest-rank over the round's calls; ``speed`` is the
    machine's median speed over the round as a share of the reference.
    """

    ops_per_s: float
    call_p50_us: float
    call_p99_us: float
    write_p50_us: Optional[float]
    write_p99_us: Optional[float]
    ops: int
    failed: int
    speed: float


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Workload:
    """The closed loop shared by every workload: blocks of timed steps."""

    config: Config

    def step(self) -> "Tuple[bool, float, int, int]":
        """One timed call: ``(is_read, seconds, ops, failed)``."""
        raise NotImplementedError

    def run_round(self) -> Round:
        record = Round()
        block = -1
        for index in range(self.config.round_size):
            if index % self.config.block == 0:
                record.refs.append(reference_s())
                record.marks.append(perf_counter())
                record.ops.append(0)
                block += 1
            is_read, seconds, ops, failed = self.step()
            (record.reads if is_read else record.writes).append((block, seconds))
            record.ops[block] += ops
            record.failed += failed
        record.marks.append(perf_counter())
        record.refs.append(reference_s())
        return record


class RangeWorkload(Workload):
    """hot-spans, cold-bulk and sharded-process: static weighted range sampling."""

    def __init__(self, config: Config, seed: int):
        self.config = config
        n = 1 << config.log2_n
        self.n = n
        inputs = stream_rng(seed, config.name, "inputs")
        keys: List[float] = []
        x = 0.0
        for _ in range(n):
            x += 0.5 + inputs.random()
            keys.append(x)
        self.keys = keys
        self.weights = [1.0 + (i % 9) for i in range(n)]
        self.engine_seed = stream_rng(seed, config.name, "engine").getrandbits(63)
        self._stream = stream_rng(seed, config.name, "stream")
        self._warm = stream_rng(seed, config.name, "warm")
        self._probe = stream_rng(seed, config.name, "probe")
        self.pool = [self._fresh_shape(inputs) for _ in range(POOL_SHAPES)]
        # Zipf(1) popularity over the pool.
        self._pool_cum: List[float] = []
        total = 0.0
        for rank in range(POOL_SHAPES):
            total += 1.0 / (rank + 1)
            self._pool_cum.append(total)
        self._seen: set = set()
        self.repeats = 0
        self.requests = 0
        self.sampler: Any = None
        self.engine: Optional[SamplingEngine] = None

    # -- inputs ----------------------------------------------------------

    def _fresh_shape(self, rng: random.Random) -> Tuple[int, int]:
        width = rng.randint(self.n // 64, self.n // 2)
        return rng.randint(0, self.n - width), width

    def _request(self, rng: random.Random, shape: Tuple[int, int]) -> QueryRequest:
        lo, width = shape
        return QueryRequest(
            "sample",
            (self.keys[lo], self.keys[lo + width - 1]),
            self.config.s,
            seed=rng.getrandbits(63),
        )

    def _next_request(self) -> QueryRequest:
        rng = self._stream
        if rng.random() < self.config.repetition:
            shape = rng.choices(self.pool, cum_weights=self._pool_cum)[0]
        else:
            shape = self._fresh_shape(rng)
        # Repetition rate as Redbench defines it: the share of queries
        # whose shape already occurred earlier in the stream.
        self.requests += 1
        if shape in self._seen:
            self.repeats += 1
        else:
            self._seen.add(shape)
        return self._request(rng, shape)

    @property
    def repetition_rate(self) -> float:
        return self.repeats / self.requests if self.requests else 0.0

    # -- set-up ----------------------------------------------------------

    def _build(self) -> Tuple[Any, SamplingEngine]:
        config = self.config
        sampler = build(
            config.spec, keys=self.keys, weights=self.weights, rng=self.engine_seed
        )
        engine = SamplingEngine(
            config.execution,
            placement=config.placement,
            shards=config.shards,
            max_workers=WORKERS,
            seed=self.engine_seed,
        )
        return sampler, engine

    def setup_once(self) -> float:
        """Build, construct the engine and make the first warm call; returns seconds."""
        self.close()
        shared_store().clear()
        warm = [
            self._request(self._warm, self._fresh_shape(self._warm))
            for _ in range(self.config.requests_per_call)
        ]
        started = perf_counter()
        self.sampler, self.engine = self._build()
        self.engine.run(self.sampler, warm)
        return perf_counter() - started

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
        self.engine = None
        self.sampler = None

    # -- timed phase -----------------------------------------------------

    def check(self, requests: List[QueryRequest], results: List[Any]) -> int:
        """Failed requests: errors, wrong counts, samples outside ``[x, y]``."""
        failed = 0
        for request, result in zip(requests, results):
            values = result.values
            x, y = request.args
            if (
                not result.ok
                or len(values) != request.s
                or min(values) < x
                or max(values) > y
            ):
                failed += 1
        return failed + abs(len(requests) - len(results))

    def step(self) -> Tuple[bool, float, int, int]:
        requests = [self._next_request() for _ in range(self.config.requests_per_call)]
        started = perf_counter()
        results = self.engine.run(self.sampler, requests)
        seconds = perf_counter() - started
        return True, seconds, len(requests), self.check(requests, results)

    # -- probe -----------------------------------------------------------

    def _probe_requests(self, lo: int) -> List[List[QueryRequest]]:
        config = self.config
        rng = random.Random(self._probe.getrandbits(64))
        calls = math.ceil(PROBE_SAMPLES / (config.requests_per_call * config.s))
        return [
            [self._request(rng, (lo, PROBE_KEYS)) for _ in range(config.requests_per_call)]
            for _ in range(calls)
        ]

    def probe(self) -> Dict[str, Any]:
        """Seeded chi-square probe over a window straddling the middle key.

        Under the sharded placement the window crosses the shard cut, and
        the batch must also be byte-identical to ``sharded × serial``.
        """
        lo = self.n // 2 - PROBE_KEYS // 2
        batches = self._probe_requests(lo)
        samples: List[float] = []
        outputs = []
        failed = 0
        for requests in batches:
            results = self.engine.run(self.sampler, requests)
            failed += self.check(requests, results)
            outputs.append([r.values for r in results])
            for result in results:
                samples.extend(result.values or ())
        window = range(lo, lo + PROBE_KEYS)
        pvalue = chi_square_weighted_pvalue(
            samples, {self.keys[i]: self.weights[i] for i in window}
        )
        report: Dict[str, Any] = {"samples": len(samples), "pvalue": pvalue}
        ok = failed == 0 and pvalue >= PROBE_ALPHA
        if self.config.placement == "sharded":
            reference = SamplingEngine(
                "serial", placement="sharded", shards=self.config.shards,
                seed=self.engine_seed,
            )
            try:
                expected = [
                    [r.values for r in reference.run(self.sampler, requests)]
                    for requests in self._replay(batches)
                ]
            finally:
                reference.close()
            report["identical_to_serial"] = expected == outputs
            ok = ok and report["identical_to_serial"]
        report["ok"] = ok
        return report

    @staticmethod
    def _replay(batches: List[List[QueryRequest]]) -> List[List[QueryRequest]]:
        # Fresh request objects: the engine stamps trace IDs onto the first ones.
        return [
            [QueryRequest(r.op, r.args, r.s, seed=r.seed) for r in requests]
            for requests in batches
        ]


class DynamicWorkload(Workload):
    """dynamic-mixed: treap reads through the engine beside direct updates."""

    def __init__(self, config: Config, seed: int):
        self.config = config
        n = 1 << config.log2_n
        self.n = n
        self.universe = 8 * n
        inputs = stream_rng(seed, config.name, "inputs")
        self.initial = [
            (float(key), 1.0 + (i % 9))
            for i, key in enumerate(inputs.sample(range(self.universe), n))
        ]
        self.engine_seed = stream_rng(seed, config.name, "engine").getrandbits(63)
        self._stream = stream_rng(seed, config.name, "stream")
        self._probe = stream_rng(seed, config.name, "probe")
        self.sampler: Any = None
        self.engine: Optional[SamplingEngine] = None
        self._reset_model()
        self.requests = 0

    # The benchmark's own model of the live key set, used to pick update
    # targets and to check that every sample was live when it was drawn.
    def _reset_model(self) -> None:
        self.live: Dict[float, float] = dict(self.initial)
        self._order: List[float] = [key for key, _ in self.initial]
        self._slot: Dict[float, int] = {key: i for i, key in enumerate(self._order)}

    def _add(self, key: float, weight: float) -> None:
        self.live[key] = weight
        self._slot[key] = len(self._order)
        self._order.append(key)

    def _remove(self, key: float) -> None:
        del self.live[key]
        slot = self._slot.pop(key)
        last = self._order.pop()
        if last != key:
            self._order[slot] = last
            self._slot[last] = slot

    def _any_live(self, rng: random.Random) -> float:
        return self._order[rng.randrange(len(self._order))]

    @property
    def repetition_rate(self) -> float:
        return 0.0

    # -- set-up ----------------------------------------------------------

    def setup_once(self) -> float:
        self.close()
        self._reset_model()
        warm = QueryRequest("sample", (0.0, float(self.universe)), self.config.s, seed=1)
        started = perf_counter()
        sampler = build(self.config.spec, rng=self.engine_seed)
        for key, weight in self.initial:
            sampler.insert(key, weight)
        engine = SamplingEngine("serial", seed=self.engine_seed)
        engine.run(sampler, [warm])
        elapsed = perf_counter() - started
        self.sampler, self.engine = sampler, engine
        return elapsed

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
        self.engine = None
        self.sampler = None

    # -- timed phase -----------------------------------------------------

    def _read_ok(self, request: QueryRequest, result: Any) -> bool:
        x, y = request.args
        live = self.live
        return (
            result.ok
            and len(result.values) == request.s
            and all(x <= key <= y and key in live for key in result.values)
        )

    def step(self) -> Tuple[bool, float, int, int]:
        rng = self._stream
        if rng.random() < self.config.read_share:
            x = self._any_live(rng)
            y = x + rng.randint(1, self.universe // 16)
            request = QueryRequest("sample", (x, y), self.config.s, seed=rng.getrandbits(63))
            self.requests += 1
            started = perf_counter()
            (result,) = self.engine.run(self.sampler, [request])
            seconds = perf_counter() - started
            return True, seconds, 1, int(not self._read_ok(request, result))
        sampler = self.sampler
        kind = rng.randrange(3)
        if kind == 0 and len(self.live) >= 2 * self.n:
            kind = 1
        if kind == 1 and len(self.live) <= self.n // 2:
            kind = 0
        if kind == 0:
            key = float(rng.randrange(self.universe))
            while key in self.live:
                key = float(rng.randrange(self.universe))
            weight = 1.0 + rng.randrange(9)
            call, args = sampler.insert, (key, weight)
            self._add(key, weight)
        elif kind == 1:
            key = self._any_live(rng)
            call, args = sampler.delete, (key,)
            self._remove(key)
        else:
            key = self._any_live(rng)
            weight = 1.0 + rng.randrange(9)
            call, args = sampler.update_weight, (key, weight)
            self.live[key] = weight
        failed = 0
        started = perf_counter()
        try:
            call(*args)
        except (KeyError, IQSError):
            failed = 1
        return False, perf_counter() - started, 1, failed

    # -- probe -----------------------------------------------------------

    def probe(self) -> Dict[str, Any]:
        """Chi-square over a window of live keys against the live weights."""
        ordered = sorted(self.live)
        start = len(ordered) // 2 - PROBE_KEYS // 2
        window = ordered[start:start + PROBE_KEYS]
        x, y = window[0], window[-1]
        rng = random.Random(self._probe.getrandbits(64))
        requests = [
            QueryRequest("sample", (x, y), self.config.s, seed=rng.getrandbits(63))
            for _ in range(PROBE_SAMPLES // self.config.s)
        ]
        results = self.engine.run(self.sampler, requests)
        failed = sum(not self._read_ok(q, r) for q, r in zip(requests, results))
        samples = [key for result in results for key in (result.values or ())]
        pvalue = chi_square_weighted_pvalue(
            samples, {key: self.live[key] for key in window}
        )
        return {
            "samples": len(samples),
            "pvalue": pvalue,
            "ok": failed == 0 and pvalue >= PROBE_ALPHA,
        }


def make_workload(name: str, seed: int, quick: bool):
    config = config_for(name, quick)
    if config.spec == "range.dynamic":
        return DynamicWorkload(config, seed)
    return RangeWorkload(config, seed)

