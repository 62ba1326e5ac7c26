"""Backend-equivalence harness: all four backends, two agreement tiers.

Tier 1 (byte-identical): structures whose request execution is a pure
function of ``(structure, request, seed)`` — every sampler whose
queries leave no state behind — must produce *identical*
batches under serial, thread, and process execution, because the engine
spawns the same per-request seed stream regardless of backend and the
process workers rebuild the same deterministic demo structure.

Tier 2 (distributional): stateful samplers (pool refills, periodic
rebuilds) and the shard backend (which spends per-draw randomness in a
different order than the serial stream, §4.1 multinomial split) are
exchangeable with serial, not byte-identical — each backend's output is
checked against the known target distribution with a chi-square test at
a fixed seed, so the suite is deterministic and flake-free.

Tier 3 (composed placement): the placement × execution refactor promises
that ``placement="sharded"`` composed with *any* execution backend —
inline, threads, or shard-resident worker processes — produces
byte-identical output at every shard count, because every shard task
carries a stateless derived seed. A shard-resident worker that keeps
dying must fail only the requests touching its shard.
"""

import pickle
import random

import pytest

from repro.engine import QueryRequest, SamplingEngine, build, demo_build
from repro.engine.shard import split_budget
from repro.engine.demo import DEMO_N
from repro.errors import WorkerCrashedError
from repro.stats.tests import (
    chi_square_uniform_pvalue,
    chi_square_weighted_pvalue,
)

#: Specs whose demo execution is byte-reproducible per (structure, seed).
BYTE_SPECS = [
    "alias",
    "tree.topdown",
    "tree.flat",
    "range.treewalk",
    "range.lemma2",
    "range.chunked",
    "range.naive",
    "range.integer",
]

#: (spec, uniform support of its demo workload) for the stateful tier.
STATEFUL_SPECS = [
    # Union of demo sets {0,1,2}: 0..9 ∪ 8..17 ∪ 16..25 — Theorem 8
    # samples uniformly over the union.
    ("setunion", list(range(26))),
    # The EM set-pool samples uniformly over all DEMO_N values.
    ("em.setpool", [float(i) for i in range(1, DEMO_N + 1)]),
]

#: Deterministic fixed-seed chi-square acceptance threshold.
P_FLOOR = 1e-4

ENGINE_SEED = 23


@pytest.fixture(scope="module")
def process_engine():
    with SamplingEngine(
        backend="process", seed=ENGINE_SEED, max_workers=2
    ) as engine:
        yield engine


def demo_requests(spec, count, s):
    _, template = demo_build(spec)
    return [
        QueryRequest(op=template.op, args=template.args, s=s)
        for _ in range(count)
    ]


class TestByteIdenticalTier:
    @pytest.mark.parametrize("spec", BYTE_SPECS)
    def test_serial_thread_process_identical(self, spec, process_engine):
        requests = demo_requests(spec, count=16, s=5)
        sampler, _ = demo_build(spec)
        serial = SamplingEngine(backend="serial", seed=ENGINE_SEED).run(
            sampler, requests
        )
        sampler, _ = demo_build(spec)
        threaded = SamplingEngine(
            backend="thread", seed=ENGINE_SEED, max_workers=4
        ).run(sampler, requests)
        proc = process_engine.run_token(("demo", spec, DEMO_N), requests)
        assert all(r.ok for r in serial)
        values = [r.values for r in serial]
        assert [r.values for r in threaded] == values
        assert [r.values for r in proc] == values
        assert [r.seed for r in proc] == [r.seed for r in serial]


class TestDistributionalTier:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    @pytest.mark.parametrize(
        "spec,support", STATEFUL_SPECS, ids=[s for s, _ in STATEFUL_SPECS]
    )
    def test_stateful_specs_match_target_distribution(
        self, spec, support, backend, process_engine
    ):
        requests = demo_requests(spec, count=100, s=8)
        if backend == "process":
            results = process_engine.run_token(("demo", spec, DEMO_N), requests)
        else:
            sampler, _ = demo_build(spec)
            results = SamplingEngine(
                backend=backend, seed=ENGINE_SEED, max_workers=4
            ).run(sampler, requests)
        samples = [value for result in results for value in result.unwrap()]
        assert chi_square_uniform_pvalue(samples, support) > P_FLOOR

    @pytest.mark.parametrize(
        "backend,placement,shards",
        [
            ("serial", None, None),
            ("thread", "sharded", 4),
            ("process", "sharded", 4),
        ],
        ids=["serial", "sharded-thread", "sharded-process"],
    )
    def test_shard_matches_weighted_range_distribution(
        self, backend, placement, shards
    ):
        # §4.1: the multinomial split preserves the weighted interval
        # distribution exactly, so serial and the sharded placement on
        # threads or on worker processes must all fit it.
        n = 40
        keys = [float(i) for i in range(n)]
        weights = [1.0 + (i % 5) for i in range(n)]
        sampler = build("range.chunked", keys=keys, weights=weights, rng=1)
        requests = [
            QueryRequest(op="sample", args=(5.0, 34.0), s=50) for _ in range(40)
        ]
        with SamplingEngine(
            backend=backend,
            placement=placement,
            seed=101,
            shards=shards,
            max_workers=2 if placement else None,
        ) as engine:
            results = engine.run(sampler, requests)
        samples = [value for result in results for value in result.unwrap()]
        support = {keys[i]: weights[i] for i in range(5, 35)}
        assert chi_square_weighted_pvalue(samples, support) > P_FLOOR


class TestShardApplicability:
    @pytest.mark.parametrize("spec", ["alias", "tree.topdown", "setunion"])
    def test_non_range_specs_reject_shard_backend(self, spec):
        sampler, template = demo_build(spec)
        engine = SamplingEngine(placement="sharded", backend="thread", seed=1, shards=2)
        with pytest.raises(TypeError, match="key-space sharding"):
            engine.run(
                sampler,
                [QueryRequest(op=template.op, args=template.args, s=2)],
            )

    @pytest.mark.parametrize(
        "spec", ["range.treewalk", "range.chunked", "range.naive"]
    )
    def test_range_specs_accept_shard_backend(self, spec):
        sampler, template = demo_build(spec)
        engine = SamplingEngine(placement="sharded", backend="thread", seed=9, shards=4)
        results = engine.run(
            sampler,
            [QueryRequest(op=template.op, args=template.args, s=6)] * 8,
        )
        assert all(r.ok for r in results)
        x, y = template.args
        for result in results:
            assert all(x <= value <= y for value in result.unwrap())


class TestComposedPlacementTier:
    """sharded × {serial, thread, process} are all byte-identical."""

    @pytest.mark.parametrize(
        "spec", ["range.chunked", "range.treewalk", "range.lemma2"]
    )
    def test_every_execution_matches_the_legacy_shard_stream(self, spec):
        requests = demo_requests(spec, count=8, s=6)
        sampler, _ = demo_build(spec)
        # The stream the retired "shard" backend string produced:
        # sharded × thread at the default pool width.
        legacy = SamplingEngine(
            placement="sharded", backend="thread", seed=ENGINE_SEED, shards=4
        ).run(sampler, requests)
        assert all(r.ok for r in legacy)
        reference = [r.values for r in legacy]
        for execution in ("serial", "thread", "process"):
            sampler, _ = demo_build(spec)
            with SamplingEngine(
                placement="sharded",
                backend=execution,
                seed=ENGINE_SEED,
                shards=4,
                max_workers=2,
            ) as engine:
                results = engine.run(sampler, requests)
            assert [r.values for r in results] == reference, execution

    @pytest.mark.parametrize("shards", [1, 2, 4, 8])
    def test_process_matches_inline_at_every_shard_count(self, shards):
        requests = demo_requests("range.chunked", count=6, s=8)
        sampler, _ = demo_build("range.chunked")
        inline = SamplingEngine(
            placement="sharded", backend="serial", seed=ENGINE_SEED, shards=shards
        ).run(sampler, requests)
        assert all(r.ok for r in inline)
        sampler, _ = demo_build("range.chunked")
        with SamplingEngine(
            placement="sharded",
            backend="process",
            seed=ENGINE_SEED,
            shards=shards,
            max_workers=2,
        ) as engine:
            proc = engine.run(sampler, requests)
        assert [r.values for r in proc] == [r.values for r in inline]

    def test_composed_process_ships_tokens_not_structures(self, metrics_on):
        # Each resident receives each of its shards' recipes once — the
        # shard's class with its key and weight slice — and builds the
        # shard itself; no shared-memory segment is made. Per-request
        # traffic is then the draw message alone, a few ints per shard.
        n = 20_000
        keys = [float(i) for i in range(n)]
        weights = [1.0 + (i % 9) for i in range(n)]
        sampler = build("range.chunked", keys=keys, weights=weights, rng=1)

        def requests():
            return [
                QueryRequest(op="sample", args=(50.0, float(n) - 50.0), s=24)
                for _ in range(8)
            ]

        with SamplingEngine(
            placement="sharded",
            backend="process",
            seed=7,
            shards=4,
            max_workers=2,
        ) as engine:
            results = engine.run(sampler, requests())
            first = metrics_on.value("engine.serialized_bytes")
            results += engine.run(sampler, requests())
            segments = list(engine._shm_segments)
            received = [sorted(r.tokens) for r in engine._workers._residents]
            (_, view), = engine._views.values()
            recipes = view._runner._keys
        assert all(r.ok for r in results)
        assert segments == []
        # Shard j's recipe reached slot j % 2, once.
        assert received == [
            sorted([recipes[0], recipes[2]]), sorted([recipes[1], recipes[3]])
        ]
        bounds = view._bounds
        for j, recipe in enumerate(recipes):
            a, b = bounds[j], bounds[j + 1]
            slices = len(pickle.dumps((tuple(keys[a:b]), tuple(weights[a:b]))))
            assert slices < len(recipe) < slices + 200
        counters = metrics_on.snapshot()["counters"]
        # One task per shard with a non-zero quota: each request's split
        # runs on the base its stream draws first (§4.1).
        active = view._active_shards(*view.span_of(50.0, float(n) - 50.0))
        seeds = engine.seeds_for(requests())
        tasks = sum(
            sum(
                quota > 0
                for quota in split_budget(
                    [row[3] for row in active], 24, random.Random(seed).getrandbits(64)
                )
            )
            for seed in seeds
        )
        assert counters["engine.placement_shards"] == 2 * tasks
        # The recipes crossed once, in the first batch…
        token_bytes = sum(len(recipe) for recipe in recipes)
        messages = counters["engine.serialized_bytes"] - first
        assert token_bytes < first < token_bytes + messages + 4 * 100
        # …and the second batch shipped draw messages only.
        assert 0 < messages < 8 * 4 * 150


class TestComposedCrashIsolation:
    def test_dying_shard_resident_fails_only_its_requests(self):
        from tests.engine.faulty import FaultyRangeSampler

        n = 240
        keys = [float(i) for i in range(n)]
        # Shard 0 owns keys 0..59, which include the poisoned keys below
        # FaultyRangeSampler.DIE_BELOW; its resident worker dies on first
        # touch. Shards 1..3 have their own processes (max_workers=4), so
        # requests confined to [80, 230] never see the crash.
        sampler = FaultyRangeSampler(keys, rng=1)
        safe = QueryRequest(op="sample", args=(80.0, 230.0), s=16)
        poisoned = QueryRequest(op="sample", args=(0.0, 230.0), s=32)
        with SamplingEngine(
            placement="sharded",
            backend="process",
            seed=5,
            shards=4,
            max_workers=4,
        ) as engine:
            ok_a, crashed, ok_b = engine.run(sampler, [safe, poisoned, safe])
        assert ok_a.ok and ok_b.ok
        assert all(80.0 <= v <= 230.0 for v in ok_a.unwrap())
        assert isinstance(crashed.error, WorkerCrashedError)
        assert "shard 0" in str(crashed.error)
