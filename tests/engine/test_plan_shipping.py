"""The sharded placement's plan layer: plans stay where they are drawn.

The promise of the plan → execute split at the engine level:

* **One fan-out plan per span.** A sharded request builds its fan-out
  plan (the active-shard table) once; warm requests over the same span
  reuse it wholesale. ``engine.plan_builds`` / ``engine.plan_reuse``
  are the proof counters, checked at K ∈ {2, 4, 8}.
* **Each shard plans where it draws.** A shard task fetches its
  shard's own plan from the store of the process that draws it: one
  cover per active shard, never one per request. Under sharded ×
  process the parent plans no shard at all; a draw message carries a
  few ints, and the worker's draw is byte-identical to the in-process
  one.
* **Planning consumes no randomness**, so explaining or pre-planning a
  request can never perturb a seeded stream.
"""

import pickle

import pytest

from repro import obs
from repro.core import kernels
from repro.core.range_sampler import ChunkedRangeSampler
from repro.engine import QueryRequest, SamplingEngine, ShardTask, demo_build

SHARD_COUNTS = [2, 4, 8]
N = 128


def _requests(template, count, s):
    return [
        QueryRequest(op=template.op, args=template.args, s=s)
        for _ in range(count)
    ]


@pytest.mark.parametrize("shards", SHARD_COUNTS)
class TestOneCoverComputationPerRequest:
    def test_warm_requests_reuse_the_fan_out_plan(self, shards, metrics_on):
        sampler, template = demo_build("range.chunked", n=N)
        with SamplingEngine(
            backend="serial", placement="sharded", seed=11, shards=shards
        ) as engine:
            results = engine.run(sampler, _requests(template, 6, 5))
        assert all(r.ok for r in results)
        # One cover computation for the whole batch...
        assert obs.value("engine.plan_builds") == 1
        # ...and every later request reuses it wholesale.
        assert obs.value("engine.plan_reuse") == 5
        # Each shard task fetches its shard's plan with one store lookup:
        # one cover per active shard, never one per request.
        misses = obs.value("plan_cache.chunked.misses")
        assert 1 <= misses <= shards
        assert obs.value("plan_cache.chunked.hits") + misses == obs.value(
            "engine.placement_shards"
        )
        assert obs.value("plan_cache.sharded.misses") == 1
        assert obs.value("plan_cache.sharded.hits") == 5

    def test_legacy_shard_backend_reuses_plans_too(self, shards, metrics_on):
        sampler, template = demo_build("range.treewalk", n=N)
        # What the retired "shard" backend string meant: sharded × thread.
        with SamplingEngine(
            placement="sharded", backend="thread", seed=13, shards=shards
        ) as engine:
            results = engine.run(sampler, _requests(template, 4, 3))
        assert all(r.ok for r in results)
        assert obs.value("engine.plan_builds") == 1
        assert obs.value("engine.plan_reuse") == 3


@pytest.mark.parametrize("execution", ["serial", "process"])
def test_wor_request_fans_out_per_round_not_per_draw(execution, metrics_on):
    # A sharded WoR request draws its rounds through the view's own
    # fan-out: one plan fetch, and under process one message per active
    # shard, per round of about 2·s draws.
    n = 4096
    keys = [float(i) for i in range(n)]
    weights = [1.0 + i % 9 for i in range(n)]
    sampler = ChunkedRangeSampler(keys, weights=weights, rng=1)
    args = (100.0, float(n) - 100.0)

    def fan_outs():
        return obs.value("engine.plan_builds") + obs.value("engine.plan_reuse")

    def run(op):
        before, sent = fan_outs(), obs.value("engine.serialized_bytes")
        (result,) = engine.run(sampler, [QueryRequest(op=op, args=args, s=256)])
        assert result.ok, result.error
        return (
            result.values,
            fan_outs() - before,
            obs.value("engine.serialized_bytes") - sent,
        )

    with SamplingEngine(
        backend=execution, placement="sharded", seed=17, shards=2, max_workers=2
    ) as engine:
        run("sample")  # plans the span and ships the shard tokens
        _, wr_fan_outs, wr_bytes = run("sample")
        values, wor_fan_outs, wor_bytes = run("sample_wor")
    assert len(set(values)) == 256
    assert wr_fan_outs == 1
    assert 1 <= wor_fan_outs <= 3
    if execution == "process":
        assert 0 < wor_bytes <= 2 * wr_bytes


def test_parent_plans_no_shard_under_process():
    # The parent builds only the fan-out plan; every shard plan lives in
    # the store of the worker that draws the shard.
    sampler, template = demo_build("range.chunked", n=N)
    with SamplingEngine(
        backend="process", placement="sharded", seed=5, shards=2, max_workers=2
    ) as engine:
        results = engine.run(sampler, _requests(template, 6, 40))
        view = engine._view(sampler)
    assert all(r.ok for r in results), [r.error for r in results]
    assert view.plan_cache.misses == 1
    assert [shard.plan_cache.misses for shard in view.shards] == [0, 0]


class TestProcessRunnerByteIdentity:
    @pytest.mark.parametrize("spec", ["range.chunked", "range.treewalk"])
    def test_process_runner_matches_serial(self, spec):
        batches = {}
        for execution in ("serial", "process"):
            sampler, template = demo_build(spec, n=96)
            with SamplingEngine(
                backend=execution, placement="sharded", seed=7, shards=4,
                max_workers=2,
            ) as engine:
                results = engine.run(sampler, _requests(template, 4, 6))
            assert all(r.ok for r in results), [r.error for r in results]
            batches[execution] = [r.values for r in results]
        assert batches["serial"] == batches["process"]


class TestWorkerShardDraw:
    def test_worker_draw_matches_in_process_task(self):
        from repro.engine.shard import run_shard_task
        from repro.engine.worker import _RESIDENT, execute

        keys = [float(i) for i in range(64)]
        weights = [1.0 + (i % 5) for i in range(64)]
        # The runner's fallback shard token: the shard class as a factory.
        token = (
            "call",
            "repro.core.range_sampler:ChunkedRangeSampler",
            (("keys", tuple(keys)), ("rng", 0), ("weights", tuple(weights))),
        )
        key = pickle.dumps(token) + b"#shard-draw-identity"
        parent = ChunkedRangeSampler(list(keys), weights=list(weights), rng=0)
        # Quota 5 returns a list; 40 clears the batch cutoff and returns
        # an intp array on the numpy tier. [3, 9) is a partial head and a
        # partial tail chunk: at quota 20 each part draws fewer than the
        # cutoff, and their join is still an array.
        try:
            for lo, hi, quota in ((3, 57, 5), (3, 57, 40), (3, 9, 20)):
                _, outcomes, _ = execute(
                    key, token, "shard", [(0, lo, hi, quota, 1234, None)]
                )
                (status, drawn), = outcomes
                assert status == "ok", drawn
                shard, local = run_shard_task(parent, ShardTask(0, lo, hi, quota, 1234))
                assert shard == 0
                assert isinstance(local, list) != kernels.use_batch(quota)
                assert type(drawn) is type(local)
                assert getattr(drawn, "dtype", None) == getattr(local, "dtype", None)
                assert list(drawn) == list(local)
                assert len(local) == quota
        finally:
            _RESIDENT.pop(key, None)


class TestPlanningSideEffectFree:
    def test_planning_consumes_no_randomness(self):
        first, template = demo_build("range.treewalk", n=64)
        second, _ = demo_build("range.treewalk", n=64)
        first.plan_request(
            QueryRequest(op=template.op, args=template.args, s=3)
        )
        assert first.sample_span(5, 50, 4) == second.sample_span(5, 50, 4)


class TestEngineExplain:
    def test_explain_reports_cover_and_cache_state(self):
        sampler, template = demo_build("range.chunked", n=64)
        request = QueryRequest(op=template.op, args=template.args, s=8)
        with SamplingEngine(backend="serial", seed=3) as engine:
            cold = engine.explain(sampler, request)
            warm = engine.explain(sampler, request)
        assert cold["kind"] == "chunked"
        assert cold["cached"] is False
        assert warm["cached"] is True
        assert cold["cover_spans"] >= 1
        assert "budget_split" not in cold

    @pytest.mark.parametrize("execution", ["serial", "process"])
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_explain_sharded_budget_split(self, shards, execution):
        sampler, template = demo_build("range.chunked", n=N)
        request = QueryRequest(op=template.op, args=template.args, s=40)
        with SamplingEngine(
            backend=execution, placement="sharded", seed=3, shards=shards
        ) as engine:
            info = engine.explain(sampler, request)
        split = info["budget_split"]
        assert 1 <= len(split) <= shards
        assert sum(row["expected_quota"] for row in split) == pytest.approx(
            40.0
        )
        assert len(info["sub_plans"]) == len(split)
        assert all(sub["kind"] == "chunked" for sub in info["sub_plans"])

    def test_explain_rejects_unplanful_structures(self):
        sampler, template = demo_build("setunion")
        request = QueryRequest(op=template.op, args=template.args, s=2)
        with SamplingEngine(backend="serial", seed=1) as engine:
            with pytest.raises(TypeError, match="plan"):
                engine.explain(sampler, request)
