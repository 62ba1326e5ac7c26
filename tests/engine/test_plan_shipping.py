"""Plan-once-ship-everywhere: the sharded placement's plan layer.

The tentpole promise of the plan → execute split at the engine level:

* **Exactly one cover computation per request.** A sharded request
  builds its fan-out plan (active-shard table + one shard-local
  ``QueryPlan`` per planful shard) once; warm requests over the same
  span reuse it wholesale. ``engine.plan_builds`` / ``engine.plan_reuse``
  are the proof counters, checked at K ∈ {2, 4, 8}.
* **Plans ship across the process boundary.** The process runner sends
  each task's plan in portable form ``(kind, key, hint)`` — O(log n)
  ints — and the resident worker rebuilds it from the hint *without*
  redoing the cover search, byte-identically.
* **Planning consumes no randomness**, so explaining or pre-planning a
  request can never perturb a seeded stream.
"""

import pickle

import pytest

from repro import obs
from repro.core import kernels
from repro.core.range_sampler import ChunkedRangeSampler
from repro.engine import QueryRequest, SamplingEngine, demo_build

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
        # The shard-local plans were built inside that single fan-out
        # build: at most one per active shard, never one per request.
        assert 1 <= obs.value("plan_cache.chunked.misses") <= shards
        assert obs.value("plan_cache.chunked.hits") == 0
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


class TestShippedPlanByteIdentity:
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


class TestWorkerExecutesShippedPlans:
    def _token(self, keys, weights):
        return (
            "shard",
            "repro.core.range_sampler:ChunkedRangeSampler",
            tuple(keys),
            tuple(weights),
        )

    def test_portable_entry_matches_span_path(self):
        from repro.engine.worker import _RESIDENT, execute_shard_chunk

        keys = [float(i) for i in range(64)]
        weights = [1.0 + (i % 5) for i in range(64)]
        token = self._token(keys, weights)
        key = pickle.dumps(token) + b"#plan-shipping-identity"
        parent = ChunkedRangeSampler(list(keys), weights=list(weights), rng=0)
        portable = parent.plan_span(3, 57).portable()
        # Quota 5 returns a list; 40 clears the batch cutoff and returns
        # an intp array on the numpy tier.
        for quota in (5, 40):
            try:
                _, plain_out, _ = execute_shard_chunk(
                    key, token, [(0, 3, 57, quota, 1234, None)]
                )
                _RESIDENT.pop(key, None)  # fresh resident for the shipped leg
                _, shipped_out, _ = execute_shard_chunk(
                    key, token, [(0, 3, 57, quota, 1234, None, portable)]
                )
            finally:
                _RESIDENT.pop(key, None)
            (plain_status, plain), = plain_out
            (shipped_status, shipped), = shipped_out
            assert plain_status == shipped_status == "ok", plain
            assert isinstance(plain, list) != kernels.use_batch(quota)
            assert list(shipped) == list(plain)
            assert len(plain) == quota

    def test_cover_hint_skips_the_cover_search(self):
        from repro.engine.worker import _RESIDENT, execute_shard_chunk

        keys = [float(i) for i in range(64)]
        weights = [1.0] * 64
        token = self._token(keys, weights)
        key = pickle.dumps(token) + b"#plan-shipping-hint"
        parent = ChunkedRangeSampler(list(keys), weights=list(weights), rng=0)
        try:
            # Make the shard resident, then poison its cover search: a
            # shipped hint must not need it.
            execute_shard_chunk(key, token, [(0, 1, 9, 2, 7, None)])
            resident = _RESIDENT[key]

            def boom(lo, hi):
                raise AssertionError(
                    "cover search ran despite a shipped plan hint"
                )

            resident.query_split = boom
            portable = parent.plan_span(5, 61).portable()
            _, outcomes, _ = execute_shard_chunk(
                key, token, [(0, 5, 61, 3, 99, None, portable)]
            )
            assert outcomes[0][0] == "ok", outcomes[0][1]
            # Without the hint, the same uncached span needs the search
            # — proving the poison was live and the hint really skipped
            # it.
            _, outcomes, _ = execute_shard_chunk(
                key, token, [(0, 5, 62, 3, 99, None)]
            )
            assert outcomes[0][0] == "err"
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

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_explain_sharded_budget_split(self, shards):
        sampler, template = demo_build("range.chunked", n=N)
        request = QueryRequest(op=template.op, args=template.args, s=40)
        with SamplingEngine(
            backend="serial", placement="sharded", seed=3, shards=shards
        ) as engine:
            info = engine.explain(sampler, request)
        split = info["budget_split"]
        assert 1 <= len(split) <= shards
        assert sum(row["expected_quota"] for row in split) == pytest.approx(
            40.0
        )
        assert info["sub_plans"] is not None
        assert all(sub is not None for sub in info["sub_plans"])
        assert len(info["sub_plans"]) == len(split)

    def test_explain_rejects_unplanful_structures(self):
        sampler, template = demo_build("setunion")
        request = QueryRequest(op=template.op, args=template.args, s=2)
        with SamplingEngine(backend="serial", seed=1) as engine:
            with pytest.raises(TypeError, match="plan"):
                engine.explain(sampler, request)
