"""SamplingEngine behaviour: seed spawning, backends, error capture, obs."""

import os

import pytest

from repro.engine import QueryRequest, SamplingEngine, build
from repro.substrates.rng import DEFAULT_SEED, derive_seed

N = 256
KEYS = [float(i) for i in range(N)]


def make_sampler(rng=1):
    return build("range.chunked", keys=KEYS, rng=rng)


def make_requests(count=40, s=5):
    return [
        QueryRequest(op="sample", args=(float(i % 100), float(i % 100 + 100)), s=s)
        for i in range(count)
    ]


class TestSeedSpawning:
    def test_batch_is_pure_function_of_engine_seed(self):
        requests = make_requests()
        first = SamplingEngine(seed=99).run(make_sampler(rng=1), requests)
        second = SamplingEngine(seed=99).run(make_sampler(rng=2), requests)
        # Different instance streams, same engine seed: identical batches,
        # because every request runs on its own spawned stream.
        assert [r.values for r in first] == [r.values for r in second]

    def test_requests_get_distinct_spawned_seeds(self):
        engine = SamplingEngine(seed=99)
        seeds = engine.seeds_for(make_requests())
        assert len(set(seeds)) == len(seeds)
        assert seeds[3] == derive_seed(99, 3)

    def test_default_seed_policy(self):
        assert SamplingEngine().seed == DEFAULT_SEED

    def test_explicit_request_seed_wins(self):
        requests = [QueryRequest(op="sample", args=(10.0, 200.0), s=4, seed=777)]
        [result] = SamplingEngine(seed=99).run(make_sampler(), requests)
        assert result.seed == 777

    def test_instance_stream_mode(self):
        engine = SamplingEngine(seed=False)
        assert engine.seed is None
        requests = make_requests(count=6)
        assert engine.seeds_for(requests) == [None] * 6
        results = engine.run(make_sampler(), requests)
        assert all(r.ok and r.seed is None for r in results)


class TestBackends:
    def test_thread_matches_serial(self):
        requests = make_requests(count=60)
        serial = SamplingEngine(backend="serial", seed=7).run(
            make_sampler(), requests
        )
        threaded = SamplingEngine(backend="thread", seed=7, max_workers=4).run(
            make_sampler(), requests
        )
        assert [r.values for r in serial] == [r.values for r in threaded]
        assert [r.seed for r in serial] == [r.seed for r in threaded]

    def test_thread_backend_on_swap_locked_sampler(self):
        # Set-union has no per-call rng: requests serialize on the swap
        # lock but stay correct and seed-deterministic per (state, seed).
        family = [list(range(i, i + 20)) for i in range(0, 60, 10)]
        requests = [
            QueryRequest(op="sample", args=([0, 2, 4],), s=1) for _ in range(12)
        ]
        first = SamplingEngine(backend="thread", seed=5, max_workers=4).run(
            build("setunion", family=family, rng=1, rebuild_after=0), requests
        )
        second = SamplingEngine(backend="serial", seed=5).run(
            build("setunion", family=family, rng=1, rebuild_after=0), requests
        )
        assert [r.values for r in first] == [r.values for r in second]

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            SamplingEngine(backend="fiber")

    @pytest.mark.parametrize(
        "typo,suggestion",
        [("thraed", "'thread'"), ("serail", "'serial'"), ("proces", "'process'")],
    )
    def test_invalid_backend_suggests_close_match(self, typo, suggestion):
        # Same did-you-mean contract as the registry's KeyError.
        with pytest.raises(ValueError) as excinfo:
            SamplingEngine(backend=typo)
        message = str(excinfo.value)
        assert "did you mean" in message
        assert suggestion in message
        assert "'serial', 'thread', 'process'" in message

    def test_invalid_backend_without_close_match_lists_choices(self):
        with pytest.raises(ValueError) as excinfo:
            SamplingEngine(backend="gpu")
        message = str(excinfo.value)
        assert "did you mean" not in message
        assert "choose from" in message

    @pytest.mark.slow
    def test_thread_speedup_on_multicore(self):
        if (os.cpu_count() or 1) < 2:
            pytest.skip("single-core runner — no parallel speedup to measure")
        import time

        requests = make_requests(count=1000, s=8)
        sampler = make_sampler()
        serial = SamplingEngine(backend="serial", seed=7)
        threaded = SamplingEngine(backend="thread", seed=7)
        serial.run(sampler, requests[:32])  # warm plan caches
        started = time.perf_counter()
        serial.run(sampler, requests)
        serial_s = time.perf_counter() - started
        started = time.perf_counter()
        threaded.run(sampler, requests)
        thread_s = time.perf_counter() - started
        assert thread_s < serial_s * 1.5


class TestErrors:
    def test_capture_keeps_batch_alive(self):
        requests = [
            QueryRequest(op="sample", args=(10.0, 100.0), s=4),
            QueryRequest(op="sample", args=(100.0, 10.0), s=4),  # inverted
            QueryRequest(op="sample", args=(10.0, 100.0), s=4),
        ]
        results = SamplingEngine(seed=1).run(make_sampler(), requests)
        assert [r.ok for r in results] == [True, False, True]
        assert isinstance(results[1].error, ValueError)
        with pytest.raises(ValueError):
            results[1].unwrap()

    def test_raise_mode_propagates(self):
        requests = [QueryRequest(op="sample", args=(100.0, 10.0), s=4)]
        with pytest.raises(ValueError):
            SamplingEngine(seed=1, errors="raise").run(make_sampler(), requests)

    def test_engine_constructor_validation(self):
        with pytest.raises(ValueError):
            SamplingEngine(errors="ignore")
        with pytest.raises(ValueError):
            SamplingEngine(max_workers=0)
        with pytest.raises(TypeError):
            SamplingEngine(seed="abc")
        with pytest.raises(ValueError, match="shards must be"):
            SamplingEngine(placement="sharded", backend="thread", shards=0)
        with pytest.raises(ValueError, match="shards must be"):
            SamplingEngine(placement="sharded", backend="thread", shards=2.0)


class TestRunSpec:
    def test_run_spec_builds_and_runs(self):
        engine = SamplingEngine(seed=3)
        sampler, results = engine.run_spec(
            "range.chunked", {"keys": KEYS, "rng": 1}, make_requests(count=5)
        )
        assert sampler.engine_spec == "range.chunked"
        assert len(results) == 5
        assert all(r.ok for r in results)


class TestObservability:
    def test_counters_and_errors(self, metrics_on):
        requests = make_requests(count=4) + [
            QueryRequest(op="sample", args=(9.0, 1.0), s=2)
        ]
        SamplingEngine(seed=1).run(make_sampler(), requests)
        snap = metrics_on.snapshot()
        counters = snap["counters"]
        assert counters["engine.batches"] == 1
        assert counters["engine.requests"] == 5
        assert counters["engine.request_errors"] == 1
