"""Process backend: residency, fault injection, crash recovery, tokens.

The fault-injected sampler lives in :mod:`tests.engine.faulty` so the
worker processes can import it through a ``("call", ...)`` build token.
"""

import multiprocessing
import os
import signal
import threading

import pytest

from repro.engine import QueryRequest, SamplingEngine, spec_token
from repro.errors import WorkerCrashedError
from tests.engine.faulty import DIE_ONCE, build_faulty

FAULTY = ("call", "tests.engine.faulty:build_faulty", ())

KEYS = [float(i) for i in range(128)]


def req(behavior, s=3):
    return QueryRequest(op="sample", args=(behavior,), s=s)


def range_requests(count=8, s=4):
    return [
        QueryRequest(op="sample", args=(10.0, 100.0), s=s) for _ in range(count)
    ]


class TestProcessExecution:
    def test_matches_serial_byte_for_byte(self):
        params = {"keys": KEYS, "rng": 1}
        requests = range_requests()
        _, serial = SamplingEngine(backend="serial", seed=7).run_spec(
            "range.chunked", params, requests
        )
        with SamplingEngine(backend="process", seed=7, max_workers=2) as engine:
            _, proc = engine.run_spec("range.chunked", params, requests)
        assert [r.values for r in serial] == [r.values for r in proc]
        assert [r.seed for r in serial] == [r.seed for r in proc]

    def test_worker_residency_builds_once(self, metrics_on):
        with SamplingEngine(backend="process", seed=1, max_workers=1) as engine:
            engine.run_token(FAULTY, [req("ok") for _ in range(8)])
            engine.run_token(FAULTY, [req("ok") for _ in range(8)])
        counters = metrics_on.snapshot()["counters"]
        # Two batches, sixteen requests, exactly one build in the single
        # resident worker.
        assert counters["engine.worker_rebuilds"] == 1
        assert counters["engine.requests"] == 16

    def test_run_rejects_prebuilt_samplers(self):
        from repro.engine import build

        sampler = build("range.chunked", keys=KEYS, rng=1)
        with SamplingEngine(backend="process", seed=1) as engine:
            with pytest.raises(ValueError, match="build tokens"):
                engine.run(sampler, range_requests(count=1))

    def test_run_token_requires_process_backend(self):
        with pytest.raises(ValueError, match="requires backend='process'"):
            SamplingEngine(backend="serial").run_token(FAULTY, [req("ok")])
        with SamplingEngine(backend="process", placement="sharded") as engine:
            with pytest.raises(ValueError, match="placement='local'"):
                engine.run_token(FAULTY, [req("ok")])

    def test_unpicklable_token_raises_type_error(self):
        token = ("call", "tests.engine.faulty:build_faulty", (("lock", threading.Lock()),))
        with SamplingEngine(backend="process", seed=1) as engine:
            with pytest.raises(TypeError, match="picklable"):
                engine.run_token(token, [req("ok")])

    def test_spec_token_is_order_insensitive(self):
        assert spec_token("range.chunked", {"a": 1, "b": 2}) == spec_token(
            "range.chunked", {"b": 2, "a": 1}
        )


class TestFaultInjection:
    def test_capture_keeps_batch_alive(self):
        with SamplingEngine(backend="process", seed=1, max_workers=2) as engine:
            results = engine.run_token(
                FAULTY, [req("ok"), req("raise"), req("ok")]
            )
        assert [r.ok for r in results] == [True, False, True]
        assert isinstance(results[1].error, RuntimeError)
        assert "injected worker failure" in str(results[1].error)

    def test_raise_mode_propagates_first_failure(self):
        with SamplingEngine(
            backend="process", seed=1, max_workers=2, errors="raise"
        ) as engine:
            with pytest.raises(RuntimeError, match="injected worker failure"):
                engine.run_token(FAULTY, [req("ok"), req("raise")])

    def test_worker_death_poisons_only_the_crasher(self):
        with SamplingEngine(backend="process", seed=1, max_workers=2) as engine:
            results = engine.run_token(
                FAULTY, [req("ok"), req("die"), req("ok"), req("ok")]
            )
            assert [r.ok for r in results] == [True, False, True, True]
            assert isinstance(results[1].error, WorkerCrashedError)
            # The engine replaced its broken pool and stays usable.
            again = engine.run_token(FAULTY, [req("ok") for _ in range(4)])
            assert all(r.ok for r in again)

    def test_worker_dying_once_succeeds_on_the_retry(
        self, metrics_on, monkeypatch, tmp_path
    ):
        # The chunk [ok, die] loses its worker; each of its requests then
        # runs alone on a fresh worker, where "die" finds the marker and
        # draws like "ok".
        marker = tmp_path / "died"
        monkeypatch.setenv(DIE_ONCE, str(marker))
        with SamplingEngine(backend="process", seed=1, max_workers=2) as engine:
            results = engine.run_token(
                FAULTY, [req("ok"), req("die"), req("ok"), req("ok")]
            )
            draws = metrics_on.value("faulty.draws")
            clean = engine.run_token(FAULTY, [req("ok") for _ in range(4)])
        assert marker.exists()
        assert [r.error for r in results] == [None] * 4
        assert [r.values for r in results] == [r.values for r in clean]
        # The dead worker's counts died with it: one per request.
        assert draws == 4

    def test_worker_death_raise_mode(self):
        with SamplingEngine(
            backend="process", seed=1, max_workers=2, errors="raise"
        ) as engine:
            with pytest.raises(WorkerCrashedError):
                engine.run_token(FAULTY, [req("ok"), req("die")])

    def test_captured_errors_are_counted(self, metrics_on):
        with SamplingEngine(backend="process", seed=1, max_workers=1) as engine:
            engine.run_token(FAULTY, [req("ok"), req("raise"), req("raise")])
        assert metrics_on.snapshot()["counters"]["engine.request_errors"] == 2


class TestOneSettleStep:
    """Wherever a request ran, its result is settled once: one flight
    record, and one count in either ``engine.request_us`` or
    ``engine.request_errors``."""

    @pytest.mark.parametrize(
        "backend,behaviors",
        [
            ("serial", ["ok", "raise", "ok"]),
            ("thread", ["ok", "raise", "ok"]),
            # "die" needs a worker process to kill, not the test process.
            ("process", ["ok", "raise", "die", "ok"]),
        ],
    )
    def test_one_record_and_one_count_per_request(
        self, metrics_on, backend, behaviors
    ):
        requests = [req(behavior) for behavior in behaviors]
        with SamplingEngine(backend=backend, seed=1, max_workers=2) as engine:
            if backend == "process":
                results = engine.run_token(FAULTY, requests)
            else:
                results = engine.run(build_faulty(), requests)
        assert [r.ok for r in results] == [b == "ok" for b in behaviors]
        for behavior, result in zip(behaviors, results):
            records = metrics_on.RECORDER.for_trace(result.trace_id)
            assert len(records) == 1, (behavior, records)
            if result.error is not None:
                assert result.error.flight_records == records
            if behavior == "die":
                # The worker's record died with it; this one is the parent's.
                assert isinstance(result.error, WorkerCrashedError)
                assert records[0]["error"] == "WorkerCrashedError"
                assert records[0]["worker"] == os.getpid()
        failures = sum(not r.ok for r in results)
        snap = metrics_on.snapshot()
        assert snap["counters"]["engine.request_errors"] == failures
        assert snap["histograms"]["engine.request_us"]["count"] == len(results) - failures


class TestLifecycle:
    def test_worker_killed_while_idle_is_replaced(self, metrics_on):
        params = {"keys": KEYS, "rng": 1}
        _, serial = SamplingEngine(backend="serial", seed=7).run_spec(
            "range.chunked", params, range_requests()
        )
        token = spec_token("range.chunked", params)
        with SamplingEngine(backend="process", seed=7, max_workers=2) as engine:
            engine.run_token(token, range_requests())
            victim, survivor = [r.process for r in engine._workers._residents]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()
            replies = metrics_on.value("engine.harvested_chunks")
            results = engine.run_token(token, range_requests())
            replies = metrics_on.value("engine.harvested_chunks") - replies
            replacement, kept = [r.process for r in engine._workers._residents]
        # Replaced before the send: one reply per chunk, no retries.
        assert replies == 2
        assert [r.error for r in results] == [None] * len(results)
        assert [r.values for r in results] == [r.values for r in serial]
        assert replacement.pid != victim.pid
        assert kept is survivor

    def test_close_leaves_no_worker_processes(self):
        before = {p.pid for p in multiprocessing.active_children()}
        engine = SamplingEngine(backend="process", seed=1, max_workers=2)
        assert all(r.ok for r in engine.run_token(FAULTY, [req("ok")] * 4))
        assert {p.pid for p in multiprocessing.active_children()} - before
        engine.close()
        assert {p.pid for p in multiprocessing.active_children()} <= before

    def test_close_is_idempotent(self):
        engine = SamplingEngine(backend="process", seed=1, max_workers=1)
        engine.run_token(FAULTY, [req("ok")])
        engine.close()
        engine.close()
        # A closed engine lazily reopens its pool on the next batch.
        assert all(r.ok for r in engine.run_token(FAULTY, [req("ok")]))
        engine.close()
