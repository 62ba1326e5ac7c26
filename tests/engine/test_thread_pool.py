"""The engine-owned thread pool of the thread backend.

Local requests and the sharded placement's shard draws run on the same
pool. It starts with the first batch that needs it, serves every later
``run`` on the same threads, and is joined by ``close()``; a ``run``
after ``close()`` starts a fresh pool and gives the same results. The
reuse and close tests run under both placements.
"""

import sys
import threading
import time

import pytest

from repro.engine import QueryRequest, SamplingEngine, build, executor

KEYS = [float(i) for i in range(512)]


def make_sampler(seen=None):
    sampler = build("range.lemma2", keys=KEYS, rng=1)
    if seen is not None:
        draw = sampler.sample

        def recording_sample(*args, **kwargs):
            seen.add(threading.current_thread())
            return draw(*args, **kwargs)

        sampler.sample = recording_sample
    return sampler


#: Engine options of the two placements; the sharded view splits every
#: request below over several shards, so its draws fan out on the pool.
PLACEMENTS = [{}, {"placement": "sharded", "shards": 4}]


def make_engine(placement, backend="thread"):
    return SamplingEngine(backend, seed=3, max_workers=2, **placement)


def make_requests(count=16, s=64):
    return [
        QueryRequest("sample", (float(i), float(i + 300)), s) for i in range(count)
    ]


def values(results):
    return [result.values for result in results]


def started_since(baseline):
    """Threads alive now that were not alive at ``baseline``."""
    return set(threading.enumerate()) - baseline


def test_threads_are_reused_across_runs():
    for placement in PLACEMENTS:
        seen = set()
        sampler = make_sampler(seen)
        baseline = set(threading.enumerate())
        with make_engine(placement) as engine:
            engine.run(sampler, make_requests())
            alive = set(threading.enumerate())
            assert started_since(baseline), placement
            first = set(seen)
            if not placement:  # the sharded view draws from its own shards
                assert first and threading.main_thread() not in first
            for _ in range(4):
                engine.run(sampler, make_requests())
                assert not started_since(alive), placement
            assert seen <= alive
            assert first <= seen


def test_close_joins_the_pool_threads():
    for placement in PLACEMENTS:
        baseline = set(threading.enumerate())
        engine = make_engine(placement)
        engine.run(make_sampler(), make_requests())
        assert started_since(baseline), placement
        engine.close()
        assert not started_since(baseline), placement


def test_close_twice_is_harmless():
    for placement in PLACEMENTS:
        baseline = set(threading.enumerate())
        engine = make_engine(placement)
        engine.run(make_sampler(), make_requests())
        engine.close()
        engine.close()
        assert not started_since(baseline), placement


def test_run_after_close_restarts_the_pool_byte_identically():
    for placement in PLACEMENTS:
        sampler = make_sampler()
        baseline = set(threading.enumerate())
        engine = make_engine(placement)
        before = values(engine.run(sampler, make_requests()))
        engine.close()
        after = values(engine.run(sampler, make_requests()))
        assert started_since(baseline), placement  # a fresh pool serves it
        engine.close()
        assert after == before
        serial = make_engine(placement, "serial").run(sampler, make_requests())
        assert values(serial) == before


def test_concurrent_first_runs_share_one_pool(monkeypatch):
    # Callers racing into the first run must not each start a pool: a
    # second pool would escape close() and leak its threads. A slow pool
    # constructor widens the race window.
    started = []

    class SlowPool(executor.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            time.sleep(0.02)
            started.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(executor, "ThreadPoolExecutor", SlowPool)
    sampler = make_sampler()
    expected = values(SamplingEngine("serial", seed=3).run(sampler, make_requests()))
    baseline = set(threading.enumerate())
    engine = SamplingEngine("thread", seed=3, max_workers=4)
    start = threading.Barrier(6)
    outputs = []

    def caller():
        start.wait(timeout=10)
        outputs.append(values(engine.run(sampler, make_requests())))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=caller) for _ in range(6)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert outputs == [expected] * 6
    assert len(started) == 1
    engine.close()
    assert not started_since(baseline)


def test_collecting_an_unclosed_engine_joins_no_threads():
    # Garbage collection can run an engine's __del__ inside another
    # thread's start-up, which holds threading's shutdown-locks lock;
    # joining a pool thread there waits on that lock forever.
    lock = getattr(threading, "_shutdown_locks_lock", None)
    if lock is None:
        pytest.skip("this interpreter's threading has no shutdown-locks lock")
    for placement in PLACEMENTS:
        engine = make_engine(placement)
        engine.run(make_sampler(), make_requests())
        collector = threading.Thread(target=engine.__del__, daemon=True)
        with lock:
            collector.start()
            collector.join(timeout=5)
            finished = not collector.is_alive()
        collector.join()
        assert finished, placement


def test_context_manager_leaks_no_threads():
    for placement in PLACEMENTS:
        baseline = set(threading.enumerate())
        with make_engine(placement) as engine:
            engine.run(make_sampler(), make_requests())
            engine.run(make_sampler(), make_requests())
        assert not started_since(baseline), placement
