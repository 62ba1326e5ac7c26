"""Shard residents of the composed ``sharded × process`` backend.

Each resident is one plain worker process reached over one duplex pipe
(:class:`repro.engine.execution.ProcessShardRunner`). These tests pin
its lifecycle:

* under ``mp_context="spawn"`` the merged streams are byte-identical to
  ``sharded × serial``, for list-sized and array-sized partials;
* ``close()`` joins every resident and then unlinks every shm segment;
* a resident killed while idle is replaced before the next send, so the
  next request runs as if nothing happened;
* a failure while replies are still owed leaves no stale reply for the
  next request to read;
* a resident that dies mid-draw fails only the requests touching its
  shard, and the next run succeeds on a fresh resident.
"""

import multiprocessing
import os
import signal
from multiprocessing.shared_memory import SharedMemory

import pytest

from repro.engine import QueryRequest, SamplingEngine, demo_build, shm
from repro.engine.execution import ProcessShardRunner, _Resident
from repro.errors import WorkerCrashedError
from tests.engine.faulty import FaultyRangeSampler

SEED = 11


def _requests(template, sizes):
    return [
        QueryRequest(op=template.op, args=template.args, s=s) for s in sizes
    ]


def _runner(engine):
    (_, view), = engine._placement._views.values()
    return view._runner


def _processes(engine):
    return [r.process for r in _runner(engine)._residents if r is not None]


def _serial_values(sampler, requests, shards):
    with SamplingEngine(
        placement="sharded", backend="serial", seed=SEED, shards=shards
    ) as engine:
        results = engine.run(sampler, requests)
    assert all(r.ok for r in results)
    return [r.values for r in results]


# s=6 keeps every partial a list; s=96 makes them intp arrays.
SIZES = [6, 96, 6, 96]


def test_spawn_residents_match_serial_byte_for_byte():
    sampler, template = demo_build("range.chunked")
    expected = _serial_values(sampler, _requests(template, SIZES), shards=4)
    with SamplingEngine(
        placement="sharded",
        backend="process",
        seed=SEED,
        shards=4,
        max_workers=2,
        mp_context="spawn",
    ) as engine:
        results = engine.run(sampler, _requests(template, SIZES))
        processes = _processes(engine)
    assert [type(p).__name__ for p in processes] == ["SpawnProcess"] * 2
    assert [r.values for r in results] == expected


def test_close_joins_residents_before_unlinking_segments(monkeypatch):
    sampler, template = demo_build("range.chunked")
    before = {p.pid for p in multiprocessing.active_children()}
    engine = SamplingEngine(
        placement="sharded", backend="process", seed=SEED, shards=4, max_workers=2
    )
    assert all(r.ok for r in engine.run(sampler, _requests(template, SIZES)))
    processes = _processes(engine)
    names = [segment.name for segment in engine._shm_segments]
    assert len(processes) == 2 and names
    # A return code is recorded only once the process has been waited
    # for, so this sees whether close() joined the residents before it
    # unlinked anything.
    reaped_at_unlink = []
    unlink = shm.unlink_segments

    def checked_unlink(segments):
        reaped_at_unlink.extend(p._popen.returncode for p in processes)
        unlink(segments)

    monkeypatch.setattr(shm, "unlink_segments", checked_unlink)
    engine.close()
    assert len(reaped_at_unlink) == 2 and None not in reaped_at_unlink
    assert {p.pid for p in multiprocessing.active_children()} <= before
    for name in names:
        with pytest.raises(FileNotFoundError):
            SharedMemory(name=name)


def test_resident_killed_while_idle_is_replaced_transparently():
    sampler, template = demo_build("range.chunked")
    requests = _requests(template, SIZES)
    expected = _serial_values(sampler, requests, shards=2)
    with SamplingEngine(
        placement="sharded", backend="process", seed=SEED, shards=2, max_workers=2
    ) as engine:
        assert [r.values for r in engine.run(sampler, requests)] == expected
        victim, survivor = _processes(engine)
        os.kill(victim.pid, signal.SIGKILL)
        victim.join()
        results = engine.run(sampler, _requests(template, SIZES))
        replacement, kept = _processes(engine)
    assert [r.error for r in results] == [None] * len(results)
    assert [r.values for r in results] == expected
    assert replacement.pid != victim.pid
    assert kept is survivor


def test_worker_records_keep_their_shard_label_after_the_build(metrics_on):
    # A resident unpickles a shard's token only to build it; later draws
    # label their flight records from the token head it keeps.
    sampler, template = demo_build("range.chunked")
    labels = []
    with SamplingEngine(
        placement="sharded", backend="process", seed=SEED, shards=2, max_workers=2
    ) as engine:
        for _ in range(2):
            start = metrics_on.RECORDER.total
            assert all(r.ok for r in engine.run(sampler, _requests(template, SIZES)))
            labels.append(
                {r["spec"] for r in metrics_on.RECORDER.since(start) if "#s" in r["spec"]}
            )
    assert len(labels[0]) == 2 and labels[0] == labels[1]


class _Injected(RuntimeError):
    pass


def _fail_on_call(monkeypatch, owner, name, nth):
    """Make ``owner.name`` raise :class:`_Injected` on its ``nth`` call."""
    original = getattr(owner, name)
    calls = []

    def failing(self, *args):
        calls.append(None)
        if len(calls) == nth:
            raise _Injected(name)
        return original(self, *args)

    monkeypatch.setattr(owner, name, failing)


@pytest.mark.parametrize(
    "owner, name, nth",
    [
        # shard 1's export fails after shard 0's draw went out
        (ProcessShardRunner, "_key_for", 2),
        # both shards' replies are still owed
        (_Resident, "receive", 1),
        # shard 0's reply was read, shard 1's is still owed
        (_Resident, "receive", 2),
    ],
)
def test_failure_with_replies_owed_leaves_no_stale_reply(
    monkeypatch, owner, name, nth
):
    sampler, _ = demo_build("range.chunked")
    # Every request spans both shards (keys 1..32 and 33..64), and the
    # first one's quota gives each shard a task.
    requests = [
        QueryRequest(op="sample", args=(1.0, 64.0), s=s) for s in [96, 6, 96, 6]
    ]
    expected = _serial_values(sampler, requests, shards=2)
    with SamplingEngine(
        placement="sharded", backend="process", seed=SEED, shards=2, max_workers=2
    ) as engine:
        _fail_on_call(monkeypatch, owner, name, nth)
        first = engine.run(sampler, requests)
        second = engine.run(sampler, requests)
    assert isinstance(first[0].error, _Injected)
    # A stale reply would be merged into the next request's result.
    assert [r.values for r in first[1:]] == expected[1:]
    assert [r.values for r in second] == expected


def test_resident_dying_mid_draw_fails_only_its_shard_requests():
    # Two shards over keys 0..119: shard 0 owns the poisoned keys below
    # FaultyRangeSampler.DIE_BELOW, so its resident dies when a span
    # starts there; spans starting at key 20 or later never kill it.
    keys = [float(i) for i in range(120)]
    sampler = FaultyRangeSampler(keys, rng=1)
    right = QueryRequest(op="sample", args=(70.0, 110.0), s=16)
    poisoned = QueryRequest(op="sample", args=(0.0, 110.0), s=32)
    left = QueryRequest(op="sample", args=(20.0, 50.0), s=16)
    with SamplingEngine(
        placement="sharded", backend="process", seed=5, shards=2, max_workers=2
    ) as engine:
        first = engine.run(sampler, [right, poisoned, right])
        dead_slot = _runner(engine)._residents[0]
        second = engine.run(sampler, [left, right, left])
        respawned = _processes(engine)
    ok_a, crashed, ok_b = first
    assert ok_a.ok and ok_b.ok
    assert isinstance(crashed.error, WorkerCrashedError)
    assert "shard 0" in str(crashed.error)
    assert dead_slot is None  # the crashed resident was joined and dropped
    assert len(respawned) == 2
    assert all(r.ok for r in second)
    for request, result in zip([left, right, left], second):
        x, y = request.args
        assert len(result.values) == request.s
        assert all(x <= value <= y for value in result.values)
