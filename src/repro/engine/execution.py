"""The execution layer: *who runs a placement plan's shard tasks*.

The placement layer (:mod:`repro.engine.placement`) decides how a
request decomposes — for the sharded placement, into
:class:`~repro.engine.protocol.ShardTask` sub-draws that each carry
their own derived seed. This module owns the orthogonal decision of
where those tasks execute:

* :class:`SerialShardRunner` — inline, in the calling thread. The
  baseline every other runner must match byte-for-byte.
* :class:`ThreadShardRunner` — the sharded view's own thread pool; the
  legacy ``"shard"`` backend semantics, profitable when shard draws
  spend their time in GIL-dropping numpy kernels.
* :class:`ProcessShardRunner` — the composed ``sharded × process``
  backend. Each shard is exported **once** (shared memory when the
  structure has an exporter, raw-array rebuild token otherwise) and
  becomes resident in **exactly one** plain worker process, which it
  reaches over its own duplex pipe. The token crosses that pipe once;
  per-request traffic is then a handful of ints per shard (``lo, hi,
  quota, seed`` plus the shipped plan hint) — O(log n) pickled bytes —
  the partials come back as ``intp`` arrays, and the draws run GIL-free
  across cores.

Because every task already carries its stateless seed, all three
runners produce byte-identical partials; the runner choice changes only
where the CPU time is spent. Runners are owned by the sharded view they
are bound to (:meth:`~repro.engine.shard.ShardedSampler.bind_runner`),
which the engine's placement owns in turn — ``engine.close()`` tears
the whole stack down deterministically.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
from multiprocessing.connection import wait
from typing import Any, List, Optional, Sequence, Tuple

from repro import obs
from repro.engine.protocol import PlacementPlan
from repro.errors import WorkerCrashedError

__all__ = [
    "ProcessShardRunner",
    "SerialShardRunner",
    "ShardRunner",
    "ThreadShardRunner",
    "make_shard_runner",
]

_SERIALIZED = obs.counter(
    "engine.serialized_bytes",
    "Bytes pickled to process-backend workers: build tokens plus "
    "shard draw messages",
)

#: Seconds :meth:`ProcessShardRunner.close` waits for a resident to exit
#: before killing it.
_STOP_TIMEOUT_S = 5.0

#: ``(shard, local_indices)``; the indices are a list or an ``intp`` array.
Partials = List[Tuple[int, Sequence[int]]]


class ShardRunner:
    """Executes a :class:`PlacementPlan`'s tasks against a sharded view."""

    name: str = "?"

    def run_plan(self, sharded: Any, plan: PlacementPlan) -> Partials:
        """``(shard, local_indices)`` partials for every task in the plan."""
        raise NotImplementedError

    def close(self) -> None:
        """Release runner-owned resources (idempotent)."""


class SerialShardRunner(ShardRunner):
    """Run every shard task inline, in plan order."""

    name = "serial"

    def run_plan(self, sharded: Any, plan: PlacementPlan) -> Partials:
        from repro.engine.shard import run_shard_task

        plans = plan.plans or (None,) * len(plan.tasks)
        return [
            run_shard_task(sharded.shards, task, sub)
            for task, sub in zip(plan.tasks, plans)
        ]


class ThreadShardRunner(ShardRunner):
    """Fan shard tasks out over the sharded view's own thread pool.

    Delegates to the view's built-in threaded path — the same pool, the
    same single-task fast path — so ``placement="sharded",
    backend="thread"`` is *the same code* as the legacy ``"shard"``
    backend, not merely equivalent to it. The pool itself belongs to the
    view (its :meth:`close` handles shutdown), so this runner holds no
    resources.
    """

    name = "thread"

    def run_plan(self, sharded: Any, plan: PlacementPlan) -> Partials:
        return sharded._run_plan_threaded(plan)


class _Resident:
    """One shard-resident worker process and the parent's end of its pipe."""

    __slots__ = ("conn", "process")

    def __init__(self, context: Any):
        from repro.engine.worker import serve_shards

        self.conn, child = context.Pipe()
        self.process = context.Process(
            target=serve_shards, args=(child,), name="repro-shard", daemon=True
        )
        self.process.start()
        child.close()

    def send(self, message: Any) -> int:
        """Pickle ``message`` onto the pipe; returns the bytes sent.

        A process that died since its liveness check takes nothing (0
        bytes); the next :meth:`receive` reports the death.
        """
        payload = pickle.dumps(message)
        try:
            self.conn.send_bytes(payload)
        except OSError:
            return 0
        return len(payload)

    def receive(self) -> Any:
        """The next envelope, or ``None`` if the process died first."""
        if self.conn in wait([self.conn, self.process.sentinel]):
            try:
                return self.conn.recv()
            except (EOFError, OSError):
                pass
        return None

    def stop(self, timeout: float = _STOP_TIMEOUT_S) -> None:
        """Ask the process to exit, join it (killing it if it does not
        exit within ``timeout`` seconds) and release the pipe."""
        try:
            self.conn.send_bytes(pickle.dumps(None))
        except OSError:
            pass  # already dead: its end of the pipe is gone
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        self.conn.close()


class ProcessShardRunner(ShardRunner):
    """Shard-resident worker processes: one shard, one worker, no GIL.

    Lazily starts up to ``min(K, engine.max_workers)`` plain worker
    processes (from the engine's ``mp_context``), each with one duplex
    pipe; shard ``j`` always routes to resident ``j % n``, so a shard is
    rebuilt (or shm-attached) by exactly one process no matter how many
    requests run. A resident receives the pickled tokens of all its
    shards once, when it starts — shared memory
    (:meth:`SamplingEngine.share`) when the structure has an exporter, a
    raw ``("shard", ...)`` array token otherwise — and from then on a
    request sends it only the draw tuple and the harvest flag and reads
    the envelope back from the same pipe. Tokens reach an idle process
    and draw messages are small, so no send waits on a resident that is
    itself blocked writing a large reply.

    A resident that dies with a draw in flight (seen through
    :func:`multiprocessing.connection.wait` on its pipe and its process
    sentinel) fails only the requests touching its shards, with a
    :class:`~repro.errors.WorkerCrashedError` naming the shard; one
    found dead before a send is replaced and the request runs. Either
    way the next use starts a fresh resident, while the other residents
    keep serving. Replies carry no request tag, so if anything raises
    while replies are still owed, the residents owing them are killed
    rather than left to answer the next request. :meth:`close` stops and
    joins every resident.

    One request uses the pipes at a time: concurrent ``engine.run``
    calls on the same sharded × process view are serialised by a
    per-runner lock (each run's shard draws still proceed in parallel
    across the residents).
    """

    name = "process"

    def __init__(self, engine: Any, sharded: Any):
        self._engine = engine
        self._sharded = sharded
        self._context = multiprocessing.get_context(engine._mp_context)
        count = max(1, min(len(sharded.shards), engine.max_workers))
        self._residents: List[Optional[_Resident]] = [None] * count
        self._keys: List[Optional[bytes]] = [None] * len(sharded.shards)
        # One request's messages and replies at a time on each pipe.
        self._lock = threading.Lock()

    # -- resident plumbing ---------------------------------------------

    def _key_for(self, shard: int) -> bytes:
        """Shard ``shard``'s pickled build token (exported once)."""
        key = self._keys[shard]
        if key is None:
            from repro.engine.shm import ShmShareError

            structure = self._sharded.shards[shard]
            try:
                token = self._engine.share(structure)
            except ShmShareError:
                cls = type(structure)
                token = (
                    "shard",
                    f"{cls.__module__}:{cls.__qualname__}",
                    tuple(structure.keys),
                    tuple(structure.weights),
                )
            key = self._keys[shard] = pickle.dumps(token)
        return key

    def _resident_for(self, shard: int) -> _Resident:
        """The live resident for ``shard``, started (with the tokens of
        every shard it serves) when missing or found dead."""
        count = len(self._residents)
        slot = shard % count
        resident = self._residents[slot]
        if resident is not None and resident.process.is_alive():
            return resident
        if resident is not None:
            resident.stop()
        # Export before forking, so the export's writes do not fault on
        # pages shared copy-on-write with the new process.
        tokens = [
            ("token", served, self._key_for(served))
            for served in range(slot, len(self._keys), count)
        ]
        resident = self._residents[slot] = _Resident(self._context)
        for token in tokens:
            sent = resident.send(token)
            if obs.ENABLED:
                _SERIALIZED.add(sent)
        return resident

    def _retire(
        self, residents: Sequence[_Resident], timeout: float = _STOP_TIMEOUT_S
    ) -> None:
        """Stop each still-current resident in ``residents`` and empty
        its slot, so the next use starts a fresh one."""
        for resident in residents:
            if resident in self._residents:
                self._residents[self._residents.index(resident)] = None
                resident.stop(timeout)

    # -- execution ------------------------------------------------------

    def run_plan(self, sharded: Any, plan: PlacementPlan) -> Partials:
        enabled = obs.ENABLED
        trace = obs.current_trace() if enabled else None
        plans = plan.plans or (None,) * len(plan.tasks)
        crash: Optional[WorkerCrashedError] = None
        failure: Optional[Exception] = None
        partials: Partials = []
        sent: List[_Resident] = []
        received = 0
        with self._lock:
            try:
                for task, sub in zip(plan.tasks, plans):
                    # Ship the parent's shard-local plan as portable data
                    # (kind, key, cover hint) — O(log n) ints — so the
                    # resident skips the cover search and executes the
                    # very same plan.
                    portable = (
                        sub.portable()
                        if sub is not None and getattr(sub, "hint", None) is not None
                        else None
                    )
                    draw = (
                        task.shard,
                        task.lo,
                        task.hi,
                        task.quota,
                        task.seed,
                        trace,
                        portable,
                    )
                    # Started here, after earlier shards' draws went out,
                    # so a new resident's start overlaps their work.
                    resident = self._resident_for(task.shard)
                    sent.append(resident)
                    size = resident.send((draw, enabled))
                    if enabled:
                        _SERIALIZED.add(size)
                # Every reply is read before any raise: sibling shards'
                # residents stay in step and their envelopes are merged
                # even when one shard fails.
                for received, (task, resident) in enumerate(zip(plan.tasks, sent)):
                    live = resident in self._residents
                    envelope = resident.receive() if live else None
                    if envelope is None:
                        self._retire([resident])
                        crash = crash or WorkerCrashedError(
                            f"shard-resident worker for shard {task.shard} died "
                            f"mid-draw; it is replaced on next use"
                        )
                        continue
                    rebuilds, outcomes, delta = envelope
                    if enabled:
                        self._engine._merge_envelope(rebuilds, delta)
                    status, payload = outcomes[0]
                    if status == "err":
                        failure = failure or payload
                        continue
                    partials.append((task.shard, payload))
            except BaseException:
                # Replies carry no request tag: one left unread would be
                # taken for the next request's. Kill every resident that
                # may still owe one; the next use starts fresh ones.
                self._retire(sent[received:], timeout=0)
                raise
        if crash is not None:
            raise crash
        if failure is not None:
            raise failure
        return partials

    def close(self) -> None:
        with self._lock:
            residents, self._residents = (
                self._residents, [None] * len(self._residents)
            )
            for resident in residents:
                if resident is not None:
                    resident.stop()
            self._keys = [None] * len(self._keys)


def make_shard_runner(engine: Any, sharded: Any) -> Optional[ShardRunner]:
    """The runner matching ``engine.execution`` for a sharded view.

    Returns ``None`` for thread execution *when the view's own pool
    geometry already matches* — binding nothing keeps the view on its
    built-in threaded path (byte-identical either way; this just avoids
    an indirection on the legacy alias).
    """
    execution = engine.execution
    if execution == "serial":
        return SerialShardRunner()
    if execution == "process":
        return ProcessShardRunner(engine, sharded)
    return ThreadShardRunner()
