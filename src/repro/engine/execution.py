"""The execution layer: *who runs the work*, and the engine's worker processes.

The placement layer (:mod:`repro.engine.placement`) decides how a
request decomposes — for the sharded placement, into
:class:`~repro.engine.protocol.ShardTask` sub-draws that each carry
their own derived seed. This module owns the orthogonal decision of
where work executes:

* :class:`SerialShardRunner` — shard tasks inline, in the calling
  thread. The baseline every other runner must match byte-for-byte.
* :class:`ThreadShardRunner` — shard tasks on the engine's thread pool
  (the one local × thread uses), profitable when shard draws spend
  their time in GIL-dropping numpy kernels.
* :class:`ProcessShardRunner` — shard tasks on the engine's worker
  processes, one shard resident per process, so per-request traffic is
  a handful of ints per shard — O(log n) pickled bytes.
* :class:`Residents` — those worker processes: the one process runtime
  behind both process cells. Local × process sends it chunks of whole
  requests, sharded × process sends it shard draws.

Because every task already carries its stateless seed, all runners
produce byte-identical partials; the runner choice changes only where
the CPU time is spent.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import weakref
from multiprocessing.connection import wait
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.engine.protocol import PlacementPlan
from repro.errors import WorkerCrashedError

__all__ = [
    "ProcessShardRunner",
    "Residents",
    "SerialShardRunner",
    "ShardRunner",
    "ThreadShardRunner",
    "make_shard_runner",
]

_REBUILDS = obs.counter(
    "engine.worker_rebuilds",
    "Sampler rebuilds performed by process-backend workers",
)
_HARVESTS = obs.counter(
    "engine.harvested_chunks",
    "Worker metric deltas merged into the parent registry",
)
_SERIALIZED = obs.counter(
    "engine.serialized_bytes",
    "Bytes pickled to worker processes: each build token once per "
    "process, plus every message",
)

#: Seconds :meth:`_Resident.stop` waits for a process to exit before
#: killing it.
_STOP_TIMEOUT_S = 5.0

#: ``(shard, local_indices)``; the indices are a list or an ``intp`` array.
Partials = List[Tuple[int, Sequence[int]]]

#: ``(slot, token key, kind, items)`` — one message's work; see
#: :class:`Residents`.
Task = Tuple[int, bytes, str, List[Any]]


class ShardRunner:
    """Executes a :class:`PlacementPlan`'s tasks against a sharded view.

    The engine owns its runners through its placement's views, so a
    runner refers to the engine weakly: a dropped engine that was never
    closed is then freed (and its workers stopped) at once, not at the
    next garbage collection.
    """

    name: str = "?"

    def run_plan(self, sharded: Any, plan: PlacementPlan) -> Partials:
        """``(shard, local_indices)`` partials for every task in the plan."""
        raise NotImplementedError


def _run_inline(sharded: Any, plan: PlacementPlan) -> Partials:
    from repro.engine.shard import run_shard_task

    plans = plan.plans or (None,) * len(plan.tasks)
    return [
        run_shard_task(sharded.shards, task, sub)
        for task, sub in zip(plan.tasks, plans)
    ]


class SerialShardRunner(ShardRunner):
    """Run every shard task inline, in plan order."""

    name = "serial"

    def run_plan(self, sharded: Any, plan: PlacementPlan) -> Partials:
        return _run_inline(sharded, plan)


class ThreadShardRunner(ShardRunner):
    """Fan shard tasks out over the engine's thread pool.

    The pool is the one local × thread runs on
    (:meth:`SamplingEngine._ensure_threads`); a single task, or an engine
    with one worker, runs inline.
    """

    name = "thread"

    def __init__(self, engine: Any):
        self._engine = weakref.proxy(engine)

    def run_plan(self, sharded: Any, plan: PlacementPlan) -> Partials:
        if len(plan.tasks) < 2 or self._engine.max_workers < 2:
            return _run_inline(sharded, plan)
        from repro.engine.shard import run_shard_task

        plans = plan.plans or (None,) * len(plan.tasks)
        return list(
            self._engine._ensure_threads().map(
                lambda pair: run_shard_task(sharded.shards, *pair),
                zip(plan.tasks, plans),
            )
        )


class _Resident:
    """One worker process and the parent's end of its pipe."""

    __slots__ = ("conn", "process", "tokens")

    def __init__(self, context: Any):
        from repro.engine.worker import serve

        self.conn, child = context.Pipe()
        self.process = context.Process(
            target=serve, args=(child,), name="repro-worker", daemon=True
        )
        self.process.start()
        child.close()
        # Token key -> the id this process knows it by.
        self.tokens: Dict[bytes, int] = {}

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

    def post(self, key: bytes, kind: str, items: List[Any], harvest: bool) -> int:
        """Send one ``kind`` message over token ``key``, preceded by the
        token itself the first time this process needs it."""
        tid = self.tokens.get(key)
        sent = 0
        if tid is None:
            tid = self.tokens[key] = len(self.tokens)
            sent = self.send(("token", tid, key))
        return sent + self.send((kind, tid, items, harvest))

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


class Residents:
    """The engine's worker processes: one runtime for every process cell.

    Up to ``max_workers`` plain processes, started lazily from the
    engine's ``mp_context``. Each runs :func:`repro.engine.worker.serve`
    behind one duplex pipe. :meth:`run` takes tasks ``(slot, key, kind,
    items)``: the pickled build token ``key`` reaches slot ``slot``'s
    process once, before the first message that needs it, and the items
    then travel as one ``kind`` message — a chunk of ``(request, seed)``
    jobs (``"chunk"``) or shard draws (``"shard"``). Each process gets
    at most one message per round, so no send waits on a process that is
    blocked writing a large reply.

    One crash policy. A process found dead before a send is replaced. A
    process that dies before replying (seen through
    :func:`~multiprocessing.connection.wait` on its pipe and its
    sentinel) is replaced too, and each item of its task runs again
    alone on the fresh process; an item whose process dies again is the
    crasher. Envelopes are read and merged only here, once per reply, so
    metric harvest is exactly-once: a dead process's partial counts die
    with it. Replies carry no tag, so if anything raises while replies
    are still owed, the processes owing them are killed rather than left
    to answer the next run.

    One run uses the pipes at a time; concurrent runs wait on a lock
    (each run's tasks still proceed in parallel across the processes).
    :meth:`close` stops and joins every process.
    """

    def __init__(self, mp_context: Optional[str], max_workers: int):
        self._context = multiprocessing.get_context(mp_context)
        self._residents: List[Optional[_Resident]] = [None] * max_workers
        self._lock = threading.Lock()

    def run(self, tasks: Sequence[Task]) -> List[List[Any]]:
        """Each task's item outcomes, in order; a crasher's is ``None``."""
        outcomes: List[List[Any]] = [[None] * len(task[3]) for task in tasks]
        # (task index, index of the first item, task, already a retry)
        pending = [(index, 0, task, False) for index, task in enumerate(tasks)]
        with self._lock:
            while pending:
                current, later, slots = [], [], set()
                for entry in pending:
                    slot = entry[2][0]
                    (later if slot in slots else current).append(entry)
                    slots.add(slot)
                pending = later + self._round(current, outcomes)
        return outcomes

    def _round(self, entries: List[Any], outcomes: List[List[Any]]) -> List[Any]:
        """Send every entry's message, then read every reply; returns the
        retries that crashed tasks leave behind."""
        enabled = obs.ENABLED
        retries: List[Any] = []
        sent: List[_Resident] = []
        received = 0
        try:
            for _, _, (slot, key, kind, items), _ in entries:
                # Started here, after earlier messages went out, so a new
                # process's start overlaps their work.
                resident = self._live(slot)
                sent.append(resident)
                size = resident.post(key, kind, items, enabled)
                if enabled:
                    _SERIALIZED.add(size)
            # Every reply is read before the run returns: processes stay
            # in step and every envelope is merged.
            for received, (entry, resident) in enumerate(zip(entries, sent)):
                index, first, (slot, key, kind, items), retry = entry
                envelope = resident.receive()
                if envelope is None:
                    self._retire([resident])
                    if not retry:
                        retries.extend(
                            (index, first + offset, (slot, key, kind, [item]), True)
                            for offset, item in enumerate(items)
                        )
                    continue
                rebuilds, results, delta = envelope
                if enabled:
                    _merge_envelope(rebuilds, delta)
                outcomes[index][first:first + len(results)] = results
        except BaseException:
            # One reply left unread would be taken for the next run's.
            self._retire(sent[received:], timeout=0)
            raise
        return retries

    def _live(self, slot: int) -> _Resident:
        """Slot ``slot``'s process, started when missing or found dead."""
        resident = self._residents[slot]
        if resident is not None and resident.process.is_alive():
            return resident
        if resident is not None:
            resident.stop()
        resident = self._residents[slot] = _Resident(self._context)
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

    def close(self) -> None:
        """Stop and join every process (idempotent; a later run starts
        fresh ones)."""
        with self._lock:
            self._retire([r for r in self._residents if r is not None])


def _merge_envelope(rebuilds: int, delta: Optional[dict]) -> None:
    """Fold one reply's accounting into the parent registry."""
    if rebuilds:
        _REBUILDS.add(rebuilds)
    if delta is not None:
        _HARVESTS.inc()
        obs.merge(delta)


class ProcessShardRunner(ShardRunner):
    """Shard tasks on the engine's worker processes (:class:`Residents`).

    Shard ``j`` always goes to slot ``j % min(K, max_workers)``, so each
    shard is rebuilt (or shm-attached) by exactly one process no matter
    how many requests run. Its token is exported once per view — shared
    memory (:meth:`SamplingEngine.share`) when the structure has an
    exporter, a raw ``("shard", ...)`` array token otherwise — and each
    request sends only its draw tuples. A draw whose process dies twice
    fails the request with a :class:`~repro.errors.WorkerCrashedError`
    naming the shard.
    """

    name = "process"

    def __init__(self, engine: Any, sharded: Any):
        self._engine = weakref.proxy(engine)
        # The shards, not the view: the view holds this runner, and a
        # reference cycle would keep both alive until a garbage collection.
        self._shards = sharded.shards
        self._slots = max(1, min(len(self._shards), engine.max_workers))
        self._keys: List[Optional[bytes]] = [None] * len(self._shards)

    def _key_for(self, shard: int) -> bytes:
        """Shard ``shard``'s pickled build token (exported once)."""
        key = self._keys[shard]
        if key is None:
            from repro.engine.shm import ShmShareError

            structure = self._shards[shard]
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

    def run_plan(self, sharded: Any, plan: PlacementPlan) -> Partials:
        trace = obs.current_trace() if obs.ENABLED else None
        plans = plan.plans or (None,) * len(plan.tasks)
        tasks: List[Task] = []
        for task, sub in zip(plan.tasks, plans):
            # Ship the parent's shard-local plan as portable data (kind,
            # key, cover hint) — O(log n) ints — so the worker skips the
            # cover search and executes the very same plan.
            portable = (
                sub.portable()
                if sub is not None and getattr(sub, "hint", None) is not None
                else None
            )
            draw = (task.shard, task.lo, task.hi, task.quota, task.seed, trace, portable)
            # Exported here, before the run starts any process, so the
            # export's writes do not fault on pages a new process shares
            # copy-on-write.
            tasks.append(
                (task.shard % self._slots, self._key_for(task.shard), "shard", [draw])
            )
        crash: Optional[WorkerCrashedError] = None
        failure: Optional[Exception] = None
        partials: Partials = []
        for task, (outcome,) in zip(plan.tasks, self._engine._workers.run(tasks)):
            if outcome is None:
                crash = crash or WorkerCrashedError(
                    f"worker process for shard {task.shard} died mid-draw, "
                    f"and again on the retry"
                )
            elif outcome[0] == "err":
                failure = failure or outcome[1]
            else:
                partials.append((task.shard, outcome[1]))
        if crash is not None:
            raise crash
        if failure is not None:
            raise failure
        return partials


def make_shard_runner(engine: Any, sharded: Any) -> ShardRunner:
    """The runner matching ``engine.execution`` for a sharded view."""
    if engine.execution == "serial":
        return SerialShardRunner()
    if engine.execution == "process":
        return ProcessShardRunner(engine, sharded)
    return ThreadShardRunner(engine)
