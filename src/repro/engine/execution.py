"""The execution layer: *who runs the work*, and the engine's worker processes.

The placement layer (:mod:`repro.engine.shard`) decides how a
request decomposes — for the sharded placement, into
:class:`~repro.engine.protocol.ShardTask` sub-draws that each carry
their own derived seed. This module owns the orthogonal decision of
where work executes:

* :class:`SerialShardRunner` — shard tasks inline, in the calling
  thread. The baseline every other runner must match byte-for-byte.
* :class:`ThreadShardRunner` — shard tasks on the engine's thread pool
  (the one local × thread uses). On a 2-core x86_64 VM it read slower
  than :class:`SerialShardRunner` in every cell measured (K = 2,
  n = 2^16, 32 warm spans × 16 requests, best of 9, µs per request):
  chunked 90–92 against 62–63 at s = 16 and 182–186 against 120–121 at
  s = 1,024, Lemma 2 89–96 against 53–54 and TreeWalk 130–132 against
  97–98 at s = 16.
* :class:`ProcessShardRunner` — shard tasks on the engine's worker
  processes, one shard resident per process, so per-request traffic is
  one draw tuple of six plain values per shard. Each worker builds its
  shard from the view's recipe (the parent builds none) and plans the
  shard's sub-spans in its own plan store.
* :class:`Residents` — those worker processes: the one process runtime
  behind both process cells. Local × process sends it chunks of whole
  requests, sharded × process sends it shard draws.

Because every task already carries its stateless seed, all runners
produce byte-identical partials; the runner choice changes only where
the CPU time is spent. The engine owns its runners through its sharded
views, so a runner refers to the engine weakly: a dropped engine that
was never closed is then freed (and its workers stopped) at once, not
at the next garbage collection.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import weakref
from multiprocessing.connection import wait
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.engine.protocol import ShardTask
from repro.errors import WorkerCrashedError

__all__ = [
    "ProcessShardRunner",
    "Residents",
    "SerialShardRunner",
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


def _run_inline(sharded: Any, tasks: Sequence[ShardTask]) -> Partials:
    from repro.engine.shard import run_shard_task

    return [run_shard_task(sharded.shards[task.shard], task) for task in tasks]


class SerialShardRunner:
    """Run every shard task inline, in task order."""

    def run_plan(self, sharded: Any, tasks: Sequence[ShardTask]) -> Partials:
        """``(shard, local_indices)`` partials for every task."""
        return _run_inline(sharded, tasks)


class ThreadShardRunner:
    """Fan shard tasks out over the engine's thread pool.

    The pool is the one local × thread runs on
    (:meth:`SamplingEngine._ensure_threads`); a single task, or an engine
    with one worker, runs inline.
    """

    def __init__(self, engine: Any):
        self._engine = weakref.proxy(engine)

    def run_plan(self, sharded: Any, tasks: Sequence[ShardTask]) -> Partials:
        if len(tasks) < 2 or self._engine.max_workers < 2:
            return _run_inline(sharded, tasks)
        from repro.engine.shard import run_shard_task

        shards = sharded.shards
        return list(
            self._engine._ensure_threads().map(
                lambda task: run_shard_task(shards[task.shard], task), tasks
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
            # Missing processes all start before the first send: a send
            # of a large token (a shard's recipe) waits until its process
            # reads it, so the start-ups overlap instead of queueing.
            residents = [self._live(entry[2][0]) for entry in entries]
            for resident, (_, _, (_, key, kind, items), _) in zip(residents, entries):
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


class ProcessShardRunner:
    """Shard tasks on the engine's worker processes (:class:`Residents`).

    Shard ``j`` always goes to slot ``j % min(K, max_workers)``, so each
    shard is built by exactly one process no matter how many requests
    run. Its recipe reaches that process once, as a ``("call",
    "module:Class", params)`` token carrying the shard's key and weight
    slice (:meth:`~repro.engine.shard._Shards.token`), and the process
    builds the shard it draws from; the parent builds none. Each request
    then sends only its draw tuples. A process that replaces a dead one
    rebuilds the shard from the same token. A draw whose process dies
    twice fails the request with a
    :class:`~repro.errors.WorkerCrashedError` naming the shard.
    """

    def __init__(self, engine: Any, sharded: Any):
        self._engine = weakref.proxy(engine)
        # The shards, not the view: the view holds this runner, and a
        # reference cycle would keep both alive until a garbage collection.
        self._shards = sharded.shards
        self._slots = max(1, min(len(self._shards), engine.max_workers))
        self._keys: List[Optional[bytes]] = [None] * len(self._shards)

    def _key_for(self, shard: int) -> bytes:
        """Shard ``shard``'s pickled build token (made once)."""
        key = self._keys[shard]
        if key is None:
            key = self._keys[shard] = pickle.dumps(self._shards.token(shard))
        return key

    def run_plan(self, sharded: Any, tasks: Sequence[ShardTask]) -> Partials:
        trace = obs.current_trace() if obs.ENABLED else None
        # One message per task: its shard's slot, token key and one draw
        # tuple of a few ints. The key is pickled here, before the run
        # starts any process, so its writes do not fault on pages a new
        # process shares copy-on-write.
        messages: List[Task] = [
            (
                task.shard % self._slots,
                self._key_for(task.shard),
                "shard",
                [(task.shard, task.lo, task.hi, task.quota, task.seed, trace)],
            )
            for task in tasks
        ]
        crash: Optional[WorkerCrashedError] = None
        failure: Optional[Exception] = None
        partials: Partials = []
        for task, (outcome,) in zip(tasks, self._engine._workers.run(messages)):
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


def make_shard_runner(
    engine: Any, sharded: Any
) -> Union[SerialShardRunner, ThreadShardRunner, ProcessShardRunner]:
    """The runner matching ``engine.execution`` for a sharded view."""
    if engine.execution == "serial":
        return SerialShardRunner()
    if engine.execution == "process":
        return ProcessShardRunner(engine, sharded)
    return ThreadShardRunner(engine)
