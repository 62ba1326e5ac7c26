"""Batched query execution with per-request RNG streams and backends.

:class:`SamplingEngine` turns a batch of
:class:`~repro.engine.protocol.QueryRequest` into an order-preserving
list of :class:`~repro.engine.protocol.QueryResult`:

* **Independence by seed-spawning.** Request ``i`` without an explicit
  seed runs on ``derive_seed(engine_seed, i)`` (stateless SplitMix64
  spawning in :mod:`repro.substrates.rng`), so every request draws from
  its own stream, the whole batch is a pure function of the engine seed,
  and backends that preserve per-request streams produce identical
  results. Construct with ``seed=None`` to instead let requests consume
  the sampler's own instance stream serially (the classic single-stream
  behaviour).
* **Composable placement × execution layers.** The engine stacks two
  orthogonal decisions, resolved by :func:`normalize_backend`: a
  **placement** (``"local"`` runs requests against the whole
  structure, ``"sharded"`` splits each request's ``s`` multinomially
  over ``shards`` contiguous key-space pieces, §4.1, in
  :mod:`repro.engine.shard`) over an **execution** backend
  (``"serial"`` in submission order; ``"thread"`` over one engine-owned
  :class:`~concurrent.futures.ThreadPoolExecutor`, started by the first
  run, reused by every later one and released by :meth:`close` — on
  2 cores it runs the ``cold-bulk`` benchmark workload (Lemma 2,
  4 × s=4096 per call) slower than serial: one 1,000-call round with
  seed 7 read 2,983–3,032 ops/s against 4,536–4,745 for serial over
  three runs on a 2-core x86_64 VM, because most of each request holds
  the GIL; the sharded placement's
  shard draws fan out over the same pool; ``"process"`` over the
  engine's worker processes, :class:`~repro.engine.execution.Residents`
  — for CPU-bound scalar samplers the GIL serializes). Under the local
  placement the process backend executes whole requests against
  worker-resident rebuilds from picklable build tokens; under the
  sharded placement it keeps **one shard resident per worker**: each
  worker builds its shard from the recipe it is sent once, the parent
  builds none, and per-request traffic is a few ints per shard.
  docs/ARCHITECTURE.md has the placement × execution matrix.
  A sampler whose queries mutate its state (``engine_thread_safe =
  False``) runs a thread-backend batch in submission order, so its
  outputs match the serial backend's.
* **Error capture.** Per-request failures (empty interval, bad ``s``, a
  worker process dying mid-batch) are caught into ``result.error``
  instead of poisoning the batch; ``errors="raise"`` restores fail-fast
  behaviour.
* **Zero-copy structure sharing.** :meth:`SamplingEngine.share` exports
  a built structure's arrays into shared memory
  (:mod:`repro.engine.shm`) and returns an ``("shm", manifest)`` token:
  local × process workers attach read-only instead of rebuilding, and
  :meth:`SamplingEngine.close` unlinks the segments.
* **Observability.** ``engine.batches`` / ``engine.requests`` /
  ``engine.request_errors`` / ``engine.worker_rebuilds`` /
  ``engine.serialized_bytes`` / ``engine.shards`` counters, the
  ``engine.shard_merge_us`` and ``engine.shm_attach_us`` histograms, and
  the ``engine.run`` span feed :mod:`repro.obs` when metrics are
  enabled.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import threading
from concurrent.futures import ThreadPoolExecutor
from difflib import get_close_matches
from time import perf_counter
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.engine.execution import Residents, make_shard_runner
from repro.engine.protocol import QueryRequest, QueryResult, Sampler
from repro.engine.registry import build
from repro.errors import WorkerCrashedError
from repro.substrates.rng import DEFAULT_SEED, derive_seed

__all__ = ["BACKENDS", "PLACEMENTS", "SamplingEngine", "normalize_backend", "spec_token"]

#: Supported placements (the first axis of the backend matrix).
PLACEMENTS = ("local", "sharded")

#: Execution backends, each valid under every placement (the second axis).
BACKENDS = ("serial", "thread", "process")

#: Default shard count for the sharded placement when none is given.
DEFAULT_SHARDS = 4

_BATCHES = obs.counter("engine.batches", "SamplingEngine.run invocations")
_REQUESTS = obs.counter("engine.requests", "Requests executed by the engine")
_ERRORS = obs.counter(
    "engine.request_errors", "Requests whose execution raised (captured)"
)
_REQUEST_US = obs.histogram(
    "engine.request_us",
    "Per-request end-to-end sampler execution latency (microseconds)",
)


def _did_you_mean(value: Any, choices: Sequence[str]) -> str:
    close = get_close_matches(str(value), choices, n=3)
    return f" (did you mean {', '.join(repr(c) for c in close)}?)" if close else ""


def normalize_backend(
    backend: str, placement: Optional[str] = None
) -> Tuple[str, str]:
    """Resolve ``(backend, placement)`` into ``(placement, execution)``.

    ``placement=None`` means the local placement; every placement
    composes with each of ``serial | thread | process``.
    """
    if placement is None:
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}{_did_you_mean(backend, BACKENDS)}; "
                f"choose from {BACKENDS}"
            )
        return "local", backend
    if placement not in PLACEMENTS:
        raise ValueError(
            f"unknown placement {placement!r}{_did_you_mean(placement, PLACEMENTS)}; "
            f"choose from {PLACEMENTS}"
        )
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown execution backend {backend!r} under "
            f"placement={placement!r}; choose from {BACKENDS}"
        )
    return placement, backend


def _attach_flight(error: Exception, trace_id: Optional[str]) -> None:
    """Stamp the trace's flight records onto a captured exception."""
    try:
        error.flight_records = obs.RECORDER.for_trace(trace_id)
    except Exception:  # exceptions with __slots__ cannot carry extras
        pass


def spec_token(spec: str, params: Mapping[str, Any]) -> Tuple[Any, ...]:
    """The picklable build token for ``build(spec, **params)``.

    Parameter items are sorted by name so equal dicts yield equal tokens
    — and therefore hit the same worker-resident sampler cache entry.
    """
    return ("spec", spec, tuple(sorted(params.items())))


class SamplingEngine:
    """Executor for batches of sampling requests over protocol samplers.

    Parameters
    ----------
    backend:
        The execution backend: ``"serial"``, ``"thread"``, or
        ``"process"``.
    placement:
        ``"local"`` (default) or ``"sharded"`` — where requests run
        (the sharded placement lives in :mod:`repro.engine.shard`).
        ``placement="sharded"`` composes with any execution backend;
        ``backend="process"`` under it keeps one shard resident per
        worker process.
    max_workers:
        Width of the engine's thread pool and its number of worker
        processes: an int ``>= 1`` (else ``ValueError``); defaults to
        ``min(8, cpu_count)``.
    seed:
        Engine master seed for per-request stream spawning. ``None``
        keeps the default policy seed (:data:`repro.substrates.rng.DEFAULT_SEED`);
        pass ``seed=False`` to disable spawning entirely and let every
        request consume the sampler's instance stream (forces serial
        execution semantics per sampler).
    errors:
        ``"capture"`` (default) stores per-request exceptions on the
        result; ``"raise"`` propagates the first failure (in submission
        order for the fan-out backends).
    shards:
        Shard count for the sharded placement (default
        :data:`DEFAULT_SHARDS`); clamped to the structure's key count
        at run time.
    mp_context:
        Start method for the engine's worker processes (``"fork"``,
        ``"spawn"``, ``"forkserver"``), under either placement;
        ``None`` keeps the platform default. Shared-memory tokens attach
        by segment name, so they work under every start method.
    """

    def __init__(
        self,
        backend: str = "serial",
        max_workers: Optional[int] = None,
        seed: Any = None,
        errors: str = "capture",
        shards: Optional[int] = None,
        mp_context: Optional[str] = None,
        placement: Optional[str] = None,
    ):
        self.placement, self.execution = normalize_backend(backend, placement)
        if errors not in ("capture", "raise"):
            raise ValueError(f"errors must be 'capture' or 'raise', got {errors!r}")
        for name, value in (("max_workers", max_workers), ("shards", shards)):
            if value is not None and (
                not isinstance(value, int) or isinstance(value, bool) or value < 1
            ):
                raise ValueError(f"{name} must be an int >= 1, got {value!r}")
        self.backend = backend
        self.max_workers = max_workers or min(8, os.cpu_count() or 1)
        self.shards = shards if shards is not None else DEFAULT_SHARDS
        # Sharded views (see _view): id(sampler) -> (sampler, view); the
        # strong sampler ref pins the id for the memo's lifetime.
        self._views: Dict[int, Tuple[Any, Any]] = {}
        if seed is False:
            self._seed: Optional[int] = None
        elif seed is None:
            self._seed = DEFAULT_SEED
        elif isinstance(seed, int):
            self._seed = seed
        else:
            raise TypeError(f"seed must be an int, None, or False, got {seed!r}")
        if mp_context is not None:
            methods = multiprocessing.get_all_start_methods()
            if mp_context not in methods:
                raise ValueError(
                    f"unknown mp_context {mp_context!r}; choose from {methods}"
                )
        self._errors = errors
        self._workers = Residents(mp_context, self.max_workers)
        self._threads: Optional[ThreadPoolExecutor] = None
        self._threads_lock = threading.Lock()
        # Shared-memory exports this engine owns: id(sampler) -> (sampler,
        # token) memo (the strong ref pins the id), plus the segments to
        # unlink at close().
        self._shm_tokens: Dict[int, Tuple[Any, Tuple[Any, ...]]] = {}
        self._shm_segments: List[Any] = []

    @property
    def seed(self) -> Optional[int]:
        """The engine master seed (``None`` = instance-stream mode)."""
        return self._seed

    def seeds_for(self, requests: Sequence[QueryRequest]) -> List[Optional[int]]:
        """The effective per-request seed of each request in a batch."""
        return [
            request.seed
            if request.seed is not None
            else (None if self._seed is None else derive_seed(self._seed, index))
            for index, request in enumerate(requests)
        ]

    def trace_ids_for(self, requests: Sequence[QueryRequest]) -> List[str]:
        """The effective trace ID of each request in a batch.

        Explicit ``request.trace_id`` wins; otherwise the ID is a
        stateless hash of the request's seed base and batch index
        (:func:`repro.obs.trace_id_for`) — deterministic, derived from
        the same seed stream as the per-request RNG seeds but
        domain-separated from it, and consuming no randomness, so sample
        streams are byte-identical whether or not anyone looks at the
        trace.
        """
        base = DEFAULT_SEED if self._seed is None else self._seed
        return [
            request.trace_id
            if request.trace_id is not None
            else obs.trace_id_for(
                request.seed if request.seed is not None else base, index
            )
            for index, request in enumerate(requests)
        ]

    def _assign_traces(self, requests: Sequence[QueryRequest]) -> List[str]:
        """Stamp engine-derived trace IDs onto requests lacking one."""
        traces = self.trace_ids_for(requests)
        for request, trace in zip(requests, traces):
            if request.trace_id is None:
                # QueryRequest is frozen for hashing/equality hygiene;
                # the engine is the one sanctioned writer of this field.
                object.__setattr__(request, "trace_id", trace)
        return traces

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Join the threads and worker processes, then unlink shared
        segments (idempotent; a later run starts fresh ones).

        The engine owns every segment created through :meth:`share`;
        unlinking after the workers are joined means no segment can leak
        even when workers crashed mid-batch — dead workers' mappings
        vanish with them, and unlink removes the name.
        """
        self._close(join_threads=True)

    def _close(self, join_threads: bool) -> None:
        self._views = {}
        with self._threads_lock:
            threads, self._threads = self._threads, None
        if threads is not None:
            threads.shutdown(wait=join_threads)
        self._workers.close()
        segments, self._shm_segments = self._shm_segments, []
        self._shm_tokens.clear()
        if segments:
            from repro.engine import shm

            shm.unlink_segments(segments)

    def share(self, sampler: Sampler) -> Tuple[Any, ...]:
        """Export ``sampler``'s structure to shared memory; return its token.

        The returned ``("shm", manifest)`` token is picklable and tiny
        (segment names plus O(log n) metadata) — pass it to
        :meth:`run_token` and process-backend workers mmap-attach the
        parent's arrays read-only instead of rebuilding or unpickling
        them. Repeated calls with the same sampler instance reuse the
        first export. Segments live until :meth:`close`.

        Raises :class:`~repro.engine.shm.ShmShareError` for structures
        without a shared-memory exporter (fall back to spec tokens).
        """
        from repro.engine import shm

        memo = self._shm_tokens.get(id(sampler))
        if memo is not None:
            return memo[1]
        manifest, segments = shm.export_sampler(
            sampler, rng_seed=DEFAULT_SEED if self._seed is None else self._seed
        )
        self._shm_segments.extend(segments)
        token = shm.shm_token(manifest)
        self._shm_tokens[id(sampler)] = (sampler, token)
        return token

    def __enter__(self) -> "SamplingEngine":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        self.close()
        return False

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        # Garbage collection can run this inside another thread's start-up,
        # where joining threads deadlocks: the pool's threads are told to
        # exit and left to do so on their own.
        try:
            self._close(join_threads=False)
        except Exception:
            pass

    # ------------------------------------------------------------------

    def run(
        self, sampler: Sampler, requests: Iterable[QueryRequest]
    ) -> List[QueryResult]:
        """Execute ``requests`` against ``sampler``; results keep order.

        Legal for every placement × execution combination except
        local × process (whole requests cannot ship an already-built
        structure to a worker; use :meth:`run_spec` / :meth:`run_token`
        there). Under sharded × process only each shard's recipe (its
        class, keys and weights, once per worker) and the shard
        sub-draws cross the process boundary, so built samplers are
        fine.
        """
        if self.placement == "local" and self.execution == "process":
            raise ValueError(
                "the process backend executes picklable build tokens, not "
                "already-built samplers; use run_spec(spec, params, requests) "
                "or run_token(token, requests) — or compose it with "
                "placement='sharded', which ships shard sub-draws instead"
            )
        return self._batch(requests, type(sampler).__name__, self._dispatch, sampler)

    def run_spec(
        self, spec: str, params: dict, requests: Iterable[QueryRequest]
    ) -> Tuple[Sampler, List[QueryResult]]:
        """Build ``spec`` through the registry, run the batch, return both.

        Under the process backend the batch executes against
        worker-resident rebuilds of ``(spec, params)``; the locally built
        sampler is returned for inspection and is byte-equivalent to the
        workers' copies (registry construction is deterministic).
        """
        sampler = build(spec, **params)
        if self.placement == "local" and self.execution == "process":
            return sampler, self.run_token(spec_token(spec, params), requests)
        return sampler, self.run(sampler, requests)

    def run_token(
        self, token: Tuple[Any, ...], requests: Iterable[QueryRequest]
    ) -> List[QueryResult]:
        """Execute a batch against a build token on the worker processes.

        ``token`` is any :mod:`repro.engine.worker` build token —
        normally :func:`spec_token`'s ``("spec", spec, params_items)``.
        The token (and thus every build parameter) must be picklable.
        Only meaningful for the local × process combination.
        """
        if self.placement != "local" or self.execution != "process":
            raise ValueError(
                f"run_token requires backend='process' under placement='local'; "
                f"this engine is placement={self.placement!r}, "
                f"backend={self.execution!r}"
            )
        try:
            key = pickle.dumps(token)
        except Exception as exc:
            raise TypeError(
                f"process-backend build token must be picklable "
                f"(rng must be an int seed, params plain data): {exc}"
            ) from exc
        spec = str(token[1]) if len(token) > 1 else "?"
        return self._batch(requests, spec, self._dispatch_process, key, spec)

    def explain(
        self, sampler: Sampler, request: QueryRequest
    ) -> Dict[str, Any]:
        """Plan ``request`` without executing any draws.

        Runs the planning half of the plan → execute split against the
        engine's view of ``sampler`` (so under the sharded placement
        the result describes the fan-out plan) and reports it as plain
        data: the plan's cover spans and weights, whether it came out of
        the plan store (``"cached"``) or was built cold, and — for
        sharded plans — the view's
        :meth:`~repro.engine.shard.ShardedSampler.explain_plan` keys,
        which plan each active shard here (under sharded × process the
        workers build their own copies, and draws never use this one).
        Planning and building consume no randomness, so explaining a
        request leaves every seeded stream untouched (the plan stores do
        warm up, exactly as the request's own shard draws would warm
        them in this process).

        Raises :class:`TypeError` for structures with no planning
        surface and :class:`NotImplementedError` for range samplers
        that opt out of the plan layer.
        """
        view = self._view(sampler)
        planner = getattr(view, "plan_request", None)
        if planner is None:
            raise TypeError(
                f"{type(sampler).__name__} has no query-planning surface "
                f"(no plan_request); --explain needs a planful structure"
            )
        scope = getattr(view, "plan_cache", None)
        misses_before = scope.misses if scope is not None else None
        plan = planner(request)
        info = plan.describe()
        info["cached"] = (
            scope is not None and scope.misses == misses_before
        )
        info["placement"] = self.placement
        if getattr(view, "plan_kind", None) == "sharded":
            info.update(view.explain_plan(plan, request.s))
        return info

    # ------------------------------------------------------------------

    def _batch(
        self, requests: Iterable[QueryRequest], label: str, dispatch: Any, *args: Any
    ) -> List[QueryResult]:
        """The prologue every batch shares: list the requests, assign
        their seeds and trace IDs, count the batch, and run
        ``dispatch(*args, batch, seeds)`` inside the ``engine.run`` span
        (``label`` names the sampler on it)."""
        batch = list(requests)
        enabled = obs.ENABLED
        if enabled:
            _BATCHES.inc()
            _REQUESTS.add(len(batch))
        seeds = self.seeds_for(batch)
        self._assign_traces(batch)
        if enabled:
            with obs.span(
                "engine.run",
                backend=self.backend,
                requests=len(batch),
                sampler=label,
            ):
                return dispatch(*args, batch, seeds)
        return dispatch(*args, batch, seeds)

    def _view(self, sampler: Sampler) -> Any:
        """What requests on ``sampler`` execute against: the sampler
        itself under the local placement; under the sharded placement a
        caller's own :class:`~repro.engine.shard.ShardedSampler` as
        given, else this engine's view of it, bound to the runner for
        its execution backend. The view is a planning skeleton over the
        sampler's own keys and weights, and every runner builds a shard
        where it is first read: the serial and thread runners here, on
        a request's first draw from it, and the process runner in the
        worker that draws it (the parent builds none).
        Views are memoized on the engine, not the sampler, so a sampler
        shared across engines never runs on another engine's workers,
        and :meth:`close` drops every view."""
        if self.placement == "local":
            return sampler
        memo = self._views.get(id(sampler))
        if memo is not None:
            return memo[1]
        from repro.engine.shard import ShardedSampler

        if isinstance(sampler, ShardedSampler):
            return sampler
        view = ShardedSampler(sampler, self.shards)
        view.bind_runner(make_shard_runner(self, view))
        self._views[id(sampler)] = (sampler, view)
        return view

    def _dispatch(
        self,
        sampler: Sampler,
        batch: List[QueryRequest],
        seeds: List[Optional[int]],
    ) -> List[QueryResult]:
        # Under the sharded placement requests run in submission order
        # and the parallelism lives *inside* each request's shard fan-out.
        # So do requests on a sampler whose queries mutate its state
        # (rebuild epochs, pool cursors): pool threads would take its
        # lock in any order, and the thread backend must replay the
        # serial stream.
        view = self._view(sampler)
        spec = getattr(view, "engine_spec", None) or type(view).__name__
        jobs = list(zip(batch, seeds))
        if (
            self.placement == "local"
            and self.execution == "thread"
            and len(jobs) > 1
            and self.max_workers > 1
            and getattr(view, "engine_thread_safe", True)
        ):
            return list(
                self._ensure_threads().map(
                    lambda job: self._execute_one(view, spec, *job), jobs
                )
            )
        return [self._execute_one(view, spec, request, seed) for request, seed in jobs]

    def _ensure_threads(self) -> ThreadPoolExecutor:
        """The engine's thread pool (local requests, sharded fan-out),
        started on first use and kept until :meth:`close` (a later run
        starts a fresh one)."""
        with self._threads_lock:  # concurrent first runs must not start two
            if self._threads is None:
                self._threads = ThreadPoolExecutor(max_workers=self.max_workers)
            return self._threads

    def _execute_one(
        self, sampler: Sampler, spec: str, request: QueryRequest, seed: Optional[int]
    ) -> QueryResult:
        enabled = obs.ENABLED
        trace_token = obs.set_current_trace(request.trace_id) if enabled else None
        try:
            started = perf_counter() if enabled else 0.0
            try:
                result = sampler.execute(request, rng=seed)
                result.seed = seed
            except Exception as exc:
                if self._errors == "raise":
                    raise
                result = QueryResult(
                    request=request,
                    values=None,
                    seed=seed,
                    error=exc,
                    trace_id=request.trace_id,
                )
                if enabled:
                    result.elapsed_s = perf_counter() - started
            return self._settle(result, spec, recorded=False)
        finally:
            if trace_token is not None:
                obs.reset_current_trace(trace_token)

    def _settle(self, result: QueryResult, spec: str, recorded: bool) -> QueryResult:
        """Settle one request's result; every placement × execution cell
        ends here.

        Writes the request's flight record unless a worker already did
        (``recorded``). A failure is then re-raised under
        ``errors="raise"``, or else counted and stamped with its trace's
        flight records; a success feeds ``engine.request_us``.
        """
        enabled = obs.ENABLED
        error = result.error
        if enabled and not recorded:
            obs.RECORDER.record(
                trace=result.trace_id,
                spec=spec,
                op=result.request.op,
                s=result.request.s,
                backend=self.backend,
                duration_us=(result.elapsed_s or 0.0) * 1e6,
                error=type(error).__name__ if error is not None else None,
            )
        if error is not None:
            if self._errors == "raise":
                raise error
            if enabled:
                _ERRORS.inc()
                _attach_flight(error, result.trace_id)
        elif enabled:
            _REQUEST_US.observe((result.elapsed_s or 0.0) * 1e6)
        return result

    # -- process backend -----------------------------------------------

    def _dispatch_process(
        self,
        key: bytes,
        spec: str,
        batch: List[QueryRequest],
        seeds: List[Optional[int]],
    ) -> List[QueryResult]:
        """One order-preserving chunk of jobs per worker process.

        The worker processes (:class:`~repro.engine.execution.Residents`)
        build the token's sampler once each, merge each chunk's metric
        envelope once, and retry a crashed chunk's requests one at a
        time; a request whose worker dies again gets a
        :class:`~repro.errors.WorkerCrashedError` envelope here. Worker
        replies carry their own flight records; a crash envelope's is
        written by :meth:`_settle`, since the worker's died with it.
        """
        jobs = list(zip(batch, seeds))
        size = max(1, math.ceil(len(jobs) / self.max_workers))
        tasks = [
            (slot, key, "chunk", jobs[start:start + size])
            for slot, start in enumerate(range(0, len(jobs), size))
        ]
        results = [
            result for outcomes in self._workers.run(tasks) for result in outcomes
        ]
        out: List[QueryResult] = []
        for index, ((request, seed), result) in enumerate(zip(jobs, results)):
            recorded = result is not None
            if result is None:
                result = QueryResult(
                    request=request,
                    values=None,
                    seed=seed,
                    trace_id=request.trace_id,
                    error=WorkerCrashedError(
                        f"process-backend worker died executing request {index} "
                        f"(op {request.op!r}), and again on the retry"
                    ),
                )
            out.append(self._settle(result, spec, recorded))
        return out
