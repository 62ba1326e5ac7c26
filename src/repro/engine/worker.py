"""Worker side of the engine's ``"process"`` backend.

Workers rebuild samplers from picklable *build tokens* once and keep
them resident in a module-level cache, so a batch of R requests costs R
executions plus at most one build per ``(worker, token)`` — not R
builds. This is what lets CPU-bound scalar samplers (whose hot loops the
GIL serializes under the thread backend) scale across cores: the
registry's specs are picklable, so ``(spec, params)`` crosses the
process boundary and the structure itself never does.

Token shapes (first element is the kind):

* ``("spec", spec, params_items)`` — ``build(spec, **dict(params_items))``
  through the sampler registry; ``params_items`` is a sorted tuple of
  ``(name, value)`` pairs so equal parameter dicts produce equal tokens.
* ``("demo", spec, n)`` — ``demo_build(spec, n=n)``, the synthesized CLI
  workload.
* ``("call", "module:attr", params_items)`` — an arbitrary importable
  factory (test fault injection, custom builders).
* ``("shm", manifest)`` — attach a structure the parent exported into
  shared memory (:mod:`repro.engine.shm`, via
  :meth:`SamplingEngine.share`). The "rebuild" is an mmap attach: no
  structure arrays cross the process boundary and no O(n) build runs.
* ``("shard", "module:Class", keys, weights)`` — rebuild one key-space
  shard of a sharded placement from its raw arrays. The fallback path
  for shard-resident workers when the shard's structure has no shm
  exporter; the preferred path ships the shard as an ``("shm", ...)``
  token instead.

:func:`serve` is the main loop of one engine worker process
(:class:`repro.engine.execution.Residents`). It reads messages from its
end of a duplex pipe, receives each build token once, and answers every
message on the same pipe: a chunk of whole requests (local × process)
with the :func:`execute_chunk` envelope, a shard sub-draw —
``(shard, lo, hi, quota, seed, trace, portable)``, a few ints — with
the :func:`execute_shard_chunk` envelope, so sharded per-request bytes
stay O(log n) end to end. Partials at or above the batch cutoff cross
the pipe as ``intp`` arrays (lists on the scalar tier).

Every execution error is captured *in the worker* into the result
envelope, so one bad request cannot take a worker down; only a worker
that dies outright (``os._exit``, OOM-kill) surfaces as a closed pipe,
which the parent converts into per-request
:class:`~repro.errors.WorkerCrashedError` envelopes.

**Metric harvest** (``harvest=True``, set by the parent iff its metrics
are enabled): the worker enables its own registry, brackets the chunk
with a :func:`repro.obs.harvest.baseline` / ``delta_since`` pair, tags
every execution with the request's trace ID (a ``worker.execute`` span
plus a flight-recorder entry carrying this PID), and returns the delta
as the third envelope element. The parent merges it once per envelope
read off the pipe — a crashed worker returns no envelope, so its
partial counts die with it and a retried request is never
double-counted.
"""

from __future__ import annotations

import importlib
import pickle
import time
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.core import kernels
from repro.engine.protocol import QueryRequest, QueryResult
from repro.substrates.rng import ensure_rng

__all__ = [
    "build_from_token",
    "execute_chunk",
    "execute_shard_chunk",
    "serve",
]

#: Per-worker-process resident samplers, keyed by the pickled token.
_RESIDENT: Dict[bytes, Any] = {}


def build_from_token(token: Tuple[Any, ...]) -> Any:
    """Construct the sampler a build token describes (registry-shaped)."""
    kind = token[0]
    if kind == "spec":
        from repro.engine.registry import build

        _, spec, params_items = token
        return build(spec, **dict(params_items))
    if kind == "demo":
        from repro.engine.demo import demo_build

        _, spec, n = token
        sampler, _ = demo_build(spec, n=n)
        return sampler
    if kind == "call":
        _, target, params_items = token
        module_name, _, attr = target.partition(":")
        factory = getattr(importlib.import_module(module_name), attr)
        return factory(**dict(params_items))
    if kind == "shm":
        from repro.engine import shm

        _, manifest = token
        return shm.attach_sampler(manifest)
    if kind == "shard":
        _, target, keys, weights = token
        module_name, _, attr = target.partition(":")
        shard_cls = getattr(importlib.import_module(module_name), attr)
        # Construction consumes no instance randomness (builds are
        # deterministic) and every shard draw arrives with an explicit
        # per-task rng, so a fixed rebuild seed keeps the resident shard
        # byte-identical to the parent's copy.
        return shard_cls(list(keys), weights=list(weights), rng=0)
    raise ValueError(f"unknown build token kind {kind!r}")


def _picklable_error(exc: Exception) -> Exception:
    """The exception itself if it round-trips through pickle, else a stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def execute_chunk(
    key: bytes,
    token: Tuple[Any, ...],
    jobs: List[Tuple[QueryRequest, Optional[int]]],
    harvest: bool = False,
) -> Tuple[int, List[QueryResult], Optional[dict]]:
    """Execute a chunk of ``(request, seed)`` jobs on the resident sampler.

    Returns ``(rebuilds, results, delta)`` where ``rebuilds`` is 1 when
    this call had to (re)build the sampler — the parent feeds it into the
    ``engine.worker_rebuilds`` counter — and ``delta`` is the harvest
    payload of everything this chunk recorded in the worker registry
    (``None`` unless ``harvest``). Results are order-preserving and every
    failure is captured into the per-request envelope.
    """
    base: Optional[dict] = None
    if harvest:
        from repro.obs import harvest as harvest_mod

        # The parent may have enabled metrics after this worker forked
        # (or was spawned without REPRO_METRICS): the per-chunk flag
        # is authoritative. Enabling is sticky — residency makes this
        # worker serve many chunks, and re-disabling between chunks
        # would only race the next flag.
        obs.enable()
        base = harvest_mod.baseline()
    rebuilds = 0
    sampler = _RESIDENT.get(key)
    results: List[QueryResult] = []
    for request, seed in jobs:
        trace_token = (
            obs.set_current_trace(request.trace_id) if harvest else None
        )
        try:
            if sampler is None:
                with obs.span("worker.build", kind=str(token[0])):
                    sampler = build_from_token(token)
                _RESIDENT[key] = sampler
                rebuilds = 1
            with obs.span("worker.execute", op=request.op):
                result = sampler.execute(
                    request, rng=None if seed is None else ensure_rng(seed)
                )
            result.seed = seed
        except Exception as exc:
            result = QueryResult(
                request=request,
                values=None,
                seed=seed,
                trace_id=request.trace_id,
                error=_picklable_error(exc),
            )
        finally:
            if trace_token is not None:
                obs.reset_current_trace(trace_token)
        if harvest:
            obs.RECORDER.record(
                trace=request.trace_id,
                spec=_spec_label(token),
                op=request.op,
                s=request.s,
                backend="process",
                duration_us=(result.elapsed_s or 0.0) * 1e6,
                error=(
                    type(result.error).__name__
                    if result.error is not None
                    else None
                ),
            )
        results.append(result)
    if harvest:
        return rebuilds, results, harvest_mod.delta_since(base)
    return rebuilds, results, None


def execute_shard_chunk(
    key: bytes,
    token: Tuple[Any, ...],
    draws: List[Tuple[Any, ...]],
    harvest: bool = False,
) -> Tuple[int, List[Tuple[str, Any]], Optional[dict]]:
    """Execute shard sub-draws on this worker's resident shard.

    ``draws`` entries are ``(shard, lo, hi, quota, seed, trace_id)`` —
    one :class:`~repro.engine.protocol.ShardTask` each, plus the owning
    request's trace for harvest tagging — optionally extended with a
    seventh *portable plan* element, ``(kind, key, hint)`` from
    :meth:`~repro.core.planner.QueryPlan.portable`. When present (and
    the resident shard is planful), the worker rebuilds the parent's
    shard-local plan from the cover hint — skipping the cover search —
    and executes it; planning consumes no randomness, so the draws stay
    byte-identical to the ``sample_span`` path. All entries must target
    the shard this worker's ``token`` rebuilds (the parent routes one
    shard per resident worker). Returns ``(rebuilds, outcomes, delta)``
    where each outcome is ``("ok", local_indices)`` — an ``intp`` array
    when the quota clears the batch cutoff, a list below it or on the
    scalar tier — or ``("err", exception)``; failures are captured per
    sub-draw so one bad span cannot poison the shard's batchmates. With
    ``harvest`` on,
    each sub-draw lands in the flight recorder tagged with its shard id
    (``spec`` suffix ``#s<j>``), so per-shard timelines fall out of the
    normal obs tail.
    """
    base: Optional[dict] = None
    if harvest:
        from repro.obs import harvest as harvest_mod

        obs.enable()
        base = harvest_mod.baseline()
    rebuilds = 0
    sampler = _RESIDENT.get(key)
    outcomes: List[Tuple[str, Any]] = []
    for entry in draws:
        shard, lo, hi, quota, seed, trace_id = entry[:6]
        portable = entry[6] if len(entry) > 6 else None
        trace_token = obs.set_current_trace(trace_id) if harvest else None
        started = time.perf_counter()
        error: Optional[Exception] = None
        try:
            if sampler is None:
                with obs.span("worker.build", kind=str(token[0])):
                    sampler = build_from_token(token)
                _RESIDENT[key] = sampler
                rebuilds = 1
            with obs.span("worker.shard_draw", s=quota, shard=shard):
                if portable is not None and getattr(sampler, "plan_kind", None):
                    plan = sampler.plan_span(lo, hi, portable=portable)
                    local = sampler.execute_plan(
                        plan, quota, rng=ensure_rng(seed)
                    )
                else:
                    local = sampler.sample_span(
                        lo, hi, quota, rng=ensure_rng(seed)
                    )
            if kernels.use_batch(len(local)):
                # An array pickles as one buffer and feeds the parent's
                # merge kernel without a list walk on either side.
                local = kernels.np.asarray(local, dtype=kernels.np.intp)
            outcomes.append(("ok", local))
        except Exception as exc:
            error = _picklable_error(exc)
            outcomes.append(("err", error))
        finally:
            if trace_token is not None:
                obs.reset_current_trace(trace_token)
        if harvest:
            obs.RECORDER.record(
                trace=trace_id,
                spec=f"{_spec_label(token)}#s{shard}",
                op="sample_span",
                s=quota,
                backend="process",
                duration_us=(time.perf_counter() - started) * 1e6,
                error=type(error).__name__ if error is not None else None,
            )
    if harvest:
        return rebuilds, outcomes, harvest_mod.delta_since(base)
    return rebuilds, outcomes, None


def serve(conn: Any) -> None:
    """Main loop of one engine worker process.

    Messages arrive pickled on ``conn``, this worker's end of a duplex
    pipe:

    * ``("token", tid, key)`` — ``key`` is a pickled build token, sent
      once per (worker, token) and named ``tid`` from then on; no reply.
    * ``(kind, tid, items, harvest)`` — ``"chunk"`` runs ``items`` as
      ``(request, seed)`` jobs through :func:`execute_chunk`,
      ``"shard"`` runs them as sub-draws through
      :func:`execute_shard_chunk`; the envelope goes back on ``conn``.
    * ``None`` — stop.

    The loop also ends when every copy of the parent's end is closed.
    A token is unpickled only to build its sampler; afterwards only its
    head (kind and label, for harvest tags) is kept next to the built
    sampler in ``_RESIDENT``.
    """
    keys: Dict[int, bytes] = {}
    heads: Dict[bytes, Tuple[Any, ...]] = {}
    while True:
        try:
            message = pickle.loads(conn.recv_bytes())
        except (EOFError, KeyboardInterrupt):
            return
        if message is None:
            return
        kind, tid, body = message[:3]
        if kind == "token":
            keys[tid] = body
            continue
        key = keys[tid]
        head = heads.get(key) if key in _RESIDENT else None
        token = head if head is not None else pickle.loads(key)
        execute = execute_shard_chunk if kind == "shard" else execute_chunk
        conn.send(execute(key, token, body, harvest=message[3]))
        heads[key] = token[:2]


def _spec_label(token: Tuple[Any, ...]) -> str:
    """A short human label for the structure a build token describes."""
    kind = token[0]
    if kind in ("spec", "demo", "call") and len(token) > 1:
        return str(token[1])
    if kind == "shm" and len(token) > 1:
        return f"shm:{token[1].get('kind', '?')}"
    if kind == "shard" and len(token) > 1:
        return f"shard:{str(token[1]).rpartition(':')[2]}"
    return str(kind)
