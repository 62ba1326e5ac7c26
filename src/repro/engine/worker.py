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
  factory (test fault injection, custom builders), and the recipe every
  key-space shard of a sharded × process engine arrives as: its class,
  called with its ``keys``, ``weights`` and ``rng=0``. The worker builds
  the shard it draws from; the parent never builds it.
* ``("shm", manifest)`` — attach a structure the parent exported into
  shared memory (:mod:`repro.engine.shm`, via
  :meth:`SamplingEngine.share`, under local × process). The "rebuild" is
  an mmap attach: no structure arrays cross the process boundary and no
  O(n) build runs.

:func:`serve` is the main loop of one engine worker process
(:class:`repro.engine.execution.Residents`). It reads messages from its
end of a duplex pipe, receives each build token once, and answers every
message on the same pipe through :func:`execute`: a chunk of whole
requests (local × process), or a shard sub-draw — ``(shard, lo, hi,
quota, seed, trace)``, a few ints — so sharded per-request bytes stay
O(1) per shard. The resident shard is built here from its ``"call"``
recipe and plans its sub-span itself, through this process's plan
store. A partial crosses the pipe in the container
its draw made: an ``intp`` array at or above the batch cutoff, a list
below it (and on the scalar tier).

Every execution error is captured *in the worker* into the result
envelope, so one bad request cannot take a worker down; only a worker
that dies outright (``os._exit``, OOM-kill) surfaces as a closed pipe,
which the parent converts into per-request
:class:`~repro.errors.WorkerCrashedError` envelopes.

**Metric harvest** (``harvest=True``, set by the parent iff its metrics
are enabled): the worker enables its own registry, brackets the message
with a :func:`repro.obs.harvest.baseline` / ``delta_since`` pair, tags
every item with its request's trace ID (a ``worker.execute`` or
``worker.shard_draw`` span plus a flight-recorder entry carrying this
PID), and returns the delta as the third envelope element. The parent
merges it once per envelope read off the pipe — a crashed worker
returns no envelope, so its partial counts die with it and a retried
request is never double-counted.
"""

from __future__ import annotations

import importlib
import pickle
import time
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.engine.protocol import QueryRequest, QueryResult, ShardTask

__all__ = ["build_from_token", "execute", "serve"]

#: Per-worker-process resident samplers, keyed by token id (:func:`serve`).
_RESIDENT: Dict[Any, Any] = {}


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
    raise ValueError(f"unknown build token kind {kind!r}")


def _picklable_error(exc: Exception) -> Exception:
    """The exception itself if it round-trips through pickle, else a stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def execute(
    key: Any,
    token: Tuple[Any, ...],
    kind: str,
    items: List[Any],
    harvest: bool = False,
) -> Tuple[int, List[Any], Optional[dict]]:
    """Run one message's ``items`` on the sampler resident under ``key``
    (built from ``token``): ``(request, seed)`` jobs for ``kind``
    ``"chunk"`` (:func:`_run_request`), shard sub-draws for ``"shard"``
    (:func:`_run_draw`). Every failure, a failed build included, is
    captured per item, so one bad item cannot poison its batchmates.

    Returns ``(rebuilds, outcomes, delta)``: ``rebuilds`` is 1 when this
    message had to (re)build the sampler — the parent feeds it into the
    ``engine.worker_rebuilds`` counter — and ``delta`` is the harvest
    payload of everything this message recorded in the worker registry
    (``None`` unless ``harvest``). Outcomes keep the items' order.
    """
    base: Optional[dict] = None
    if harvest:
        from repro.obs import harvest as harvest_mod

        # The parent may have enabled metrics after this worker forked
        # (or was spawned without REPRO_METRICS): the per-message flag
        # is authoritative. Enabling is sticky — residency makes this
        # worker serve many messages, and re-disabling between them
        # would only race the next flag.
        obs.enable()
        base = harvest_mod.baseline()
    built = key in _RESIDENT
    run_item = _run_draw if kind == "shard" else _run_request
    outcomes = [run_item(key, token, item, harvest) for item in items]
    rebuilds = int(not built and key in _RESIDENT)
    if harvest:
        return rebuilds, outcomes, harvest_mod.delta_since(base)
    return rebuilds, outcomes, None


def _resident(key: Any, token: Tuple[Any, ...]) -> Any:
    """The sampler resident under ``key``, built from ``token`` on first use."""
    sampler = _RESIDENT.get(key)
    if sampler is None:
        with obs.span("worker.build", kind=str(token[0])):
            sampler = build_from_token(token)
        _RESIDENT[key] = sampler
    return sampler


def _run_request(
    key: Any,
    token: Tuple[Any, ...],
    job: Tuple[QueryRequest, Optional[int]],
    harvest: bool,
) -> QueryResult:
    """One ``(request, seed)`` job; its failure is captured on the result."""
    request, seed = job
    trace_token = obs.set_current_trace(request.trace_id) if harvest else None
    try:
        sampler = _resident(key, token)
        with obs.span("worker.execute", op=request.op):
            result = sampler.execute(request, rng=seed)
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
            error=type(result.error).__name__ if result.error is not None else None,
        )
    return result


def _run_draw(
    key: Any, token: Tuple[Any, ...], entry: Tuple[Any, ...], harvest: bool
) -> Tuple[str, Any]:
    """One shard sub-draw on this worker's resident shard.

    ``entry`` is ``(shard, lo, hi, quota, seed, trace_id)`` — one
    :class:`~repro.engine.protocol.ShardTask` plus the owning request's
    trace for harvest tagging — and runs through
    :func:`repro.engine.shard.run_shard_task`, the draw every runner
    makes; a planful shard plans its sub-span there, in this worker's
    plan store. The entry must target the shard ``token`` rebuilds (the
    parent routes one shard per resident worker). The outcome is
    ``("ok", local_indices)``, in the draw's own container, or ``("err",
    exception)``. With ``harvest`` on, the sub-draw lands in the flight
    recorder tagged with its shard id (``spec`` suffix ``#s<j>``), so
    per-shard timelines fall out of the normal obs tail.
    """
    # Imported here, so a local × process worker starts without loading
    # the range structures.
    from repro.engine.shard import run_shard_task

    shard, lo, hi, quota, seed, trace_id = entry
    trace_token = obs.set_current_trace(trace_id) if harvest else None
    started = time.perf_counter()
    error: Optional[Exception] = None
    try:
        sampler = _resident(key, token)
        with obs.span("worker.shard_draw", s=quota, shard=shard):
            _, local = run_shard_task(sampler, ShardTask(shard, lo, hi, quota, seed))
        outcome: Tuple[str, Any] = ("ok", local)
    except Exception as exc:
        error = _picklable_error(exc)
        outcome = ("err", error)
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
    return outcome


def serve(conn: Any) -> None:
    """Main loop of one engine worker process.

    Messages arrive pickled on ``conn``, this worker's end of a duplex
    pipe:

    * ``("token", tid, key)`` — ``key`` is a pickled build token, sent
      once per (worker, token) and named ``tid`` from then on; no reply.
    * ``(kind, tid, items, harvest)`` — ``"chunk"`` (``(request, seed)``
      jobs) or ``"shard"`` (sub-draws), run through :func:`execute`;
      the envelope goes back on ``conn``.
    * ``None`` — stop.

    The loop also ends when every copy of the parent's end is closed.
    Samplers are resident under their token id, starting from an empty
    ``_RESIDENT`` (a forked worker's inherited entries are not its own).
    A token's bytes are kept only until its sampler is built, since a
    failed build is retried from them on the next message; afterwards
    only its head (kind and label, for harvest tags) is kept.
    """
    _RESIDENT.clear()
    pending: Dict[int, bytes] = {}
    heads: Dict[int, Tuple[Any, ...]] = {}
    while True:
        try:
            message = pickle.loads(conn.recv_bytes())
        except (EOFError, KeyboardInterrupt):
            return
        if message is None:
            return
        kind, tid, body = message[:3]
        if kind == "token":
            pending[tid] = body
            continue
        token = heads[tid] if tid in _RESIDENT else pickle.loads(pending[tid])
        conn.send(execute(tid, token, kind, body, message[3]))
        if tid in pending and tid in _RESIDENT:
            del pending[tid]
            heads[tid] = token[:2]


def _spec_label(token: Tuple[Any, ...]) -> str:
    """A short human label for the structure a build token describes."""
    kind = token[0]
    if kind in ("spec", "demo", "call") and len(token) > 1:
        return str(token[1])
    if kind == "shm" and len(token) > 1:
        return f"shm:{token[1].get('kind', '?')}"
    return str(kind)
