"""The placement layer: *where a request's draws live* (§4.1, lifted).

An engine composes two orthogonal decisions: **placement** (does a
request run against the whole structure, or split over contiguous
key-space shards?) and **execution** (do sub-tasks run inline, on
threads, or in worker processes?); :func:`normalize_backend` resolves
the pair. The ``local`` placement runs each request against the
structure as-is. The ``sharded`` placement is the paper's §4.1
decomposition: the key space is cut into ``K`` contiguous shards, each
request's budget ``s`` is split multinomially by in-span shard weight,
and every shard draws on its own stateless stream. The engine keeps one
:class:`~repro.engine.shard.ShardedSampler` view per sampler it runs,
and any execution backend can run the per-shard sub-draws — under
``process`` that is the shard-per-process backend.

The §4.1 primitives (:func:`split_budget`, :func:`shard_seed`,
:func:`plan_fan_out`, :func:`merge_indices`) live here as pure
functions, so the determinism contract — merged output is a pure
function of ``(structure, request seed, K)`` regardless of worker count
or scheduling — is enforced once, for every execution backend.
``merge_indices`` dispatches through the ``scalar → numpy`` kernel
ladder (:func:`repro.core.kernels.offset_concat_batch`).
"""

from __future__ import annotations

import time
from difflib import get_close_matches
from typing import Any, List, Optional, Sequence, Tuple

from repro import obs
from repro.engine.protocol import PlacementPlan, ShardTask
from repro.substrates.rng import derive_seed, ensure_rng, release_stream

__all__ = [
    "BACKENDS",
    "DEFAULT_SHARDS",
    "PLACEMENTS",
    "merge_indices",
    "normalize_backend",
    "plan_fan_out",
    "shard_seed",
    "split_budget",
]

#: Supported placements (the first axis of the backend matrix).
PLACEMENTS = ("local", "sharded")

#: Execution backends, each valid under every placement (the second axis).
BACKENDS = ("serial", "thread", "process")

#: Default shard count for the sharded placement when none is given.
DEFAULT_SHARDS = 4

_PLACEMENT_SHARDS = obs.counter(
    "engine.placement_shards",
    "Shard sub-tasks dispatched by the sharded placement layer",
)
_MERGE_US = obs.histogram(
    "engine.shard_merge_us",
    "Microseconds spent merging per-shard results into one batch",
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


# ----------------------------------------------------------------------
# the §4.1 primitives, as pure functions of the request's stateless base
# ----------------------------------------------------------------------


def split_budget(weights: Sequence[float], s: int, base: int) -> List[int]:
    """Multinomially split ``s`` draws over parts weighted by ``weights``.

    Runs on ``derive_seed(base, 0)`` — the split consumes its own
    dedicated stream so shard draws (``derive_seed(base, 1 + j)``) are
    untouched by how many parts the split saw.
    """
    from repro.core.schemes import multinomial_split

    rng = ensure_rng(derive_seed(base, 0))
    try:
        return multinomial_split(list(weights), s, rng=rng)
    finally:
        release_stream(rng)


def shard_seed(base: int, shard: int) -> int:
    """Shard ``shard``'s stateless draw seed for a request with ``base``."""
    return derive_seed(base, 1 + shard)


def plan_fan_out(
    active: Sequence[Tuple[int, int, int, float]],
    s: int,
    base: int,
    sub_plans: Optional[Sequence[Any]] = None,
) -> PlacementPlan:
    """The §4.1 plan for one request over its active-shard table.

    ``active`` rows are ``(shard, local_lo, local_hi, weight)``. A single
    active shard takes the whole budget without consuming the split
    stream (matching the pre-refactor fast path bit-for-bit); otherwise
    the budget splits multinomially by weight and zero-quota shards are
    dropped. Every task carries its derived shard seed, so the plan is
    executable by any backend without further randomness decisions.

    ``sub_plans`` optionally aligns one shard-local
    :class:`~repro.core.planner.QueryPlan` (or ``None``) with each
    ``active`` row — the parent's plan-once-ship-everywhere payload.
    ``plan.plans`` holds one entry per task (``None`` for a shard with
    no plan): entries for dropped zero-quota shards go with their tasks.
    """
    subs = sub_plans if sub_plans is not None else (None,) * len(active)
    if len(active) == 1:
        j, lo, hi, _ = active[0]
        tasks: Tuple[ShardTask, ...] = (
            ShardTask(j, lo, hi, s, shard_seed(base, j)),
        )
        plans: Tuple[Any, ...] = (subs[0],)
    else:
        counts = split_budget([row[3] for row in active], s, base)
        kept = [
            (index, ShardTask(j, lo, hi, quota, shard_seed(base, j)))
            for index, ((j, lo, hi, _), quota) in enumerate(zip(active, counts))
            if quota > 0
        ]
        tasks = tuple(task for _, task in kept)
        plans = tuple(subs[index] for index, _ in kept)
    if obs.ENABLED:
        _PLACEMENT_SHARDS.add(len(tasks))
    return PlacementPlan(base=base, tasks=tasks, plans=plans)


def merge_indices(
    partials: Sequence[Tuple[int, Sequence[int]]], bounds: Sequence[int]
) -> Any:
    """Offset shard-local indices to global ones, in shard order.

    The order-preserving merge of §4.1: partials are sorted by shard id
    (deterministic regardless of which worker finished first) and each
    shard's local indices are shifted by its global base offset.
    Dispatches through the kernel ladder — the scalar extend loop below
    the batch cutoff returns a list;
    :func:`repro.core.kernels.offset_concat_batch` above it returns an
    ``intp`` array.
    Partials may be lists or ``intp`` arrays; an array part is always at
    least the batch cutoff long, so the scalar loop only sees lists.
    """
    from repro.core import kernels

    enabled = obs.ENABLED
    started = time.perf_counter() if enabled else 0.0
    ordered = sorted(partials, key=lambda pair: pair[0])
    total = sum(len(local) for _, local in ordered)
    if kernels.use_batch(total):
        merged = kernels.offset_concat_batch(
            [local for _, local in ordered],
            [bounds[j] for j, _ in ordered],
        )
    else:
        merged = []
        for j, local in ordered:
            offset = bounds[j]
            merged.extend(offset + index for index in local)
    if enabled:
        _MERGE_US.observe((time.perf_counter() - started) * 1e6)
    return merged
