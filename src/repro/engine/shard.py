"""Key-space sharding for range samplers: the §4.1 split, scaled out.

A range query over a sorted weighted point set decomposes by key-space
shard exactly the way the paper decomposes it over a canonical cover
(§4.1): the interval ``[x, y]`` meets each contiguous shard in a
(possibly empty) sub-span, one weighted draw lands in shard ``j`` with
probability ``W_j / W`` (``W_j`` = weight of shard ``j``'s sub-span,
``W`` = total), and conditioned on landing there it follows the shard's
own restricted distribution. Splitting the budget ``s`` multinomially
across shards and drawing each quota independently therefore reproduces
the unsharded output distribution *exactly* — the same
distribution-preserving composition argument the GUS sampling algebra
makes for partitioned samples, applied one level up. The merged result
is exchangeable with the serial stream (identical multiset
distribution), not byte-identical to it: the per-draw randomness is
spent in a different order.

:class:`ShardedSampler` is itself a
:class:`~repro.core.range_sampler.RangeSamplerBase`, so it inherits
``sample`` / ``sample_indices`` / ``sample_without_replacement`` and the
engine protocol for free, and ``sample_span``'s span checks; only the
draw behind them (``_draw_span``) is reimplemented as *plan, fan out,
merge*. The sharded plan is only the active-shard table: each shard
plans its own sub-span, through its own plan store, in the process
that draws from it. A shard's cover is a pure function of the shard and
its sub-span and consumes no randomness, so where it is computed cannot
change the output. The same holds one level down for the shards
themselves: a build consumes no randomness either, so a view is a
planning skeleton — the sampler's own keys and weights, the prefix sums
and one recipe per shard — and each shard is built from its recipe
where it is first read, in every execution cell. A sharded × process
engine's parent builds none: each worker builds the shard it draws
from. The §4.1 arithmetic — the multinomial split on
``derive_seed(base, 0)``, the per-shard streams ``derive_seed(base, 1 +
j)``, and the order-preserving merge — lives beside the view as pure
functions (:func:`split_budget`, :func:`shard_seed`,
:func:`plan_fan_out`, :func:`merge_indices`) of one stateless 64-bit
base drawn from the request's stream, so the determinism contract is
enforced once, for every execution backend; the view only *executes*
the resulting :class:`~repro.engine.protocol.ShardTask` tuple. Who
executes it is pluggable: by default the shard sub-draws run inline,
and an engine can :meth:`~ShardedSampler.bind_runner` any execution
backend from :mod:`repro.engine.execution` — inline, the engine's
threads, or its worker processes — and the merged output stays a pure
function of ``(structure, request seed, K)`` because every task already
carries its derived seed.

This module is imported lazily (by the executor's sharded placement or
by user code), never from ``repro.engine``'s ``__init__`` — importing
:mod:`repro.engine` stays cheap and cycle-free.
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict, List, Sequence, Tuple

from repro import obs
from repro.core import kernels
from repro.core.planner import QueryPlan, plan_scope
from repro.core.range_sampler import RangeSamplerBase
from repro.core.schemes import multinomial_split
from repro.engine.execution import SerialShardRunner
from repro.engine.protocol import ShardTask
from repro.errors import EmptyQueryError
from repro.substrates.rng import RNGLike, derive_seed, ensure_rng, release_stream, spawn_rng

__all__ = [
    "ShardedSampler",
    "merge_indices",
    "plan_fan_out",
    "run_shard_task",
    "shard_bounds",
    "shard_seed",
    "split_budget",
]

_SHARDS = obs.counter(
    "engine.shards",
    "Shard sub-queries fanned out by sharded range execution",
)
_PLAN_BUILDS = obs.counter(
    "engine.plan_builds",
    "Sharded fan-out plans built (one active-shard table per build)",
)
_PLAN_REUSE = obs.counter(
    "engine.plan_reuse",
    "Sharded fan-out plans served from the plan store (no table work)",
)
_PLACEMENT_SHARDS = obs.counter(
    "engine.placement_shards",
    "Shard sub-tasks dispatched by the sharded placement layer",
)
_MERGE_US = obs.histogram(
    "engine.shard_merge_us",
    "Microseconds spent merging per-shard results into one batch",
)


# -- the §4.1 primitives, pure functions of the request's stateless base --


def split_budget(weights: Sequence[float], s: int, base: int) -> List[int]:
    """Multinomially split ``s`` draws over parts weighted by ``weights``.

    Runs on ``derive_seed(base, 0)`` — the split consumes its own
    dedicated stream so shard draws (``derive_seed(base, 1 + j)``) are
    untouched by how many parts the split saw.
    """
    rng = ensure_rng(derive_seed(base, 0))
    try:
        return multinomial_split(list(weights), s, rng=rng)
    finally:
        release_stream(rng)


def shard_seed(base: int, shard: int) -> int:
    """Shard ``shard``'s stateless draw seed for a request with ``base``."""
    return derive_seed(base, 1 + shard)


def plan_fan_out(
    active: Sequence[Tuple[int, int, int, float]], s: int, base: int
) -> Tuple[ShardTask, ...]:
    """The §4.1 shard tasks of one request over its active-shard table.

    ``active`` rows are ``(shard, local_lo, local_hi, weight)``. A single
    active shard takes the whole budget without consuming the split
    stream (matching the pre-refactor fast path bit-for-bit); otherwise
    the budget splits multinomially by weight and zero-quota shards are
    dropped. Every task carries its derived shard seed, so the tasks —
    and therefore the merged output — are a pure function of
    ``(structure, request seed, K)``, whichever backend runs them and in
    whatever order they finish.
    """
    if len(active) == 1:
        j, lo, hi, _ = active[0]
        tasks: Tuple[ShardTask, ...] = (ShardTask(j, lo, hi, s, shard_seed(base, j)),)
    else:
        counts = split_budget([row[3] for row in active], s, base)
        tasks = tuple(
            ShardTask(j, lo, hi, quota, shard_seed(base, j))
            for (j, lo, hi, _), quota in zip(active, counts)
            if quota > 0
        )
    if obs.ENABLED:
        _PLACEMENT_SHARDS.add(len(tasks))
    return tasks


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


def run_shard_task(shard: Any, task: ShardTask) -> Tuple[int, Sequence[int]]:
    """Execute one :class:`~repro.engine.protocol.ShardTask` on ``shard``
    (the structure of shard ``task.shard``).

    The single point where a shard task turns into draws: the shard
    samples its local span on the task's own stateless stream through
    its unchecked ``_draw_span`` (the parent's active-shard table keeps
    the span inside the shard). A planful shard fetches or builds its
    plan there, in its own store, in the process running this call.
    Every execution backend — inline, thread pool, resident worker
    process — funnels through this function, which is what makes the
    backends byte-identical. The indices come in the draw's own
    container.
    """
    rng = ensure_rng(task.seed)
    try:
        return task.shard, shard._draw_span(task.lo, task.hi, task.quota, rng)
    finally:
        release_stream(rng)


def shard_bounds(n: int, num_shards: int) -> List[int]:
    """Global sorted-index boundaries of ``num_shards`` contiguous shards.

    Returns ``num_shards + 1`` cut points; shard ``j`` owns the half-open
    index range ``[bounds[j], bounds[j + 1])``. Every shard is non-empty
    when ``num_shards <= n`` (callers clamp).
    """
    return [(j * n) // num_shards for j in range(num_shards + 1)]


class _Shards:
    """A sharded view's shards, each built from its recipe when first read.

    Shard ``j``'s recipe is the shard class over the view's key and
    weight slice ``[bounds[j], bounds[j + 1])``, plus the stream the view
    spawned for it. Building consumes no randomness, so where and when a
    shard is built cannot change a draw: ``shards[j]`` builds shard ``j``
    in the process that reads it, and :meth:`token` hands the recipe to a
    worker process that builds its own copy. The object refers to the
    view's lists, never to the view, so a runner may hold it.

    Builds take no lock. Under the sharded placement an engine runs a
    batch's requests in submission order, and one request's tasks name
    distinct shards, so within one ``engine.run`` call no two threads
    build the same shard. Two concurrent runs, or a caller's own view
    shared by two engines, can at worst build a shard twice, into equal
    structures, and the last assignment wins.
    """

    __slots__ = ("cls", "bounds", "_keys", "_weights", "_rngs", "_built")

    def __init__(
        self,
        cls: type,
        keys: Sequence[float],
        weights: Sequence[float],
        bounds: List[int],
        rngs: Sequence[Any],
    ):
        self.cls = cls
        self.bounds = bounds
        self._keys = keys
        self._weights = weights
        self._rngs = rngs
        self._built: List[Any] = [None] * (len(bounds) - 1)

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(self, j: int) -> Any:
        shard = self._built[j]
        if shard is None:
            j %= len(self._built)
            a, b = self.bounds[j], self.bounds[j + 1]
            shard = self._built[j] = self.cls(
                self._keys[a:b], weights=self._weights[a:b], rng=self._rngs[j]
            )
        return shard

    def __iter__(self) -> Any:
        return (self[j] for j in range(len(self._built)))

    def token(self, j: int) -> Tuple[Any, ...]:
        """Shard ``j``'s recipe as a worker build token: ``("call",
        "module:Class", params)`` with its keys, its weights and
        ``rng=0``. Every shard draw brings its own stream, so the fixed
        ``rng`` keeps the worker's build byte-identical to this
        process's."""
        a, b = self.bounds[j], self.bounds[j + 1]
        params = (
            ("keys", tuple(self._keys[a:b])),
            ("rng", 0),
            ("weights", tuple(self._weights[a:b])),
        )
        return ("call", f"{self.cls.__module__}:{self.cls.__qualname__}", params)


class ShardedSampler(RangeSamplerBase):
    """K contiguous key-space shards of ``sampler`` behind one
    range-sampler facade.

    The view is a planning skeleton: ``sampler``'s own key and weight
    lists (for ``span_of`` and the inherited WoR paths; its constructor
    validated them), a prefix-sum array so each shard's weight inside a
    query span costs two array reads, and one recipe per shard: a fresh
    instance of the *same* structure class over the shard's contiguous
    key slice, so the per-shard query cost keeps the structure's own
    bounds on ``n/K`` keys. ``shards[j]`` builds shard ``j`` on first
    read (an in-process draw, :meth:`space_words`, :meth:`explain_plan`);
    a worker process builds its own copy. ``num_shards`` is clamped to
    the key count (every shard stays non-empty). The shard streams are
    spawned from ``rng`` in shard order, so the view's own stream is the
    same whether or not any shard is built.
    """

    plan_kind = "sharded"

    def __init__(self, sampler: Any, num_shards: int, rng: RNGLike = None):
        if not self.supports(sampler):
            raise TypeError(
                f"{type(sampler).__name__} does not support key-space "
                f"sharding; the sharded placement needs a sorted-key range "
                f"structure (e.g. range.chunked, range.treewalk)"
            )
        if isinstance(sampler, ShardedSampler):
            raise TypeError(
                "the sampler is already a ShardedSampler; shard the "
                "structure it views instead"
            )
        if not isinstance(num_shards, int) or isinstance(num_shards, bool):
            raise TypeError(f"num_shards must be an int, got {num_shards!r}")
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.keys, self.weights = sampler.keys, sampler.weights
        self._all_weights_equal = sampler._all_weights_equal
        n = len(self.keys)
        count = min(num_shards, n)
        self._rng = ensure_rng(rng)
        rngs = [spawn_rng(self._rng, salt=j) for j in range(count)]
        self.shards = _Shards(
            type(sampler), self.keys, self.weights, shard_bounds(n, count), rngs
        )
        self._bounds: List[int] = self.shards.bounds
        if kernels.use_batch_build(n):
            np = kernels.np
            prefix_arr = np.empty(n + 1, dtype=np.float64)
            prefix_arr[0] = 0.0
            np.cumsum(np.asarray(self.weights, dtype=np.float64), out=prefix_arr[1:])
            prefix = prefix_arr.tolist()
        else:
            prefix = [0.0]
            acc = 0.0
            for weight in self.weights:
                acc += weight
                prefix.append(acc)
        self._prefix: List[float] = prefix
        self._runner: Any = SerialShardRunner()
        self.plan_cache = plan_scope(self.plan_kind)

    @staticmethod
    def supports(sampler: Any) -> bool:
        """Whether ``sampler`` can be sharded (sorted-key range structure)."""
        return isinstance(sampler, RangeSamplerBase)

    # -- introspection -----------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_sizes(self) -> List[int]:
        bounds = self._bounds
        return [bounds[j + 1] - bounds[j] for j in range(self.num_shards)]

    def describe(self) -> Dict[str, Any]:
        info = super().describe()
        info["shards"] = self.num_shards
        info["shard_type"] = self.shards.cls.__name__
        return info

    def space_words(self) -> int:
        # Wrapper arrays (keys + weights + prefix) on top of the shards,
        # each built here if it was not yet.
        return 3 * len(self.keys) + sum(
            shard.space_words() for shard in self.shards
        )

    def bind_runner(self, runner: Any) -> None:
        """Run plan tasks through ``runner``, an execution backend from
        :mod:`repro.engine.execution` (by default they run inline)."""
        self._runner = runner

    # -- the sharded hot path ----------------------------------------------

    def _span_weight(self, lo: int, hi: int) -> float:
        weight = self._prefix[hi] - self._prefix[lo]
        if weight <= 0.0 and hi > lo:
            # Catastrophic float cancellation in the prefix sums —
            # recompute the rare offender exactly.
            weight = math.fsum(self.weights[lo:hi])
        return weight

    def _active_shards(self, lo: int, hi: int) -> List[Tuple[int, int, int, float]]:
        """``(shard, local_lo, local_hi, weight)`` for intersecting shards."""
        active = []
        bounds = self._bounds
        for j in range(len(bounds) - 1):
            a = max(lo, bounds[j])
            b = min(hi, bounds[j + 1])
            if a >= b:
                continue
            weight = self._span_weight(a, b)
            if weight <= 0.0:
                continue
            active.append((j, a - bounds[j], b - bounds[j], weight))
        return active

    def sample_span(self, lo: int, hi: int, s: int, rng: RNGLike = None) -> List[int]:
        """Split ``s`` multinomially over shards, fan out, merge.

        The span is checked like every range sampler's
        (:meth:`RangeSamplerBase.sample_span`), before any plan is built.
        The merge concatenates shard results in shard order — a
        deterministic order regardless of which worker finishes first.
        The multiset of returned indices follows exactly the unsharded
        weighted distribution over ``[lo, hi)``. With metrics enabled the
        whole fan-out is bracketed by an ``engine.shard_fanout`` span
        that carries the executing request's trace ID (the engine sets
        the current-trace context before dispatching to this sampler),
        so a per-request timeline shows how many shards a query touched
        and how long the split-draw-merge took. (Defined here so the
        layered benchmark's tracer can wrap this class's entry point.)
        """
        return super().sample_span(lo, hi, s, rng=rng)

    def _draw_span(self, lo: int, hi: int, s: int, rng: RNGLike):
        """:meth:`sample_span`'s fan-out without the checks or the list
        conversion: a merge above the batch cutoff stays an ``intp``
        array, so ``sample`` gathers the keys in one numpy step."""
        if not obs.ENABLED:
            return self._fan_out(lo, hi, s, rng)
        with obs.span("engine.shard_fanout", s=s) as fanout_span:
            return self._fan_out(lo, hi, s, rng, fanout_span)

    def _build_plan(self, lo: int, hi: int) -> QueryPlan:
        """The sharded plan: the active-shard table, as the payload.

        Rows are ``(shard, local_lo, local_hi, weight)``. No shard is
        planned here: each shard task plans its sub-span where it is
        drawn (:func:`run_shard_task`).
        """
        active = self._active_shards(lo, hi)
        return QueryPlan(
            self.plan_kind,
            (lo, hi),
            spans=tuple((a, b) for _, a, b, _ in active),
            weights=tuple(weight for _, _, _, weight in active),
            payload=active,
        )

    def explain_plan(self, plan: QueryPlan, s: int) -> Dict[str, Any]:
        """The sharded keys of ``SamplingEngine.explain`` for ``plan``.

        ``"budget_split"`` gives each active shard's span, weight and
        deterministic expected quota ``s · w_j / W``; ``"sub_plans"`` each
        active shard's own plan (``None`` for a shard with no plan
        layer), planned on demand through the shard's store, which builds
        the shard if it was not built yet. Neither consumes randomness.
        """
        active = plan.payload
        total = sum(weight for _, _, _, weight in active)
        planful = self.shards.cls.plan_kind is not None
        return {
            "budget_split": [
                {
                    "shard": j,
                    "span": (a, b),
                    "weight": weight,
                    "expected_quota": s * weight / total if total > 0 else 0.0,
                }
                for j, a, b, weight in active
            ],
            "sub_plans": [
                self.shards[j].plan_span(a, b).describe() if planful else None
                for j, a, b, _ in active
            ],
        }

    def _fan_out(
        self, lo: int, hi: int, s: int, rng: RNGLike = None, span: Any = None
    ):
        generator = ensure_rng(rng) if rng is not None else self._rng
        # One stateless base per request: the split and every shard
        # stream derive from it, so concurrency cannot reorder
        # randomness consumption. Drawn *before* planning (which
        # consumes no randomness) to match the pre-plan-layer stream
        # order bit-for-bit.
        base = generator.getrandbits(64)
        enabled = obs.ENABLED
        plan = self.plan_cache.get((lo, hi))
        if plan is None:
            if enabled:
                with obs.span("plan.build", kind=self.plan_kind, span=hi - lo):
                    plan = self._build_plan(lo, hi)
            else:
                plan = self._build_plan(lo, hi)
            self.plan_cache.put((lo, hi), plan)
            if enabled:
                _PLAN_BUILDS.inc()
        elif enabled:
            _PLAN_REUSE.inc()
        active = plan.payload
        if enabled:
            _SHARDS.add(len(active))
            if span is not None:
                span.set(shards=len(active))
        if not active:
            raise EmptyQueryError(
                f"no keys in index span [{lo}, {hi}) across "
                f"{self.num_shards} shards"
            )
        tasks = plan_fan_out(active, s, base)
        partials = self._runner.run_plan(self, tasks)
        return merge_indices(partials, self._bounds)
