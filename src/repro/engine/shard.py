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
themselves: a build consumes no randomness either, so a view made by
:meth:`ShardedSampler.from_sampler` is a planning skeleton — the
sampler's own keys and weights, the prefix sums and one recipe per shard
— and each shard is built from its recipe where it is first read. A
sharded × process engine's parent builds none: each worker builds the
shard it draws from. The §4.1 arithmetic — the multinomial split on
``derive_seed(base, 0)``, the per-shard streams ``derive_seed(base, 1 +
j)``, and the order-preserving merge — lives in
:mod:`repro.engine.placement` as pure functions of one stateless 64-bit
base drawn from the request's stream; this class only *executes* the
resulting :class:`~repro.engine.protocol.ShardTask` tuple. Who executes
it is pluggable: by default the shard sub-draws run inline, and an
engine can :meth:`bind_runner` any execution backend from
:mod:`repro.engine.execution` — inline, the engine's threads, or its
worker processes — and the merged output stays a pure function of
``(structure, request seed, K)`` because every task already carries its
derived seed.

This module is imported lazily (by the executor's sharded placement or
by user code), never from ``repro.engine``'s ``__init__`` — importing
:mod:`repro.engine` stays cheap and cycle-free.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core import kernels
from repro.core.planner import QueryPlan, plan_scope
from repro.core.range_sampler import RangeSamplerBase
from repro.engine.execution import SerialShardRunner
from repro.engine.placement import merge_indices, plan_fan_out
from repro.engine.protocol import ShardTask
from repro.errors import EmptyQueryError
from repro.substrates.rng import RNGLike, ensure_rng, release_stream, spawn_rng

__all__ = ["ShardedSampler", "run_shard_task", "shard_bounds"]

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
    """

    __slots__ = ("cls", "bounds", "_keys", "_weights", "_rngs", "_built")

    def __init__(
        self,
        cls: type,
        keys: Sequence[float],
        weights: Sequence[float],
        bounds: List[int],
        rngs: Sequence[Any],
        built: Optional[Sequence[Any]] = None,
    ):
        self.cls = cls
        self.bounds = bounds
        self._keys = keys
        self._weights = weights
        self._rngs = rngs
        self._built: List[Any] = (
            list(built) if built is not None else [None] * (len(bounds) - 1)
        )

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
        built = self._built[j]
        cls = self.cls if built is None else type(built)
        a, b = self.bounds[j], self.bounds[j + 1]
        params = (
            ("keys", tuple(self._keys[a:b])),
            ("rng", 0),
            ("weights", tuple(self._weights[a:b])),
        )
        return ("call", f"{cls.__module__}:{cls.__qualname__}", params)


class ShardedSampler(RangeSamplerBase):
    """K contiguous key-space shards behind one range-sampler facade.

    Construct through :meth:`from_sampler` (a planning skeleton over an
    existing structure) or :meth:`from_params` (build shards directly
    from ``keys`` and ``weights``). The wrapper keeps the full sorted key
    and weight arrays (for ``span_of`` and the inherited WoR paths) plus
    a prefix-sum array so each shard's weight inside a query span costs
    two array reads. ``shards[j]`` is shard ``j``'s structure, built on
    first read when the view was made by :meth:`from_sampler`.
    """

    plan_kind = "sharded"

    def __init__(
        self,
        shards: Sequence[Any],
        keys: Sequence[float],
        weights: Optional[Sequence[float]] = None,
        rng: RNGLike = None,
        plan_cache_size: Optional[int] = None,
    ):
        super().__init__(keys, weights)
        if not shards:
            raise ValueError("ShardedSampler needs at least one shard")
        sizes = [len(shard) for shard in shards]
        if sum(sizes) != len(self.keys):
            raise ValueError(
                f"shard sizes {sizes} do not partition {len(self.keys)} keys"
            )
        bounds = [0]
        for size in sizes:
            bounds.append(bounds[-1] + size)
        self._assemble(
            _Shards(
                type(shards[0]), self.keys, self.weights, bounds,
                [None] * len(sizes), built=shards,
            ),
            ensure_rng(rng),
            plan_cache_size,
        )

    def _assemble(
        self, shards: _Shards, rng: Any, plan_cache_size: Optional[int] = None
    ) -> None:
        """Everything a view keeps beside its keys and weights."""
        self.shards = shards
        self._bounds: List[int] = shards.bounds
        if kernels.use_batch_build(len(self.weights)):
            np = kernels.np
            prefix_arr = np.empty(len(self.weights) + 1, dtype=np.float64)
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
        self._rng = rng
        self._runner: Any = SerialShardRunner()
        self.plan_cache = plan_scope(self.plan_kind, plan_cache_size)

    # -- construction ------------------------------------------------------

    @staticmethod
    def supports(sampler: Any) -> bool:
        """Whether ``sampler`` can be sharded (sorted-key range structure)."""
        return isinstance(sampler, RangeSamplerBase)

    @classmethod
    def from_sampler(
        cls,
        sampler: Any,
        num_shards: int,
        rng: RNGLike = None,
    ) -> "ShardedSampler":
        """A planning skeleton that partitions ``sampler``'s key space
        into ``num_shards`` shards.

        Each shard is a fresh instance of the *same* structure class over
        its contiguous key slice, so the per-shard query cost keeps the
        structure's own bounds on ``n/K`` keys; it is built when
        ``shards[j]`` is first read (a draw on an in-process runner,
        :meth:`space_words`, ``explain``) or :meth:`build_shards` runs,
        and never when a worker process draws it. The view shares
        ``sampler``'s keys and weights, which its constructor validated,
        and spawns the shard streams from ``rng`` as :meth:`from_params`
        does, so its own stream is the same whether or not any shard is
        built. ``num_shards`` is clamped to the key count (every shard
        stays non-empty).
        """
        if isinstance(sampler, cls):
            return sampler
        if not cls.supports(sampler):
            raise TypeError(
                f"{type(sampler).__name__} does not support key-space "
                f"sharding; the sharded placement needs a sorted-key range "
                f"structure (e.g. range.chunked, range.treewalk)"
            )
        if not isinstance(num_shards, int) or isinstance(num_shards, bool):
            raise TypeError(f"num_shards must be an int, got {num_shards!r}")
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        view = cls.__new__(cls)
        view.keys, view.weights = sampler.keys, sampler.weights
        view._all_weights_equal = sampler._all_weights_equal
        view._plan_shards(type(sampler), num_shards, rng)
        return view

    @classmethod
    def from_params(
        cls,
        shard_cls: type,
        keys: Sequence[float],
        weights: Optional[Sequence[float]],
        num_shards: int,
        rng: RNGLike = None,
    ) -> "ShardedSampler":
        """Build ``num_shards`` instances of ``shard_cls`` over key slices
        (``keys`` and ``weights`` are validated as any range sampler's)."""
        view = cls.__new__(cls)
        RangeSamplerBase.__init__(view, keys, weights)
        view._plan_shards(shard_cls, num_shards, rng)
        view.build_shards()
        return view

    def _plan_shards(self, shard_cls: type, num_shards: int, rng: RNGLike) -> None:
        """One recipe of ``shard_cls`` per shard of this view's keys
        (``num_shards`` clamped to the key count), each with its stream
        spawned from ``rng`` in shard order; builds nothing."""
        n = len(self.keys)
        count = max(1, min(num_shards, n))
        base_rng = ensure_rng(rng)
        rngs = [spawn_rng(base_rng, salt=j) for j in range(count)]
        self._assemble(
            _Shards(shard_cls, self.keys, self.weights, shard_bounds(n, count), rngs),
            base_rng,
        )

    def build_shards(self) -> None:
        """Build every shard not built yet, in this process."""
        for _ in self.shards:  # reading a shard builds it
            pass

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
