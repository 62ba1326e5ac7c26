"""Weighted range sampling structures (paper §3.2 and §4).

Problem (§3.2): ``S`` holds ``n`` weighted reals; a query ``([x, y], s)``
returns ``s`` independent weighted samples from ``S_q = S ∩ [x, y]``, with
all queries' outputs mutually independent.

Three structures, in increasing sophistication:

===========================  ==============  ======================
structure                    space           query time
===========================  ==============  ======================
:class:`TreeWalkRangeSampler`        O(n)            O((1 + s) log n)   (§3.2)
:class:`AliasAugmentedRangeSampler`  O(n log n)      O(log n + s)       (Lemma 2)
:class:`ChunkedRangeSampler`         O(n)            O(log n + s)       (Theorem 3)
===========================  ==============  ======================

All three share the same query API; every query's output is independent of
all previous outputs because each draw consumes fresh randomness.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from typing import Any, ClassVar, List, Optional, Sequence, Tuple

from repro import obs
from repro.core import kernels
from repro.core.alias import alias_draw, build_alias_tables
from repro.core.planner import QueryPlan, plan_scope
from repro.core.schemes import (
    PreparedSplit,
    sample_without_replacement,
    uniform_indices_without_replacement,
)
from repro.engine.protocol import RangeQueryMixin
from repro.errors import BuildError, EmptyQueryError
from repro.substrates.bst import NO_CHILD, StaticBST
from repro.substrates.fenwick import FenwickTree
from repro.substrates.rng import RNGLike, ensure_rng
from repro.validation import validate_sample_size, validate_weights

# ----------------------------------------------------------------------
# repro.obs cost accounting: the quantities the §3.2/§4 theorems bound.
# All increments are guarded by ``obs.ENABLED`` at call (or per-cover-
# part) granularity so the disabled path stays uninstrumented-fast.
# ----------------------------------------------------------------------
_TW_QUERIES = obs.counter("range.treewalk.queries", "TreeWalk (§3.2) queries")
_TW_DRAWS = obs.counter("range.treewalk.draws", "TreeWalk samples drawn")
_TW_VISITS = obs.counter(
    "range.treewalk.node_visits",
    "BST nodes touched by TreeWalk descents (O(s log n) per query, §3.2)",
)
_L2_QUERIES = obs.counter("range.lemma2.queries", "Alias-augmented (Lemma 2) queries")
_L2_DRAWS = obs.counter("range.lemma2.draws", "Lemma-2 samples drawn")
_L2_PROBES = obs.counter(
    "range.lemma2.urn_probes",
    "Per-node alias-urn probes (<= s per query: O(log n + s), Lemma 2)",
)
_CH_QUERIES = obs.counter("range.chunked.queries", "Chunked (Theorem 3) queries")
_CH_DRAWS = obs.counter("range.chunked.draws", "Theorem-3 samples drawn")
_CH_TOUCHES = obs.counter(
    "range.chunked.chunk_touches",
    "Distinct chunks touched per Theorem-3 query (partial + aligned)",
)

_UNSET = object()  # "not computed yet" marker for lazily cached attributes

#: Key types whose numpy view gives back the same values and types.
_KEY_VIEW_DTYPES = {float: "float64", int: "int64"}


class RangeSamplerBase(RangeQueryMixin):
    """Shared plumbing for samplers over a sorted weighted point set.

    Implements the engine protocol (:mod:`repro.engine`): requests with
    op ``"sample"`` / ``"sample_indices"`` / ``"sample_wor"`` and
    ``args=(x, y)`` dispatch to the methods below, and every query method
    accepts a keyword-only ``rng`` override so a batch executor can run
    each request on its own independent stream: a ``random.Random``, or
    an int seed that becomes the call's own generator (``None`` keeps
    the instance stream — the byte-identical legacy behaviour).

    Every subclass, the sharded view included, inherits the WoR op: it
    hands batches of its own :meth:`sample_span` draws to the one WoR
    routine, :func:`repro.core.schemes.sample_without_replacement`.

    Planful subclasses (``plan_kind`` set) additionally implement the
    plan → execute split: :meth:`plan_span` returns a deterministic
    :class:`~repro.core.planner.QueryPlan` (cached through the shared
    plan store; consumes **no** randomness), :meth:`execute_plan` (the
    subclass's one draw) spends the randomness, and :meth:`_draw_span`
    composes the two. Lists are made only by the public methods.
    """

    #: Plan-kind tag for planful subclasses; ``None`` marks a sampler
    #: whose queries have no reusable plan (naive scans, etc.).
    plan_kind: ClassVar[Optional[str]] = None

    def __init__(self, keys: Sequence[float], weights: Optional[Sequence[float]] = None):
        if len(keys) == 0:
            raise BuildError("range sampler requires at least one key")
        increasing = None
        if kernels.use_batch_build(len(keys)):
            np = kernels.np
            try:
                key_arr = np.asarray(keys, dtype=np.float64)
            except (TypeError, ValueError):
                key_arr = None
            if key_arr is not None and key_arr.ndim == 1 and key_arr.size == len(keys):
                increasing = bool((key_arr[1:] > key_arr[:-1]).all())
        if increasing is None:
            increasing = all(keys[i - 1] < keys[i] for i in range(1, len(keys)))
        if not increasing:
            raise BuildError("range sampler keys must be strictly increasing")
        if weights is None:
            weights = [1.0] * len(keys)
        if len(weights) != len(keys):
            raise BuildError(f"got {len(keys)} keys but {len(weights)} weights")
        self.keys: List[float] = list(keys)
        self.weights: List[float] = validate_weights(weights, context=type(self).__name__)
        # Precomputed once so WoR queries need not scan their span to
        # detect the uniform case (previously an O(span) probe per query).
        self._all_weights_equal = self._weights_all_equal()

    def _weights_all_equal(self) -> bool:
        w = self.weights
        if kernels.HAVE_NUMPY and len(w) >= kernels.BUILD_MIN_SIZE:
            arr = kernels.np.asarray(w, dtype=kernels.np.float64)
            return bool((arr == arr[0]).all())
        first = w[0]
        return all(value == first for value in w)

    def __len__(self) -> int:
        return len(self.keys)

    def span_of(self, x: float, y: float) -> Tuple[int, int]:
        """Half-open sorted-index range of keys in ``[x, y]``."""
        if x > y:
            return 0, 0
        return bisect_left(self.keys, x), bisect_right(self.keys, y)

    def sample(
        self, x: float, y: float, s: int, *, rng: RNGLike = None
    ) -> List[float]:
        """Draw ``s`` independent weighted samples (as key values) from
        ``S ∩ [x, y]``.

        ``rng`` overrides the instance stream for this call (used by the
        engine to give each batched request its own independent stream);
        an int seeds a generator for this call alone, and ``None``
        consumes the instance stream as always.

        Raises :class:`EmptyQueryError` when the interval holds no keys.
        """
        indices = self._query_indices(x, y, s, rng)
        if not isinstance(indices, list):
            # An intp array from a numpy-rung draw: one gather, when the
            # key view round-trips to the same Python values and types.
            view = self._key_view()
            if view is not None:
                return view[indices].tolist()
            indices = indices.tolist()
        return [self.keys[i] for i in indices]

    def sample_indices(
        self, x: float, y: float, s: int, *, rng: RNGLike = None
    ) -> List[int]:
        """Like :meth:`sample` but returns sorted-order element indices."""
        indices = self._query_indices(x, y, s, rng)
        return indices if isinstance(indices, list) else indices.tolist()

    def _query_indices(self, x: float, y: float, s: int, rng: RNGLike):
        """Validate, resolve the key span and draw (:meth:`_draw_span`)."""
        validate_sample_size(s)
        lo, hi = self.span_of(x, y)
        if lo >= hi:
            raise EmptyQueryError(f"no keys in [{x}, {y}]")
        if rng is not None:
            rng = ensure_rng(rng)  # an int seed becomes this call's stream
        if obs.ENABLED:
            with obs.span(
                "range.query", structure=type(self).__name__, s=s, span=hi - lo
            ):
                return self._draw_span(lo, hi, s, rng)
        return self._draw_span(lo, hi, s, rng)

    def _draw_span(self, lo: int, hi: int, s: int, rng: RNGLike):
        """The draw behind :meth:`sample_span` for a checked span, in
        :meth:`execute_plan`'s container (subclass hook; the key-span path
        and shard tasks call it directly: their spans are in range)."""
        return self.execute_plan(self.plan_span(lo, hi), s, rng=rng)

    def _key_view(self):
        """``self.keys`` as a numpy array, or ``None`` when its
        ``.tolist()`` would not give back the same Python values and
        types (mixed int/float or object keys). Built on first use;
        racing first calls build equal views, so no lock is needed."""
        view = getattr(self, "_keys_array", _UNSET)
        if view is _UNSET:
            # Exactly the all-float and all-int key lists round-trip;
            # one type pass decides it without a trial ``.tolist()``.
            kinds = set(map(type, self.keys))
            dtype = _KEY_VIEW_DTYPES.get(kinds.pop()) if len(kinds) == 1 else None
            try:
                view = (
                    None if dtype is None
                    else kernels.np.array(self.keys, dtype=dtype)
                )
            except OverflowError:  # ints beyond int64
                view = None
            self._keys_array = view
        return view

    def sample_span(
        self, lo: int, hi: int, s: int, rng: RNGLike = None
    ) -> List[int]:
        """Draw ``s`` weighted samples from the index range ``[lo, hi)``.

        Exposed separately because tree sampling (§5) reduces subtree
        queries to *index-range* queries over the DFS leaf order
        (Proposition 1), where the range is known without key search.
        For planful samplers this is the validating compose of
        :meth:`plan_span` and :meth:`execute_plan`.

        Raises :class:`ValueError` when ``[lo, hi)`` reaches outside
        ``[0, n)`` (before any plan is built), and
        :class:`EmptyQueryError` when it is empty.
        """
        validate_sample_size(s)
        n = len(self.keys)
        if lo < 0 or hi > n:
            raise ValueError(f"index span [{lo}, {hi}) lies outside [0, {n})")
        if lo >= hi:
            raise EmptyQueryError("empty index range")
        if rng is not None:
            rng = ensure_rng(rng)
        indices = self._draw_span(lo, hi, s, rng)
        return indices if isinstance(indices, list) else indices.tolist()

    # -- plan → execute split (planful subclasses) ---------------------

    def plan_span(self, lo: int, hi: int) -> QueryPlan:
        """The (memoized) :class:`QueryPlan` for the index range
        ``[lo, hi)``.

        Planning is a pure function of the structure and the span — it
        consumes no randomness, which is the property that makes caching
        plans safe, and lets each shard of a sharded view plan its own
        sub-span in whichever process draws from it.
        """
        if self.plan_kind is None:
            raise NotImplementedError(
                f"{type(self).__name__} has no query-plan layer"
            )
        plan = self.plan_cache.get((lo, hi))
        if plan is None:
            if obs.ENABLED:
                with obs.span("plan.build", kind=self.plan_kind, span=hi - lo):
                    plan = self._build_plan(lo, hi)
            else:
                plan = self._build_plan(lo, hi)
            self.plan_cache.put((lo, hi), plan)
        return plan

    def _build_plan(self, lo: int, hi: int) -> QueryPlan:
        """Build the plan for ``[lo, hi)`` (subclass hook)."""
        raise NotImplementedError

    def execute_plan(
        self, plan: QueryPlan, s: int, rng: RNGLike = None
    ) -> Sequence[int]:
        """Draw ``s`` samples from a plan (all randomness spent here): an
        ``intp`` index array when ``kernels.use_batch(s)``, else a list.

        Assumes a plan built by this sampler and ``s >= 1``;
        :meth:`sample_span` is the validating compose.
        """
        raise NotImplementedError

    def plan_request(self, request) -> QueryPlan:
        """Plan an engine request without executing any draws.

        Backs ``python -m repro engine run --explain``: validates the
        request, resolves the key span, and returns the plan that
        executing the request would consume.
        """
        self.validate_request(request)
        x, y = request.args
        lo, hi = self.span_of(x, y)
        if lo >= hi:
            raise EmptyQueryError(f"no keys in [{x}, {y}]")
        return self.plan_span(lo, hi)

    def sample_without_replacement(
        self, x: float, y: float, s: int, *, rng: RNGLike = None
    ) -> List[float]:
        """A WoR sample of ``s`` distinct elements of ``S ∩ [x, y]`` (§1).

        Duplicate rejection over batches of this sampler's own span
        draws (:func:`~repro.core.schemes.sample_without_replacement`),
        so a round costs one WR query and a sharded view makes one
        fan-out per round: expected ``O(log n + s)`` while
        ``s ≤ |S_q|/2``. Uniform weights with ``s > |S_q|/2`` take a
        Floyd draw over the index span instead. Non-uniform weights give
        successive weighted sampling (weighted draws conditioned on
        distinctness), the standard weighted-WoR design.
        """
        validate_sample_size(s)
        lo, hi = self.span_of(x, y)
        population = hi - lo
        if population == 0:
            raise EmptyQueryError(f"no keys in [{x}, {y}]")
        # Normalise a seed once: re-seeding per round would redraw the
        # same batch until the budget ran out.
        rng = self._rng if rng is None else ensure_rng(rng)
        # A locally uniform span of a non-uniform set takes the routine,
        # whose law there is the same uniform WoR.
        if self._all_weights_equal and s > population // 2:
            indices = uniform_indices_without_replacement(lo, hi, s, rng=rng)
        else:
            indices = sample_without_replacement(
                lambda k: self.sample_span(lo, hi, k, rng=rng), s, population, rng
            )
        return [self.keys[i] for i in indices]

    def space_words(self) -> int:
        """Approximate structure size in machine words (for experiment E4)."""
        raise NotImplementedError


class TreeWalkRangeSampler(RangeSamplerBase):
    """§3.2 structure: BST + per-node child-sampling; O(s log n) query.

    For each sample: pick a canonical node weighted by ``w(u)``, then walk
    the tree downward choosing children with probability proportional to
    subtree weight. With binary fanout the child choice is a single biased
    coin, which is exactly the fanout-2 alias structure of §3.2.

    Repeated spans reuse their canonical cover and cover-level alias
    tables as a :class:`~repro.core.planner.QueryPlan` through the
    shared plan store (``plan_cache_size`` constructor knob /
    ``REPRO_PLAN_CACHE_SIZE`` env var; 0 disables) — the plan is
    deterministic, so caching leaves every query's output distribution
    and independence untouched.
    """

    plan_kind = "treewalk"

    def __init__(
        self,
        keys: Sequence[float],
        weights: Optional[Sequence[float]] = None,
        rng: RNGLike = None,
        plan_cache_size: Optional[int] = None,
    ):
        super().__init__(keys, weights)
        self._tree = StaticBST(self.keys, self.weights)
        self._rng = ensure_rng(rng)
        self.plan_cache = plan_scope(self.plan_kind, plan_cache_size)

    def _build_plan(self, lo: int, hi: int) -> QueryPlan:
        """Cover + cover-level alias tables for ``[lo, hi)``.

        The payload is ``(cover, prob, alias, np_slot)`` where
        ``np_slot`` lazily holds the numpy views used by the batch path.
        """
        tree = self._tree
        cover = tree.canonical_nodes_for_span(lo, hi)
        cover_weights = [tree.node_weight(u) for u in cover]
        prob, alias = build_alias_tables(cover_weights)
        return QueryPlan(
            self.plan_kind,
            (lo, hi),
            spans=tuple(tree.leaf_span(u) for u in cover),
            weights=tuple(cover_weights),
            payload=(cover, prob, alias, [None]),
        )

    def execute_plan(
        self, plan: QueryPlan, s: int, rng: RNGLike = None
    ) -> Sequence[int]:
        tree = self._tree
        rng = self._rng if rng is None else rng
        enabled = obs.ENABLED
        if enabled:
            _TW_QUERIES.inc()
            _TW_DRAWS.add(s)
        cover, prob, alias, np_slot = plan.payload
        if kernels.use_batch(s):
            return self._sample_span_batch(cover, prob, alias, np_slot, s, rng)
        # Local bindings for the node buffers' memoryviews: the walk is the
        # hot loop of the O((1 + s) log n) query, and attribute/method
        # dispatch per level would double its cost.
        lefts, _, node_weights, span_lo = tree.packed_arrays()
        random = rng.random
        result: List[int] = []
        if enabled:
            # Instrumented twin of the walk below: identical draws (same
            # RNG call sequence), plus a node-visit count for the §3.2
            # cost accounting. Kept separate so the disabled path carries
            # no per-level bookkeeping at all.
            visits = 0
            for _ in range(s):
                node = cover[alias_draw(prob, alias, rng)]
                visits += 1
                child = lefts[node]
                while child != NO_CHILD:
                    visits += 1
                    if random() * node_weights[node] < node_weights[child]:
                        node = child
                    else:
                        node = child + 1
                    child = lefts[node]
                result.append(span_lo[node])
            _TW_VISITS.add(visits)
            return result
        for _ in range(s):
            node = cover[alias_draw(prob, alias, rng)]
            child = lefts[node]
            while child != NO_CHILD:
                # BFS construction assigns sibling ids consecutively, so
                # the right child is always left + 1.
                if random() * node_weights[node] < node_weights[child]:
                    node = child
                else:
                    node = child + 1
                child = lefts[node]
            result.append(span_lo[node])
        return result

    def _sample_span_batch(
        self, cover, prob, alias, np_slot, s: int, rng: RNGLike = None
    ) -> Any:
        """Batched §3.2 walk: draw all cover nodes, then descend all
        ``s`` tokens level-by-level in vectorized steps."""
        np = kernels.np
        arrays = self._tree.numpy_arrays()
        gen = kernels.batch_generator(self._rng if rng is None else rng)
        if np_slot[0] is None:
            np_prob, np_alias = kernels.as_alias_arrays(prob, alias)
            np_slot[0] = (np.asarray(cover, dtype=np.intp), np_prob, np_alias)
        cover_ids, np_prob, np_alias = np_slot[0]
        starts = cover_ids[kernels.alias_draw_batch(np_prob, np_alias, s, gen)]
        visit_out = [0] if obs.ENABLED else None
        leaves = kernels.bst_topdown_batch(
            arrays["left"], arrays["right"], arrays["node_weight"], starts, gen,
            visit_out=visit_out,
        )
        if visit_out is not None:
            # Same convention as the scalar walk: one visit for each
            # token's cover node plus one per descent step.
            _TW_VISITS.add(s + visit_out[0])
        return arrays["lo"][leaves]

    def space_words(self) -> int:
        # 6 words per node (children, span, key, weight), 2n-1 nodes.
        return 6 * self._tree.node_count


def _urn_values(leaf_weight: Any, bases: Any, sizes: Any, starts: Any) -> Any:
    """The packed Lemma-2 builder's input: each internal node's weight
    slice at its ``starts`` entry, back to back, then the leaves' shared
    one-urn segment (``1.0``). The gather index dies with this call."""
    np = kernels.np
    total = int(sizes.sum())
    idx_t = np.int32 if total < 2**31 else np.intp
    flat_idx = np.repeat((bases - starts).astype(idx_t), sizes)
    flat_idx += np.arange(total, dtype=idx_t)
    values = np.empty(total + 1)
    np.take(leaf_weight, flat_idx, out=values[:total])
    values[total] = 1.0
    return values


class AliasAugmentedRangeSampler(RangeSamplerBase):
    """Lemma 2 structure: alias tables at every BST node.

    Space ``O(n log n)`` (each of the ``O(log n)`` levels stores ``O(n)``
    urns); query time ``O(log n + s)``: find the canonical cover, split the
    ``s`` draws multinomially across it (§4.1), then answer each part from
    that node's pre-built alias structure in O(1) per sample.

    Every node's table lives in one flat ``(prob, alias)`` pair, at the
    node's entry of a per-node offset array. Internal nodes own their
    weight slice's table; all leaves share one trailing one-urn table
    (``prob = 1``), so a node's table size is its span size. The three
    buffers are stored once, in ``_urns``, and read through memoryviews.
    """

    plan_kind = "lemma2"

    def __init__(
        self,
        keys: Sequence[float],
        weights: Optional[Sequence[float]] = None,
        rng: RNGLike = None,
        plan_cache_size: Optional[int] = None,
    ):
        super().__init__(keys, weights)
        self._tree = StaticBST(self.keys, self.weights)
        self._rng = ensure_rng(rng)
        if kernels.use_batch_build(len(self.keys)):
            self._build_urns_packed()
        else:
            self._build_urns_scalar()
        self.plan_cache = plan_scope(self.plan_kind, plan_cache_size)

    def _build_urns_packed(self) -> None:
        """Build *every* node's urn table in one flat kernel call.

        Each internal node's table is over a contiguous weight slice
        ``weights[lo:hi]``, so the whole structure — all ``O(n)`` tables
        across all ``O(log n)`` BST levels, ``O(n log n)`` urns total —
        concatenates into one ragged instance for
        :func:`kernels.build_alias_tables_flat`, with the leaves' one-urn
        segment at the end. One pass loop replaces per-level (let alone
        per-node) construction: numpy dispatch overhead is paid per pass
        over the full structure, not per level. The segments are written
        into one preallocated value buffer, so the built tables are never
        copied.
        """
        np = kernels.np
        arrays = self._tree.numpy_arrays()
        internal = np.nonzero(arrays["left"] != NO_CHILD)[0]
        bases = arrays["lo"][internal]
        sizes = arrays["hi"][internal] - bases
        starts = np.cumsum(sizes) - sizes
        offsets = np.full(self._tree.node_count, int(sizes.sum()), dtype=np.intp)
        offsets[internal] = starts
        # The values go straight into the kernel, which then holds their
        # only reference and drops them once they are scaled.
        prob, alias = kernels.build_alias_tables_flat(
            _urn_values(arrays["leaf_weight"], bases, sizes, starts),
            np.concatenate((sizes, [1])),
        )
        self._adopt_urns(prob, alias, offsets)

    def _build_urns_scalar(self) -> None:
        """The pure-Python builder: :func:`build_alias_tables` per
        internal node, written into the same flat layout as ``array``
        buffers (``int32`` aliases below 2**31 urns, as the packed
        builder makes them)."""
        tree = self._tree
        span_lo, span_hi = tree.span_arrays()
        internal = [node for node in tree.iter_nodes() if not tree.is_leaf(node)]
        total = sum(span_hi[node] - span_lo[node] for node in internal)
        offsets = array("q", [total]) * tree.node_count
        prob = array("d")
        alias = array("i" if total < 2**31 else "q")
        for node in internal:
            offsets[node] = len(prob)
            node_prob, node_alias = build_alias_tables(
                self.weights[span_lo[node]:span_hi[node]]
            )
            prob.extend(node_prob)
            alias.extend(node_alias)
        prob.append(1.0)
        alias.append(0)
        self._adopt_urns(prob, alias, offsets)

    def _adopt_urns(self, prob: Any, alias: Any, offsets: Any) -> None:
        """Install the flat urn buffers: ``array`` buffers from the scalar
        builder, numpy arrays from the packed builder or a shared-memory
        attach. The urn loop reads the memoryviews bound here, the batch
        pass the numpy views."""
        self._urns = (prob, alias, offsets)
        self._urn_views, self._np_urns = kernels.buffer_views(self._urns)

    def _build_plan(self, lo: int, hi: int) -> QueryPlan:
        """The Lemma-2 plan for ``[lo, hi)``.

        The payload is ``(split, parts, table)``: ``split`` is the
        :class:`~repro.core.schemes.PreparedSplit` over the cover weights
        (its tier state is resolved on the first draw and kept, and
        threads racing that draw build equal values); each part is
        ``(offset, size, base)`` as ints, the node's table offset in the
        flat urns, its urn count (1 for a leaf) and its first key index;
        ``table`` holds the same parts as a ``3 × k`` ``intp`` matrix for
        the batch pass (``None`` on the scalar tier). One gather over the
        cover node ids resolves them, so the query path does no per-node
        lookups.
        """
        tree = self._tree
        cover = tree.canonical_nodes_for_span(lo, hi)
        if kernels.HAVE_NUMPY:
            np = kernels.np
            arrays = tree.numpy_arrays()
            ids = np.array(cover, dtype=np.intp)
            bases = arrays["lo"][ids]
            table = np.array(
                (self._np_urns[2][ids], arrays["hi"][ids] - bases, bases), dtype=np.intp
            )
            parts = table.T.tolist()
        else:
            _, _, offsets = self._urn_views
            span_lo, span_hi = tree.span_arrays()
            parts = [(offsets[u], span_hi[u] - span_lo[u], span_lo[u]) for u in cover]
            table = None
        cover_weights = tuple(tree.node_weight(u) for u in cover)
        return QueryPlan(
            self.plan_kind,
            (lo, hi),
            spans=tuple((base, base + size) for _, size, base in parts),
            weights=cover_weights,
            payload=(PreparedSplit(cover_weights), parts, table),
        )

    def execute_plan(
        self, plan: QueryPlan, s: int, rng: RNGLike = None
    ) -> Sequence[int]:
        """The Lemma-2 draw: ``s`` indices from ``plan``, in cover order.

        From :data:`kernels.BATCH_MIN_SIZE` draws on, every part's draws
        come from one :func:`kernels.ragged_alias_draw` pass over the flat
        urns, returned as an ``intp`` array; below it the inline urn loop
        returns a list (small requests never touch numpy).
        """
        rng = self._rng if rng is None else rng
        enabled = obs.ENABLED
        if enabled:
            _L2_QUERIES.inc()
            _L2_DRAWS.add(s)
        split, parts, table = plan.payload
        counts = split.counts(s, rng)
        if enabled:
            # Urn probes: each draw from an internal node touches exactly
            # one urn of the node's pre-built alias table (Lemma 2's O(1)
            # per-sample step); leaf draws probe none. One pass over the
            # O(log n) parts.
            probes = sum(count for (_, size, _), count in zip(parts, counts) if size > 1)
            if probes:
                _L2_PROBES.add(probes)
        if kernels.use_batch(s):
            np = kernels.np
            prob, alias, _ = self._np_urns
            offsets, sizes, bases = table
            which = np.repeat(np.arange(len(parts)), counts)
            picks = kernels.ragged_alias_draw(
                prob, alias, offsets, sizes, which, kernels.batch_generator(rng)
            )
            picks += bases[which]
            return picks
        random = rng.random
        prob, alias, _ = self._urn_views
        result: List[int] = []
        for (offset, size, base), count in zip(parts, counts):
            if count == 0:
                continue
            if size == 1:  # a leaf
                result += [base] * count
                continue
            for _ in range(count):
                # alias_draw, inlined: the same two random() calls per draw.
                urn = int(random() * size)
                if urn == size:
                    urn = size - 1
                slot = offset + urn
                result.append(base + (urn if random() < prob[slot] else alias[slot]))
        return result

    def space_words(self) -> int:
        # 6 words per tree node and 2 per urn; the per-node offset index
        # is not counted, like the tree's other indexes.
        return 6 * self._tree.node_count + 2 * len(self._urns[0])


class ChunkedRangeSampler(RangeSamplerBase):
    """Theorem 3 structure: linear space, ``O(log n + s)`` query.

    The sorted keys are cut into ``g = Θ(n / log n)`` *chunks* of
    ``Θ(log n)`` consecutive keys each (§4.2). Machinery:

    * ``T_chunk`` — a Lemma-2 structure over the ``g`` chunk weights
      (``O(g log g) = O(n)`` space) answering chunk-aligned queries;
    * a Fenwick range-sum structure over chunk weights;
    * one alias structure per chunk for intra-chunk sampling.

    A general query ``[x, y]`` splits into the partial head chunk ``q1``,
    the chunk-aligned middle ``q2`` and the partial tail chunk ``q3``
    (Figure 2); the ``s`` draws are split 3 ways by exact weights, the
    partial parts are answered by on-the-fly alias structures over at most
    one chunk (``O(log n)`` work), and the middle by two-level sampling
    through ``T_chunk``.
    """

    plan_kind = "chunked"

    def __init__(
        self,
        keys: Sequence[float],
        weights: Optional[Sequence[float]] = None,
        rng: RNGLike = None,
        chunk_size: Optional[int] = None,
        plan_cache_size: Optional[int] = None,
    ):
        super().__init__(keys, weights)
        n = len(self.keys)
        if chunk_size is None:
            chunk_size = max(1, int(math.log2(n))) if n > 1 else 1
        if chunk_size < 1:
            raise BuildError(f"chunk_size must be >= 1, got {chunk_size}")
        self._chunk_size = chunk_size
        self._rng = ensure_rng(rng)

        g = (n + chunk_size - 1) // chunk_size
        self._num_chunks = g
        # All g chunk tables live in one padded flat (prob, alias) pair of
        # g × chunk_size urns: chunk c's table is lengths[c] urns at
        # starts[c] = c × chunk_size, and the padding (prob = 1,
        # self-alias) is never drawn.
        lengths = array("q", [chunk_size]) * g
        lengths[-1] = n - (g - 1) * chunk_size
        starts = array("q", range(0, g * chunk_size, chunk_size))
        if kernels.use_batch_build(n):
            np = kernels.np
            padded = np.zeros(g * chunk_size)
            padded[:n] = self.weights
            matrix = padded.reshape(g, chunk_size)
            chunk_weights = matrix.sum(axis=1).tolist()
            prob, alias = kernels.build_alias_tables_packed(matrix, lengths)
            prob, alias = prob.ravel(), alias.ravel()
        else:
            chunk_weights = []
            prob = array("d", [1.0]) * (g * chunk_size)
            alias = array("q", range(chunk_size)) * g
            for c in range(g):
                c_lo, c_hi = self._chunk_bounds(c)
                block = self.weights[c_lo:c_hi]
                chunk_weights.append(sum(block))
                block_prob, block_alias = build_alias_tables(block)
                prob[c_lo:c_hi] = array("d", block_prob)
                alias[c_lo:c_hi] = array("q", block_alias)
        self._adopt_chunks(prob, alias, lengths, starts)
        self._chunk_weights = chunk_weights
        # Range-sum structure of §4.2 over chunk weights.
        self._chunk_sums = FenwickTree(chunk_weights)
        # T_chunk: Lemma-2 structure over the chunk-level weighted set,
        # keyed by chunk index. Its plans live inside this sampler's
        # chunked plans, so it keeps no plan store of its own.
        self._t_chunk = AliasAugmentedRangeSampler(
            list(range(g)), chunk_weights, rng=self._rng, plan_cache_size=0
        )
        self.plan_cache = plan_scope(self.plan_kind, plan_cache_size)

    # ------------------------------------------------------------------

    def _chunk_bounds(self, chunk: int) -> Tuple[int, int]:
        lo = chunk * self._chunk_size
        return lo, min(lo + self._chunk_size, len(self.keys))

    @property
    def chunk_size(self) -> int:
        return self._chunk_size

    @property
    def num_chunks(self) -> int:
        return self._num_chunks

    def query_split(self, lo: int, hi: int) -> Tuple[Tuple[int, int], Tuple[int, int], Tuple[int, int]]:
        """The Figure-2 decomposition of ``[lo, hi)`` into (q1, q2, q3).

        ``q1``/``q3`` are half-open element-index ranges inside the partial
        head/tail chunks; ``q2`` is a half-open *chunk*-index range. Parts
        may be empty. Exposed for the Figure-2 reproduction test.
        """
        c = self._chunk_size
        first_chunk = lo // c
        last_chunk = (hi - 1) // c
        head_fully = lo == first_chunk * c and self._chunk_bounds(first_chunk)[1] <= hi
        tail_fully = hi == self._chunk_bounds(last_chunk)[1] and lo <= last_chunk * c

        if first_chunk == last_chunk:
            if head_fully and tail_fully:
                return (lo, lo), (first_chunk, first_chunk + 1), (hi, hi)
            return (lo, hi), (0, 0), (hi, hi)

        mid_lo = first_chunk if head_fully else first_chunk + 1
        mid_hi = last_chunk + 1 if tail_fully else last_chunk
        q1 = (lo, lo) if head_fully else (lo, self._chunk_bounds(first_chunk)[1])
        q3 = (hi, hi) if tail_fully else (self._chunk_bounds(last_chunk)[0], hi)
        return q1, (mid_lo, mid_hi), q3

    def _adopt_chunks(self, prob: Any, alias: Any, lengths: Any, starts: Any) -> None:
        """Install ``(prob, alias, lengths, starts)`` (a build or a
        shared-memory attach): chunk ``c``'s table is ``lengths[c]`` urns
        at ``starts[c]``, read by the scalar draw through memoryviews and
        by the batch pass through numpy views."""
        self._chunks = (prob, alias, lengths, starts)
        self._chunk_views, self._np_chunks = kernels.buffer_views(self._chunks)

    def _partial_plan(self, lo: int, hi: int):
        """On-the-fly alias tables for a partial chunk, as a mutable
        ``[prob, alias, np_slot]`` plan entry (numpy views filled lazily)."""
        return [*build_alias_tables(self.weights[lo:hi]), [None]]

    def _sample_partial(
        self, lo: int, tables: list, count: int, rng: RNGLike
    ) -> Sequence[int]:
        """Draw from a partial chunk starting at ``lo`` via its
        on-the-fly alias structure ``tables`` (:meth:`_partial_plan`)."""
        if obs.ENABLED:
            _CH_TOUCHES.inc()  # a partial part touches exactly one chunk
        prob, alias, np_slot = tables
        if kernels.use_batch(count):
            gen = kernels.batch_generator(rng)
            if np_slot[0] is None:
                np_slot[0] = kernels.as_alias_arrays(prob, alias)
            np_prob, np_alias = np_slot[0]
            draws = kernels.alias_draw_batch(np_prob, np_alias, count, gen)
            return lo + draws
        return [int(lo + alias_draw(prob, alias, rng)) for _ in range(count)]

    def _sample_chunk_aligned(
        self, chunk_lo: int, chunk_hi: int, sub_slot: list, count: int, rng: RNGLike
    ) -> Sequence[int]:
        """Two-level sampling over fully covered chunks (§4.2).

        ``count`` chunks are drawn through T_chunk from the sub-plan in
        ``sub_slot`` (T_chunk's Lemma-2 plan over ``[chunk_lo,
        chunk_hi)``, built here on first use), then one element inside
        each drawn chunk.
        """
        t_chunk = self._t_chunk
        sub_plan = sub_slot[0]
        if sub_plan is None:
            sub_plan = sub_slot[0] = t_chunk._build_plan(chunk_lo, chunk_hi)
        chunk_draws = t_chunk.execute_plan(sub_plan, count, rng)
        if kernels.use_batch(count):
            return self._chunk_level_batch(chunk_draws, rng)
        per_chunk: dict = {}
        for chunk in chunk_draws:
            per_chunk[chunk] = per_chunk.get(chunk, 0) + 1
        if obs.ENABLED:
            _CH_TOUCHES.add(len(per_chunk))
        prob, alias, _, _ = self._chunk_views
        width, n = self._chunk_size, len(self.keys)
        random = rng.random
        result: List[int] = []
        for chunk, chunk_count in per_chunk.items():
            c_lo = chunk * width
            size = min(width, n - c_lo)
            for _ in range(chunk_count):
                # alias_draw over the chunk's slice of the flat pair,
                # inlined: the same two random() calls per draw.
                urn = int(random() * size)
                if urn == size:
                    urn = size - 1
                slot = c_lo + urn
                result.append(c_lo + (urn if random() < prob[slot] else alias[slot]))
        return result

    def _chunk_level_batch(self, chunks: Any, rng: RNGLike) -> Any:
        """Resolve a batch of chunk draws (T_chunk's ``intp`` array) to
        element indices in one pass.

        All per-chunk alias tables sit in one padded flat pair of
        ``g × chunk_size`` urns (O(n) space — the structure is already
        O(n)), so the intra-chunk draw for every token is one
        :func:`kernels.ragged_alias_draw` pass over it, however the tokens
        scatter across chunks.
        """
        np = kernels.np
        prob, alias, lengths, starts = self._np_chunks
        if obs.ENABLED:
            # np.unique is an enabled-only cost: the distinct-chunk count
            # is exactly the "chunk touches" quantity §4.2's two-level
            # bound charges for.
            _CH_TOUCHES.add(int(np.unique(chunks).size))
        # Chunk ``c``'s table is the flat table at offset
        # ``c * chunk_size = starts[c]``.
        picks = kernels.ragged_alias_draw(
            prob, alias, starts, lengths, chunks, kernels.batch_generator(rng)
        )
        return starts[chunks] + picks

    def _build_plan(self, lo: int, hi: int) -> QueryPlan:
        """The Figure-2 plan for ``[lo, hi)``.

        The payload is ``(split, parts)``: ``split`` is the
        :class:`~repro.core.schemes.PreparedSplit` over the part weights,
        and each part is ``(kind, p_lo, p_hi, weight, slot)``. A partial
        part's slot holds its on-the-fly alias tables; the ``"mid"``
        part's slot is a one-element list that holds its T_chunk
        sub-plan, built on the plan's first draw, so a plan that is only
        explained never builds one. A query therefore draws from one
        resolved plan, fetched with one store lookup. Every memo slot
        (the sub-plan, the split's tier state, the numpy table views) is
        filled by one assignment of a value that depends only on the
        structure and the span, so threads racing a cached plan's first
        execute build equal values and need no lock.

        Plan construction (split, part weights, partial-chunk alias
        tables) consumes no randomness, so a cache hit changes nothing
        about the query's output distribution — it only skips the
        O(log n) setup work on repeated spans.
        """
        parts = []
        for kind, (p_lo, p_hi) in zip(("head", "mid", "tail"), self.query_split(lo, hi)):
            if p_hi <= p_lo:
                continue
            if kind == "mid":
                weight = self._chunk_sums.range_sum(p_lo, p_hi)
                parts.append(("mid", p_lo, p_hi, weight, [None]))
            else:
                weight = sum(self.weights[p_lo:p_hi])
                parts.append((kind, p_lo, p_hi, weight, self._partial_plan(p_lo, p_hi)))
        weights = tuple(weight for _, _, _, weight, _ in parts)
        return QueryPlan(
            self.plan_kind,
            (lo, hi),
            spans=tuple((p_lo, p_hi) for _, p_lo, p_hi, _, _ in parts),
            weights=weights,
            payload=(PreparedSplit(weights), parts),
        )

    def execute_plan(
        self, plan: QueryPlan, s: int, rng: RNGLike = None
    ) -> Sequence[int]:
        """The Theorem-3 draw, in part order. A lone non-empty part comes
        back as drawn; several join as ``merge_indices`` joins shards."""
        if obs.ENABLED:
            _CH_QUERIES.inc()
            _CH_DRAWS.add(s)
        rng = self._rng if rng is None else rng
        split, parts = plan.payload
        if len(parts) == 1:
            return self._sample_part(parts[0], s, rng)
        drawn = [
            self._sample_part(part, count, rng)
            for part, count in zip(parts, split.counts(s, rng))
            if count
        ]
        if len(drawn) == 1:
            return drawn[0]
        if kernels.use_batch(s):
            return kernels.np.concatenate(drawn, dtype=kernels.np.intp)
        return [index for part in drawn for index in part]  # all lists here

    def _sample_part(self, part: tuple, count: int, rng: RNGLike) -> Sequence[int]:
        """Draw ``count`` indices from one Figure-2 part of a plan."""
        kind, p_lo, p_hi, _, slot = part
        if kind == "mid":
            return self._sample_chunk_aligned(p_lo, p_hi, slot, count, rng)
        return self._sample_partial(p_lo, slot, count, rng)

    def space_words(self) -> int:
        # One prob + one alias word per element across all chunk tables
        # (computed from n, so the padding of the last chunk is not
        # counted), plus the Fenwick array and T_chunk.
        chunk_table_words = 2 * len(self.keys)
        fenwick_words = self._num_chunks + 1
        return chunk_table_words + fenwick_words + self._t_chunk.space_words()
