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
from bisect import bisect_left, bisect_right
from typing import Any, ClassVar, List, Optional, Sequence, Tuple

from repro import obs
from repro.core import kernels
from repro.core.alias import AliasTables, alias_draw, build_alias_tables
from repro.core.planner import QueryPlan, plan_scope
from repro.core.schemes import multinomial_split
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
_WOR_DRAWS = obs.counter("wor.draws", "Without-replacement samples delivered")
_WOR_REJECTIONS = obs.counter(
    "wor.rejections",
    "Duplicate rejections in the WoR loop (expected O(1)/draw for s <= |S_q|/2)",
)

_UNSET = object()  # "not computed yet" marker for lazily cached attributes


class RangeSamplerBase(RangeQueryMixin):
    """Shared plumbing for samplers over a sorted weighted point set.

    Implements the engine protocol (:mod:`repro.engine`): requests with
    op ``"sample"`` / ``"sample_indices"`` / ``"sample_wor"`` and
    ``args=(x, y)`` dispatch to the methods below, and every query method
    accepts a keyword-only ``rng`` override so a batch executor can run
    each request on its own independent stream (``None`` keeps the
    instance stream — the byte-identical legacy behaviour).

    Planful subclasses (``plan_kind`` set) additionally implement the
    plan → execute split: :meth:`plan_span` returns a deterministic
    :class:`~repro.core.planner.QueryPlan` (cached through the shared
    plan store; consumes **no** randomness), :meth:`execute_plan` spends
    the randomness, and :meth:`sample_span` is the thin compose of the
    two. The split is what lets the engine plan once per request and
    ship the plan to shard executions.
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
        ``None`` consumes the instance stream as always.

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
        if obs.ENABLED:
            with obs.span(
                "range.query", structure=type(self).__name__, s=s, span=hi - lo
            ):
                return self._draw_span(lo, hi, s, rng)
        return self._draw_span(lo, hi, s, rng)

    def _draw_span(self, lo: int, hi: int, s: int, rng: RNGLike):
        """:meth:`sample_span`, free to return an ``intp`` index array
        instead of a list (subclass hook; the keys are then gathered in
        one numpy step)."""
        return self.sample_span(lo, hi, s, rng=rng)

    def _key_view(self):
        """``self.keys`` as a numpy array, or ``None`` when its
        ``.tolist()`` would not give back the same Python values and
        types (mixed int/float or object keys). Built on first use;
        racing first calls build equal views, so no lock is needed."""
        view = getattr(self, "_keys_array", _UNSET)
        if view is _UNSET:
            keys = list(self.keys)
            try:
                view = kernels.np.asarray(keys)
            except (TypeError, ValueError, OverflowError):
                view = None
            if view is not None:
                back = view.tolist() if view.dtype.kind in "iuf" else None
                if back != keys or list(map(type, back)) != list(map(type, keys)):
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
        """
        raise NotImplementedError

    # -- plan → execute split (planful subclasses) ---------------------

    def plan_span(self, lo: int, hi: int, *, portable: Any = None) -> QueryPlan:
        """The (memoized) :class:`QueryPlan` for the index range
        ``[lo, hi)``.

        Planning is a pure function of the structure and the span — it
        consumes no randomness, which is the property that makes both
        caching and cross-process shipping of plans safe. ``portable``
        optionally carries a :meth:`QueryPlan.portable` hint from a plan
        built elsewhere (the parent process, under sharded placement),
        letting this sampler materialize the plan without redoing the
        cover search.
        """
        if self.plan_kind is None:
            raise NotImplementedError(
                f"{type(self).__name__} has no query-plan layer"
            )
        plan = self.plan_cache.get((lo, hi))
        if plan is None:
            hint = None
            if portable is not None:
                kind, key, hint = portable
                if kind != self.plan_kind or key != (lo, hi):
                    hint = None  # foreign hint: fall back to a local build
            if obs.ENABLED:
                with obs.span("plan.build", kind=self.plan_kind, span=hi - lo):
                    plan = self._build_plan(lo, hi, hint=hint)
            else:
                plan = self._build_plan(lo, hi, hint=hint)
            self.plan_cache.put((lo, hi), plan)
        return plan

    def _build_plan(self, lo: int, hi: int, hint: Any = None) -> QueryPlan:
        """Build the plan for ``[lo, hi)`` (subclass hook).

        ``hint`` is this sampler kind's plain-data decomposition summary
        (from :meth:`QueryPlan.portable`); when present the cover search
        is skipped and only the local draw state is resolved.
        """
        raise NotImplementedError

    def execute_plan(
        self, plan: QueryPlan, s: int, rng: RNGLike = None
    ) -> List[int]:
        """Draw ``s`` samples from a plan (all randomness spent here).

        Assumes a plan built by this sampler (or rebuilt from its
        portable form) and ``s >= 1``; :meth:`sample_span` is the
        validating compose.
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

        Uniform weights: duplicate-rejection over the WR sampler —
        expected ``O(log n + s)`` when ``s ≤ |S_q|/2``, falling back to a
        Floyd draw over the index span when ``s`` is a large fraction of
        the result. Non-uniform weights: successive weighted sampling
        (weighted draws conditioned on distinctness), the standard
        weighted-WoR design.
        """
        validate_sample_size(s)
        lo, hi = self.span_of(x, y)
        population = hi - lo
        if population == 0:
            raise EmptyQueryError(f"no keys in [{x}, {y}]")
        if s > population:
            raise EmptyQueryError(
                f"range holds {population} < s={s} keys (WoR needs s <= |S_q|)"
            )
        # Build-time flag instead of the former O(span) per-query probe;
        # a locally-uniform span of a globally non-uniform set now takes
        # the successive-weighted path, which draws from the identical
        # distribution (weighted WoR over equal weights is uniform WoR).
        uniform = self._all_weights_equal
        if rng is None:
            rng = getattr(self, "_rng", None)
        else:
            # Normalise a seed once, before the rejection loop: re-seeding
            # per attempt would redraw the same element forever.
            rng = ensure_rng(rng)
        if uniform and s > population // 2:
            from repro.core.schemes import uniform_indices_without_replacement

            indices = uniform_indices_without_replacement(lo, hi, s, rng=rng)
            if obs.ENABLED:
                _WOR_DRAWS.add(s)  # Floyd path: no rejections by design
            return [self.keys[i] for i in indices]
        seen = set()
        ordered: List[float] = []
        budget = 64 * s + 16 * population
        attempts = 0
        while len(ordered) < s:
            attempts += 1
            if attempts > budget:
                raise EmptyQueryError(
                    "WoR rejection budget exhausted (extremely skewed weights); "
                    "reduce s or use uniform weights"
                )
            (index,) = self.sample_span(lo, hi, 1, rng=rng)
            if index not in seen:
                seen.add(index)
                ordered.append(self.keys[index])
        if obs.ENABLED:
            # Lemma-2-shaped accounting: attempts - s duplicate rejections
            # over s delivered draws; expected O(1)/draw while s <= |S_q|/2
            # (asserted across n in tests/obs/test_instrumentation.py).
            _WOR_DRAWS.add(s)
            _WOR_REJECTIONS.add(attempts - s)
        return ordered

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
        self._np_tree = None  # numpy copy of the BST arrays, built lazily
        self.plan_cache = plan_scope(self.plan_kind, plan_cache_size)

    def _build_plan(self, lo: int, hi: int, hint: Any = None) -> QueryPlan:
        """Cover + cover-level alias tables for ``[lo, hi)``.

        The payload is ``(cover, prob, alias, np_slot)`` where
        ``np_slot`` lazily holds the numpy views used by the batch path;
        the hint is the cover node ids, from which a worker process can
        rebuild the plan without redoing the O(log n) cover search.
        """
        tree = self._tree
        cover = list(hint) if hint is not None else tree.canonical_nodes_for_span(lo, hi)
        cover_weights = [tree.node_weight(u) for u in cover]
        prob, alias = build_alias_tables(cover_weights)
        return QueryPlan(
            self.plan_kind,
            (lo, hi),
            spans=tuple(tree.leaf_span(u) for u in cover),
            weights=tuple(cover_weights),
            payload=(cover, prob, alias, [None]),
            hint=tuple(cover),
        )

    def sample_span(
        self, lo: int, hi: int, s: int, rng: RNGLike = None
    ) -> List[int]:
        validate_sample_size(s)
        if lo >= hi:
            raise EmptyQueryError("empty index range")
        return self.execute_plan(self.plan_span(lo, hi), s, rng=rng)

    def execute_plan(
        self, plan: QueryPlan, s: int, rng: RNGLike = None
    ) -> List[int]:
        tree = self._tree
        rng = self._rng if rng is None else rng
        enabled = obs.ENABLED
        if enabled:
            _TW_QUERIES.inc()
            _TW_DRAWS.add(s)
        cover, prob, alias, np_slot = plan.payload
        if kernels.use_batch(s):
            return self._sample_span_batch(cover, prob, alias, np_slot, s, rng)
        # Local bindings for the packed node lists: the walk is the hot
        # loop of the O((1 + s) log n) query, and attribute/method dispatch
        # per level would double its cost.
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
    ) -> List[int]:
        """Batched §3.2 walk: draw all cover nodes, then descend all
        ``s`` tokens level-by-level in vectorized steps."""
        np = kernels.np
        if self._np_tree is None:
            left, right, node_weight, span_lo = self._tree.packed_arrays()
            self._np_tree = (
                np.asarray(left, dtype=np.intp),
                np.asarray(right, dtype=np.intp),
                np.asarray(node_weight, dtype=np.float64),
                np.asarray(span_lo, dtype=np.intp),
            )
        left, right, node_weight, span_lo = self._np_tree
        gen = kernels.batch_generator(self._rng if rng is None else rng)
        if np_slot[0] is None:
            np_prob, np_alias = kernels.as_alias_arrays(prob, alias)
            np_slot[0] = (np.asarray(cover, dtype=np.intp), np_prob, np_alias)
        cover_ids, np_prob, np_alias = np_slot[0]
        starts = cover_ids[kernels.alias_draw_batch(np_prob, np_alias, s, gen)]
        visit_out = [0] if obs.ENABLED else None
        leaves = kernels.bst_topdown_batch(
            left, right, node_weight, starts, gen, visit_out=visit_out
        )
        if visit_out is not None:
            # Same convention as the scalar walk: one visit for each
            # token's cover node plus one per descent step.
            _TW_VISITS.add(s + visit_out[0])
        return span_lo[leaves].tolist()

    def space_words(self) -> int:
        # 6 words per node (children, span, key, weight), 2n-1 nodes.
        return 6 * self._tree.node_count


class AliasAugmentedRangeSampler(RangeSamplerBase):
    """Lemma 2 structure: alias tables at every BST node.

    Space ``O(n log n)`` (each of the ``O(log n)`` levels stores ``O(n)``
    urns); query time ``O(log n + s)``: find the canonical cover, split the
    ``s`` draws multinomially across it (§4.1), then answer each part from
    that node's pre-built alias structure in O(1) per sample.
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
        # Per-node alias tables over the node's leaf span. Leaves are
        # trivial (single element), so store tables for internal nodes only.
        self._node_tables: List[Optional[AliasTables]] = [None] * self._tree.node_count
        self._flat_tables: Optional[tuple] = None
        self._table_entry_count = 0
        if kernels.use_batch_build(len(self.keys)):
            self._build_node_tables_packed()
        else:
            for node in self._tree.iter_nodes():
                if not self._tree.is_leaf(node):
                    node_lo, node_hi = self._tree.leaf_span(node)
                    self._node_tables[node] = build_alias_tables(
                        self.weights[node_lo:node_hi]
                    )
                    self._table_entry_count += node_hi - node_lo
        # numpy copies of per-node tables, converted on first batched use
        # (already present when the packed builder ran).
        self._np_node_tables: dict = {}
        self.plan_cache = plan_scope(self.plan_kind, plan_cache_size)

    def _build_node_tables_packed(self) -> None:
        """Build *every* internal node's urn table in one flat kernel call.

        Each internal node's table is over a contiguous weight slice
        ``weights[lo:hi]``, so the whole structure — all ``O(n)`` tables
        across all ``O(log n)`` BST levels, ``O(n log n)`` urns total —
        concatenates into one ragged instance for
        :func:`kernels.build_alias_tables_flat`. One pass loop replaces
        per-level (let alone per-node) construction, which is where the
        measured build speedup comes from: numpy dispatch overhead is paid
        per pass over the full structure, not per level.

        Only the flat arrays are stored here; per-node slice views
        materialize on first touch via :meth:`_node_table` — creating
        ``Θ(n)`` view objects eagerly costs more than the build itself,
        and a query workload only ever touches the ``O(log n)`` nodes of
        its covers.
        """
        np = kernels.np
        tree = self._tree
        arrays = tree.numpy_arrays()
        if arrays is not None:
            w = arrays["leaf_weight"]
            left_arr = arrays["left"]
            lo_arr = arrays["lo"]
            hi_arr = arrays["hi"]
        else:
            w = np.asarray(self.weights, dtype=np.float64)
            left, _, _, _ = tree.packed_arrays()
            span_lo, span_hi = tree.span_arrays()
            left_arr = np.asarray(left, dtype=np.intp)
            lo_arr = np.asarray(span_lo, dtype=np.intp)
            hi_arr = np.asarray(span_hi, dtype=np.intp)
        internal = np.nonzero(left_arr != NO_CHILD)[0]
        if internal.size == 0:
            return
        sizes = hi_arr[internal] - lo_arr[internal]
        out_starts = np.cumsum(sizes) - sizes
        total = int(sizes.sum())
        idx_t = np.int32 if total < 2**31 else np.intp
        flat_idx = np.repeat(
            (lo_arr[internal] - out_starts).astype(idx_t), sizes
        ) + np.arange(total, dtype=idx_t)
        prob_flat, alias_flat = kernels.build_alias_tables_flat(w[flat_idx], sizes)
        self._flat_tables = (internal, out_starts, sizes, prob_flat, alias_flat)
        self._table_entry_count = total

    def _node_table(self, node: int) -> AliasTables:
        """Alias tables for internal ``node``, resolving flat slices lazily."""
        tables = self._node_tables[node]
        if tables is None:
            internal, out_starts, sizes, prob_flat, alias_flat = self._flat_tables
            j = int(kernels.np.searchsorted(internal, node))
            a = int(out_starts[j])
            b = a + int(sizes[j])
            tables = (prob_flat[a:b], alias_flat[a:b])
            self._node_tables[node] = tables
        return tables

    def _build_plan(self, lo: int, hi: int, hint: Any = None) -> QueryPlan:
        """The Lemma-2 plan for ``[lo, hi)``.

        The payload is ``(cover_weights, entries)`` where each entry is
        ``(node, node_lo, tables_or_None)`` — ``None`` marks a leaf.
        Resolving spans and tables at plan time keeps the warm-cache query
        path free of per-node tree lookups. The hint is the cover node
        ids (tables are re-resolved locally — they are views into this
        instance's structure, not shippable data).
        """
        tree = self._tree
        cover = list(hint) if hint is not None else tree.canonical_nodes_for_span(lo, hi)
        entries = []
        spans = []
        for node in cover:
            node_lo, node_hi = tree.leaf_span(node)
            spans.append((node_lo, node_hi))
            tables = None if tree.is_leaf(node) else self._node_table(node)
            entries.append((node, node_lo, tables))
        cover_weights = [tree.node_weight(u) for u in cover]
        return QueryPlan(
            self.plan_kind,
            (lo, hi),
            spans=tuple(spans),
            weights=tuple(cover_weights),
            payload=(cover_weights, entries),
            hint=tuple(cover),
        )

    def sample_span(
        self, lo: int, hi: int, s: int, rng: RNGLike = None
    ) -> List[int]:
        validate_sample_size(s)
        if lo >= hi:
            raise EmptyQueryError("empty index range")
        return self.execute_plan(self.plan_span(lo, hi), s, rng=rng)

    def _draw_span(self, lo: int, hi: int, s: int, rng: RNGLike):
        validate_sample_size(s)
        if lo >= hi:
            raise EmptyQueryError("empty index range")
        return self._draw(self.plan_span(lo, hi), s, rng)

    def execute_plan(
        self, plan: QueryPlan, s: int, rng: RNGLike = None
    ) -> List[int]:
        indices = self._draw(plan, s, rng)
        return indices if isinstance(indices, list) else indices.tolist()

    def _draw(self, plan: QueryPlan, s: int, rng: RNGLike):
        """The Lemma-2 draw loop: ``s`` indices from ``plan``, cover part
        by cover part.

        Each part's indices stay as drawn — an ``intp`` array from the
        batch kernel, a list from the scalar urn loop — and the parts
        join in cover order: with one ``np.concatenate`` into an
        ``intp`` array when any part came from the kernel, as a flat
        list otherwise (small requests never touch numpy).
        """
        rng = self._rng if rng is None else rng
        enabled = obs.ENABLED
        if enabled:
            _L2_QUERIES.inc()
            _L2_DRAWS.add(s)
        cover_weights, entries = plan.payload
        counts = multinomial_split(cover_weights, s, rng)
        batched = kernels.use_batch(s)
        gen = kernels.batch_generator(rng) if batched else None
        parts: list = []
        kernel_parts = False
        probes = 0
        for (node, node_lo, tables), count in zip(entries, counts):
            if count == 0:
                continue
            if tables is None:  # leaf
                parts.append([node_lo] * count)
                continue
            if enabled:
                # Urn probes: each non-leaf draw touches exactly one urn
                # of the node's pre-built alias table (Lemma 2's O(1)
                # per-sample step). Accumulated per cover part, ≤ 2 log n
                # parts, so the bookkeeping is O(log n) per query.
                probes += count
            if batched and count >= kernels.BATCH_MIN_SIZE:
                prob, alias = self._np_tables_for(node)
                draws = kernels.alias_draw_batch(prob, alias, count, gen)
                parts.append(draws + node_lo)
                kernel_parts = True
            else:
                prob, alias = tables
                parts.append(
                    [int(node_lo + alias_draw(prob, alias, rng)) for _ in range(count)]
                )
        if enabled and probes:
            _L2_PROBES.add(probes)
        if kernel_parts:
            return kernels.np.concatenate(parts).astype(kernels.np.intp, copy=False)
        return [index for part in parts for index in part]

    def _np_tables_for(self, node: int):
        tables = self._np_node_tables.get(node)
        if tables is None:
            prob, alias = self._node_table(node)
            if isinstance(prob, kernels.np.ndarray):
                tables = (prob, alias)  # packed build: already numpy views
            else:
                tables = kernels.as_alias_arrays(prob, alias)
            self._np_node_tables[node] = tables
        return tables

    def space_words(self) -> int:
        tree_words = 6 * self._tree.node_count
        return tree_words + 2 * self._table_entry_count


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
        if kernels.use_batch_build(n):
            # All g chunk tables in one packed kernel call, with the numpy
            # draw matrix built eagerly instead of lazily re-packed from
            # scalar tables; per-chunk (prob, alias) views materialize on
            # demand through _chunk_table for the scalar draw path.
            np = kernels.np
            w = np.asarray(self.weights, dtype=np.float64)
            padded = np.zeros(g * chunk_size)
            padded[:n] = w
            matrix = padded.reshape(g, chunk_size)
            lengths = np.full(g, chunk_size, dtype=np.intp)
            lengths[-1] = n - (g - 1) * chunk_size
            chunk_weights = matrix.sum(axis=1).tolist()
            prob_mat, alias_mat = kernels.build_alias_tables_packed(matrix, lengths)
            starts = np.arange(g, dtype=np.intp) * chunk_size
            self._np_chunk_matrix = (prob_mat, alias_mat, lengths, starts)
            self._chunk_tables: List[Optional[AliasTables]] = [None] * g
        else:
            chunk_weights = []
            self._chunk_tables = []
            for c in range(g):
                c_lo, c_hi = self._chunk_bounds(c)
                block = self.weights[c_lo:c_hi]
                chunk_weights.append(sum(block))
                self._chunk_tables.append(build_alias_tables(block))
            # Packed numpy copy of the tables, built on first batched use.
            self._np_chunk_matrix = None
        self._chunk_weights = chunk_weights
        # Range-sum structure of §4.2 over chunk weights.
        self._chunk_sums = FenwickTree(chunk_weights)
        # T_chunk: Lemma-2 structure over the chunk-level weighted set,
        # keyed by chunk index.
        self._t_chunk = AliasAugmentedRangeSampler(
            list(range(g)), chunk_weights, rng=self._rng
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

    def _ensure_chunk_matrix(self):
        """The packed ``(prob_mat, alias_mat, lengths, starts)`` draw
        matrices, re-packing the scalar per-chunk tables on first need.

        The vectorized builder fills the matrices eagerly; a scalar build
        defers them until either a batched draw or a shared-memory export
        asks (both consume the same packed form, so the values are
        bit-identical either way).
        """
        if self._np_chunk_matrix is None:
            np = kernels.np
            g = self._num_chunks
            width = self._chunk_size
            prob_mat = np.ones((g, width), dtype=np.float64)
            alias_mat = np.zeros((g, width), dtype=np.intp)
            lengths = np.empty(g, dtype=np.intp)
            for chunk, (prob, alias) in enumerate(self._chunk_tables):
                size = len(prob)
                prob_mat[chunk, :size] = prob
                alias_mat[chunk, :size] = alias
                lengths[chunk] = size
            starts = np.arange(g, dtype=np.intp) * width
            self._np_chunk_matrix = (prob_mat, alias_mat, lengths, starts)
        return self._np_chunk_matrix

    def _chunk_table(self, chunk: int) -> AliasTables:
        """Per-chunk ``(prob, alias)``, as views into the packed matrix
        when the vectorized builder ran (materialized on demand)."""
        tables = self._chunk_tables[chunk]
        if tables is None:
            prob_mat, alias_mat, lengths, _ = self._np_chunk_matrix
            size = int(lengths[chunk])
            tables = (prob_mat[chunk, :size], alias_mat[chunk, :size])
            self._chunk_tables[chunk] = tables
        return tables

    def _partial_plan(self, lo: int, hi: int):
        """On-the-fly alias tables for a partial chunk, as a mutable
        ``[prob, alias, np_slot]`` plan entry (numpy views filled lazily)."""
        return [*build_alias_tables(self.weights[lo:hi]), [None]]

    def _sample_partial(
        self, lo: int, hi: int, count: int, tables=None, rng: RNGLike = None
    ) -> List[int]:
        """Draw from a partial chunk via an on-the-fly alias structure."""
        if tables is None:
            tables = self._partial_plan(lo, hi)
        if obs.ENABLED:
            _CH_TOUCHES.inc()  # a partial part touches exactly one chunk
        prob, alias, np_slot = tables
        rng = self._rng if rng is None else rng
        if kernels.use_batch(count):
            gen = kernels.batch_generator(rng)
            if np_slot[0] is None:
                np_slot[0] = kernels.as_alias_arrays(prob, alias)
            np_prob, np_alias = np_slot[0]
            draws = kernels.alias_draw_batch(np_prob, np_alias, count, gen)
            return (lo + draws).tolist()
        return [int(lo + alias_draw(prob, alias, rng)) for _ in range(count)]

    def _sample_chunk_aligned(
        self, chunk_lo: int, chunk_hi: int, count: int, rng: RNGLike = None
    ) -> List[int]:
        """Two-level sampling over fully covered chunks (§4.2)."""
        rng = self._rng if rng is None else rng
        chunk_draws = self._t_chunk.sample_span(chunk_lo, chunk_hi, count, rng=rng)
        if kernels.use_batch(count):
            return self._chunk_level_batch(chunk_draws, rng=rng)
        per_chunk: dict = {}
        for chunk in chunk_draws:
            per_chunk[chunk] = per_chunk.get(chunk, 0) + 1
        if obs.ENABLED:
            _CH_TOUCHES.add(len(per_chunk))
        result: List[int] = []
        for chunk, chunk_count in per_chunk.items():
            c_lo, _ = self._chunk_bounds(chunk)
            prob, alias = self._chunk_table(chunk)
            result.extend(
                int(c_lo + alias_draw(prob, alias, rng)) for _ in range(chunk_count)
            )
        return result

    def _chunk_level_batch(
        self, chunk_draws: List[int], rng: RNGLike = None
    ) -> List[int]:
        """Resolve a batch of chunk draws to element indices in one pass.

        All per-chunk alias tables are packed into ``g × chunk_size``
        matrices (built lazily, O(n) space — the structure is already
        O(n)), so the intra-chunk draw for every token is a single
        vectorized urn-pick + biased-coin step regardless of how the
        tokens scatter across chunks.
        """
        np = kernels.np
        prob_mat, alias_mat, lengths, starts = self._ensure_chunk_matrix()
        gen = kernels.batch_generator(self._rng if rng is None else rng)
        chunks = np.asarray(chunk_draws, dtype=np.intp)
        if obs.ENABLED:
            # np.unique is an enabled-only cost: the distinct-chunk count
            # is exactly the "chunk touches" quantity §4.2's two-level
            # bound charges for.
            _CH_TOUCHES.add(int(np.unique(chunks).size))
        count = len(chunks)
        urns = np.minimum(
            (gen.random(count) * lengths[chunks]).astype(np.intp), lengths[chunks] - 1
        )
        keep = gen.random(count) < prob_mat[chunks, urns]
        picks = np.where(keep, urns, alias_mat[chunks, urns])
        return (starts[chunks] + picks).tolist()

    def _build_plan(self, lo: int, hi: int, hint: Any = None) -> QueryPlan:
        """The Figure-2 plan for ``[lo, hi)``: the payload is a list of
        ``(kind, p_lo, p_hi, weight, partial_tables)`` parts.

        Plan construction (split, part weights, partial-chunk alias
        tables) consumes no randomness, so a cache hit changes nothing
        about the query's output distribution — it only skips the
        O(log n) setup work on repeated spans. The hint carries the
        non-empty part ranges; part weights and the partial-chunk alias
        tables are resolved locally from them (the tables are views into
        this instance, not shippable data).
        """
        if hint is not None:
            ranges = list(hint)
        else:
            (h_lo, h_hi), (m_lo, m_hi), (t_lo, t_hi) = self.query_split(lo, hi)
            ranges = []
            if h_hi > h_lo:
                ranges.append(("head", h_lo, h_hi))
            if m_hi > m_lo:
                ranges.append(("mid", m_lo, m_hi))
            if t_hi > t_lo:
                ranges.append(("tail", t_lo, t_hi))
        parts = []
        for kind, p_lo, p_hi in ranges:
            if kind == "mid":
                weight = self._chunk_sums.range_sum(p_lo, p_hi)
                parts.append(("mid", p_lo, p_hi, weight, None))
            else:
                weight = sum(self.weights[p_lo:p_hi])
                parts.append((kind, p_lo, p_hi, weight, self._partial_plan(p_lo, p_hi)))
        return QueryPlan(
            self.plan_kind,
            (lo, hi),
            spans=tuple((p_lo, p_hi) for _, p_lo, p_hi, _, _ in parts),
            weights=tuple(weight for _, _, _, weight, _ in parts),
            payload=parts,
            hint=tuple((kind, p_lo, p_hi) for kind, p_lo, p_hi, _, _ in parts),
        )

    def sample_span(
        self, lo: int, hi: int, s: int, rng: RNGLike = None
    ) -> List[int]:
        validate_sample_size(s)
        if lo >= hi:
            raise EmptyQueryError("empty index range")
        return self.execute_plan(self.plan_span(lo, hi), s, rng=rng)

    def execute_plan(
        self, plan: QueryPlan, s: int, rng: RNGLike = None
    ) -> List[int]:
        if obs.ENABLED:
            _CH_QUERIES.inc()
            _CH_DRAWS.add(s)
        rng = self._rng if rng is None else rng
        parts = plan.payload

        if len(parts) == 1:
            kind, p_lo, p_hi, _, tables = parts[0]
            if kind == "mid":
                return self._sample_chunk_aligned(p_lo, p_hi, s, rng=rng)
            return self._sample_partial(p_lo, p_hi, s, tables, rng=rng)

        counts = multinomial_split([part[3] for part in parts], s, rng)
        result: List[int] = []
        for (kind, p_lo, p_hi, _, tables), count in zip(parts, counts):
            if count == 0:
                continue
            if kind == "mid":
                result.extend(self._sample_chunk_aligned(p_lo, p_hi, count, rng=rng))
            else:
                result.extend(self._sample_partial(p_lo, p_hi, count, tables, rng=rng))
        return result

    def space_words(self) -> int:
        # One prob + one alias word per element across all chunk tables
        # (computed from n so lazily-materialized table views need not be
        # forced), plus the Fenwick array and T_chunk.
        chunk_table_words = 2 * len(self.keys)
        fenwick_words = self._num_chunks + 1
        return chunk_table_words + fenwick_words + self._t_chunk.space_words()
