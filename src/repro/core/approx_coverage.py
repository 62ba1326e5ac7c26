"""The approximate-coverage technique (paper §6, Theorem 6, Corollary 7).

An *approximate cover* of ``q`` relaxes §5's cover: its subtrees are still
disjoint and jointly contain ``S_q``, but they may also contain extraneous
elements — at most a constant factor more (``|S_q| = Ω(|∪ S(u)|)``). A
sample drawn from the union then lands in ``S_q`` with constant
probability, so rejection sampling yields a true ``S_q`` sample after O(1)
expected repeats (Theorem 6). Corollary 7 precomputes the per-cover alias
structure for every *distinct* cover the structure can return, removing the
``O(|Ĉ_q|)`` per-query build cost.

The paper's flagship example — implemented here as
:class:`ComplementRangeIndex` — is the range-complement query
``S_q = S \\ [x, y]``: any exact cover needs ``Ω(log n)`` canonical nodes,
but a 2-node approximate cover always exists [18]: one dyadic prefix
covering everything below ``x`` and one dyadic suffix covering everything
above ``y``, each at most twice its target's size.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Dict, Hashable, List, NamedTuple, Optional, Protocol, Sequence, Tuple

from repro.core.alias import AliasTables, alias_draw, build_alias_tables
from repro.engine.protocol import EngineOp, EngineSampler
from repro.errors import BuildError, EmptyQueryError, SampleBudgetExceededError
from repro.substrates.rng import RNGLike, ensure_rng
from repro.validation import validate_sample_size, validate_weights

Span = Tuple[int, int]


class ApproximateCover(NamedTuple):
    """An approximate cover: disjoint spans plus a hashable identity.

    ``key`` identifies the cover within ``Ĉ`` (the set of all distinct
    covers, §6 eq. before Corollary 7) for precomputed-table lookup.
    """

    spans: Tuple[Span, ...]
    key: Hashable


class ApproxCoverableIndex(Protocol):
    """What Theorem 6 requires of the underlying structure."""

    @property
    def leaf_items(self) -> Sequence[Any]: ...

    @property
    def leaf_weights(self) -> Sequence[float]: ...

    def find_approximate_cover(self, query: Any) -> ApproximateCover:
        """Disjoint spans with ``S_q ⊆ ∪spans`` and ``|S_q| = Ω(|∪spans|)``."""

    def matches(self, query: Any, position: int) -> bool:
        """Does the element at leaf ``position`` satisfy ``q``?"""


class ComplementRangeIndex:
    """Range-complement queries ``S_q = S \\ [x, y]`` with 2-span covers.

    The approximate cover pairs the smallest dyadic prefix ``[0, 2^i)``
    containing all keys below ``x`` with the smallest dyadic suffix
    containing all keys above ``y``; each is at most twice its target, so a
    uniform draw from the union is accepted with probability ≥ 1/2. If the
    two dyadic spans would overlap, they merge into the full array — which
    only happens when ``|S_q| > n/2``, keeping the acceptance constant.
    """

    def __init__(self, keys: Sequence[float], weights: Optional[Sequence[float]] = None):
        if len(keys) == 0:
            raise BuildError("ComplementRangeIndex requires at least one key")
        for i in range(1, len(keys)):
            if not keys[i - 1] < keys[i]:
                raise BuildError("keys must be strictly increasing")
        if weights is None:
            weights = [1.0] * len(keys)
        if len(weights) != len(keys):
            raise BuildError(f"got {len(keys)} keys but {len(weights)} weights")
        self._keys = list(keys)
        self._weights = validate_weights(weights, context="ComplementRangeIndex")

    @property
    def leaf_items(self) -> Sequence[float]:
        return self._keys

    @property
    def leaf_weights(self) -> Sequence[float]:
        return self._weights

    def __len__(self) -> int:
        return len(self._keys)

    @staticmethod
    def _dyadic_ceiling(count: int) -> int:
        power = 1
        while power < count:
            power *= 2
        return power

    def complement_counts(self, query: Tuple[float, float]) -> Tuple[int, int]:
        """(#keys below x, #keys above y)."""
        x, y = query
        below = bisect_left(self._keys, x)
        above = len(self._keys) - bisect_right(self._keys, y)
        return below, above

    def find_approximate_cover(self, query: Tuple[float, float]) -> ApproximateCover:
        n = len(self._keys)
        below, above = self.complement_counts(query)
        if below == 0 and above == 0:
            return ApproximateCover(spans=(), key=(0, 0))
        prefix = min(self._dyadic_ceiling(below), n) if below else 0
        suffix = min(self._dyadic_ceiling(above), n) if above else 0
        if prefix + suffix > n:
            return ApproximateCover(spans=((0, n),), key=("full",))
        spans: List[Span] = []
        if prefix:
            spans.append((0, prefix))
        if suffix:
            spans.append((n - suffix, n))
        return ApproximateCover(spans=tuple(spans), key=(prefix, suffix))

    def find_exact_cover_size(self, query: Tuple[float, float]) -> int:
        """Size of the exact canonical cover a BST would need (for E7).

        Both complement pieces are contiguous index ranges; a balanced BST
        covers an arbitrary range with Θ(log n) canonical nodes. We count
        them via the standard dyadic decomposition of the two ranges.
        """
        below, above = self.complement_counts(query)
        n = len(self._keys)

        def dyadic_pieces(lo: int, hi: int) -> int:
            pieces = 0
            while lo < hi:
                alignment = lo & -lo if lo else 1 << 62
                size = 1
                while size * 2 <= hi - lo and size * 2 <= alignment:
                    size *= 2
                pieces += 1
                lo += size
            return pieces

        return dyadic_pieces(0, below) + dyadic_pieces(n - above, n)

    def matches(self, query: Tuple[float, float], position: int) -> bool:
        x, y = query
        key = self._keys[position]
        return key < x or key > y

    def iter_distinct_covers(self) -> List[ApproximateCover]:
        """Enumerate ``Ĉ``: every cover the index can ever return.

        ``O(log² n)`` covers — pairs of dyadic prefix/suffix sizes plus the
        merged full-array cover — so precomputing per-cover alias tables
        (Corollary 7) costs ``O(log² n)`` extra space here.
        """
        n = len(self._keys)
        sizes = [0]
        power = 1
        while power < n:
            sizes.append(power)
            power *= 2
        sizes.append(n)
        covers: List[ApproximateCover] = [ApproximateCover(spans=((0, n),), key=("full",))]
        for prefix in sizes:
            for suffix in sizes:
                if prefix + suffix > n or (prefix == 0 and suffix == 0):
                    continue
                spans: List[Span] = []
                if prefix:
                    spans.append((0, prefix))
                if suffix:
                    spans.append((n - suffix, n))
                covers.append(ApproximateCover(spans=tuple(spans), key=(prefix, suffix)))
        return covers


class ApproxCoverSampler(EngineSampler):
    """Theorem 6: rejection sampling over approximate covers.

    Expected query time ``O(|Ĉ_q| + s)`` plus cover-finding: the per-query
    alias structure over the cover is built once, and each accepted sample
    needs O(1) expected draws. Weighted variant note: with non-uniform
    weights the acceptance rate is the *weight* fraction of ``S_q`` inside
    the union (the [2]-style extension mentioned in the §6 remarks).
    """

    # Rejection counters and the lazy span-table cache make queries
    # stateful, so they serialize on the protocol's per-instance lock.
    engine_ops = {
        "sample": EngineOp("sample", takes_s=True, spawn=True),
        "sample_indices": EngineOp("sample_indices", takes_s=True, spawn=True),
    }

    def __init__(
        self,
        index: ApproxCoverableIndex,
        rng: RNGLike = None,
        max_rejects_per_sample: int = 10_000,
    ):
        self._index = index
        self._rng = ensure_rng(rng)
        self._max_rejects = max_rejects_per_sample
        weights = list(index.leaf_weights)
        prefix = [0.0]
        for w in weights:
            prefix.append(prefix[-1] + w)
        self._prefix = prefix
        self._weights = weights
        self._uniform = len(set(weights)) == 1
        self._span_tables: Dict[Span, AliasTables] = {}
        self.total_rejections = 0  # diagnostic counter for tests/benchmarks

    def _span_weight(self, span: Span) -> float:
        lo, hi = span
        return self._prefix[hi] - self._prefix[lo]

    def _draw_within(self, span: Span, rng: RNGLike) -> int:
        lo, hi = span
        if hi - lo == 1:
            return lo
        if self._uniform:
            return min(lo + int(rng.random() * (hi - lo)), hi - 1)
        tables = self._span_tables.get(span)
        if tables is None:
            tables = build_alias_tables(self._weights[lo:hi])
            self._span_tables[span] = tables
        prob, alias = tables
        return lo + alias_draw(prob, alias, rng)

    def _cover_tables(self, cover: ApproximateCover) -> AliasTables:
        return build_alias_tables([self._span_weight(span) for span in cover.spans])

    def sample_indices(self, query: Any, s: int, *, rng: RNGLike = None) -> List[int]:
        validate_sample_size(s)
        cover = self._index.find_approximate_cover(query)
        if not cover.spans:
            raise EmptyQueryError(f"no elements satisfy {query!r}")
        prob, alias = self._cover_tables(cover)
        return self._rejection_loop(query, cover, prob, alias, s, rng)

    def _rejection_loop(
        self,
        query: Any,
        cover: ApproximateCover,
        prob: Sequence[float],
        alias: Sequence[int],
        s: int,
        rng: RNGLike = None,
    ) -> List[int]:
        """``s`` accepted positions, drawn from ``rng`` (else the instance
        stream)."""
        index = self._index
        rng = self._rng if rng is None else ensure_rng(rng)
        result: List[int] = []
        while len(result) < s:
            attempts = 0
            while True:
                attempts += 1
                if attempts > self._max_rejects:
                    raise SampleBudgetExceededError(
                        f"rejection budget exhausted for query {query!r}; the "
                        "approximate-cover acceptance assumption failed"
                    )
                span = cover.spans[alias_draw(prob, alias, rng)]
                position = self._draw_within(span, rng)
                if index.matches(query, position):
                    result.append(position)
                    break
                self.total_rejections += 1
        return result

    def sample(self, query: Any, s: int, *, rng: RNGLike = None) -> List[Any]:
        items = self._index.leaf_items
        return [items[i] for i in self.sample_indices(query, s, rng=rng)]


class PrecomputedCoverSampler(ApproxCoverSampler):
    """Corollary 7: alias tables prepared for every cover in ``Ĉ``.

    Eliminates the ``O(|Ĉ_q|)`` per-query alias construction at the cost of
    ``O(Σ_{C∈Ĉ} |C|)`` extra space; the index must enumerate ``Ĉ`` via
    ``iter_distinct_covers()``.
    """

    def __init__(
        self,
        index: ApproxCoverableIndex,
        rng: RNGLike = None,
        max_rejects_per_sample: int = 10_000,
    ):
        super().__init__(index, rng=rng, max_rejects_per_sample=max_rejects_per_sample)
        enumerate_covers = getattr(index, "iter_distinct_covers", None)
        if enumerate_covers is None:
            raise BuildError(
                "PrecomputedCoverSampler needs the index to expose iter_distinct_covers()"
            )
        self._cover_table_cache: Dict[Hashable, AliasTables] = {}
        self._extra_space = 0
        for cover in enumerate_covers():
            if cover.spans:
                self._cover_table_cache[cover.key] = self._cover_tables(cover)
                self._extra_space += len(cover.spans)

    @property
    def precomputed_space(self) -> int:
        """``Σ_{C∈Ĉ} |C|`` — the Corollary-7 space term."""
        return self._extra_space

    def sample_indices(self, query: Any, s: int, *, rng: RNGLike = None) -> List[int]:
        validate_sample_size(s)
        cover = self._index.find_approximate_cover(query)
        if not cover.spans:
            raise EmptyQueryError(f"no elements satisfy {query!r}")
        tables = self._cover_table_cache.get(cover.key)
        if tables is None:
            raise BuildError(
                f"cover {cover.key!r} missing from the precomputed set Ĉ — "
                "iter_distinct_covers() under-enumerated"
            )
        prob, alias = tables
        return self._rejection_loop(query, cover, prob, alias, s, rng)
