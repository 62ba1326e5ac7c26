"""Naive report-then-sample baselines (paper §1).

The "naive solution" the paper opens with: answer the reporting query in
full — cost ``Θ(|S_q|)`` — and only then sample from the result. The output
*is* correctly distributed and cross-query independent, so these baselines
double as ground truth in distribution tests; they exist to be beaten by
the sub-linear structures, which is what experiments E3/E5/E8 show.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence, TypeVar

from repro.core.alias import alias_draw, build_alias_tables
from repro.core.range_sampler import RangeSamplerBase
from repro.engine.protocol import EngineOp, EngineSampler
from repro.errors import BuildError, EmptyQueryError
from repro.substrates.rng import RNGLike, ensure_rng
from repro.validation import validate_sample_size

T = TypeVar("T", bound=Hashable)


class NaiveRangeSampler(RangeSamplerBase):
    """Report ``S_q`` in full, then draw weighted samples from it.

    Query cost ``O(log n + |S_q| + s)``: the ``|S_q|`` term is the point —
    it grows with selectivity while the IQS structures stay flat.
    """

    def __init__(
        self,
        keys: Sequence[float],
        weights: Optional[Sequence[float]] = None,
        rng: RNGLike = None,
    ):
        super().__init__(keys, weights)
        self._rng = ensure_rng(rng)

    def sample_span(
        self, lo: int, hi: int, s: int, rng: RNGLike = None
    ) -> List[int]:
        validate_sample_size(s)
        if lo >= hi:
            raise EmptyQueryError("empty index range")
        # "Report" step: materialise the full query result.
        reported_weights = list(self.weights[lo:hi])
        # "Sample" step: weighted draws from the reported set.
        prob, alias = build_alias_tables(reported_weights)
        rng = self._rng if rng is None else ensure_rng(rng)
        return [lo + alias_draw(prob, alias, rng) for _ in range(s)]

    def report(self, x: float, y: float) -> List[float]:
        lo, hi = self.span_of(x, y)
        return self.keys[lo:hi]

    def space_words(self) -> int:
        return 2 * len(self.keys)


class NaiveSetUnionSampler(EngineSampler):
    """Materialise ``∪G`` per query, then sample uniformly (§7 baseline).

    Query cost ``Θ(Σ|S_i|)`` — linear in the total size of the queried
    sets, versus Theorem 8's ``O(g log² n)``.
    """

    engine_ops = {
        "sample": EngineOp("sample_many", takes_s=True, spawn=True),
    }
    engine_thread_safe = True  # queries only read the family

    def __init__(self, family: Sequence[Sequence[T]], rng: RNGLike = None):
        if len(family) == 0:
            raise BuildError("set family must be non-empty")
        self._family: List[List[T]] = [list(s) for s in family]
        self._rng = ensure_rng(rng)

    def __len__(self) -> int:
        return len(self._family)

    def sample(self, group: Sequence[int], *, rng: RNGLike = None) -> T:
        """One uniform sample from the union of the indexed sets (``rng``
        overrides the instance stream)."""
        union: List[T] = []
        seen = set()
        for set_index in group:
            for element in self._family[set_index]:
                if element not in seen:
                    seen.add(element)
                    union.append(element)
        if not union:
            raise EmptyQueryError("union of the queried sets is empty")
        rng = self._rng if rng is None else ensure_rng(rng)
        return union[int(rng.random() * len(union))]

    def sample_many(
        self, group: Sequence[int], s: int, *, rng: RNGLike = None
    ) -> List[T]:
        validate_sample_size(s)
        rng = self._rng if rng is None else ensure_rng(rng)
        return [self.sample(group, rng=rng) for _ in range(s)]
