"""Fair (r-near) nearest-neighbor search (paper §2 Benefit 2, §7).

An *r-fair nearest neighbor* query returns a uniformly random point among
those within distance ``r`` of the query point, independently of all past
queries — IQS with ``s = 1`` over the r-near predicate.

Implementation per the solutions the paper surveys: bucket the points into
``L`` shifted grids (:class:`~repro.substrates.grid.ShiftedGrids`, the LSH
stand-in), let ``G`` be the buckets intersecting the query ball, draw
uniform independent samples of ``∪G`` with the Theorem-8 set-union
sampler, and reject samples farther than ``r``. Acceptance is the fraction
of ball points among the candidate cells' points, constant for
well-spread data; a budget guards against adversarial skew.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro import obs
from repro.core import kernels
from repro.core.schemes import sample_without_replacement
from repro.core.set_union import SetUnionSampler
from repro.engine.protocol import EngineOp, EngineSampler
from repro.errors import BuildError, EmptyQueryError, SampleBudgetExceededError
from repro.substrates.grid import Point, ShiftedGrids
from repro.substrates.rng import RNGLike, ensure_rng
from repro.validation import validate_sample_size

_FNN_DRAWS = obs.counter("fair_nn.draws", "Fair-NN accepted neighbor draws")
_FNN_REJECTIONS = obs.counter(
    "fair_nn.rejections", "Fair-NN distance rejections (constant/draw if well-spread)"
)


def euclidean(a: Point, b: Point) -> float:
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


class FairNearNeighbor(EngineSampler):
    """Uniform independent sampling of the points within ``r`` of a query."""

    # Queries advance the inner set-union sampler's counters and rebuild
    # epochs, so they serialize on the protocol's per-instance lock.
    engine_ops = {
        "sample": EngineOp("sample_many", takes_s=True, spawn=True),
        "sample_distinct": EngineOp("sample_distinct", takes_s=True, spawn=True),
    }

    def __init__(
        self,
        points: Sequence[Point],
        radius: float,
        num_grids: int = 2,
        cell_size: Optional[float] = None,
        rng: RNGLike = None,
        max_rejects_per_sample: int = 10_000,
    ):
        if radius <= 0:
            raise BuildError("radius must be positive")
        self._rng = ensure_rng(rng)
        self.radius = radius
        self._points = [tuple(p) for p in points]
        self._grids = ShiftedGrids(
            self._points,
            cell_size=cell_size if cell_size is not None else radius,
            num_grids=num_grids,
            rng=self._rng,
        )
        self._union_sampler = SetUnionSampler(self._grids.family, rng=self._rng)
        self._max_rejects = max_rejects_per_sample
        self.total_rejections = 0
        self._np_points = None  # numpy copy of the point set, built lazily

    def __len__(self) -> int:
        return len(self._points)

    def candidate_sets(self, query: Point) -> List[int]:
        """The group ``G``: grid cells intersecting the query ball."""
        return self._grids.cells_for_ball(query, self.radius)

    def near_points(self, query: Point) -> List[Point]:
        """Exact ``S_q`` by scanning candidates (testing baseline)."""
        return [
            point
            for point in self._points
            if euclidean(point, query) <= self.radius
        ]

    def sample(self, query: Point, *, rng: RNGLike = None) -> Point:
        """One uniform independent r-near neighbor of ``query``.

        ``rng`` overrides the instance stream, which the inner set-union
        sampler shares. Raises :class:`EmptyQueryError` when no point
        lies within ``r``.
        """
        rng = self._rng if rng is None else ensure_rng(rng)
        group = self.candidate_sets(query)
        if not group:
            raise EmptyQueryError(f"no points within {self.radius} of {query!r}")
        attempts = 0
        while True:
            attempts += 1
            if attempts > self._max_rejects:
                if not self.near_points(query):
                    raise EmptyQueryError(
                        f"no points within {self.radius} of {query!r}"
                    )
                raise SampleBudgetExceededError(
                    "fair-NN rejection budget exhausted — candidate cells hold "
                    "too few in-ball points for query "
                    f"{query!r}"
                )
            index = self._union_sampler.sample(group, rng=rng)
            point = self._points[index]
            if euclidean(point, query) <= self.radius:
                if obs.ENABLED:
                    _FNN_DRAWS.inc()
                    _FNN_REJECTIONS.add(attempts - 1)
                return point
            self.total_rejections += 1

    def sample_many(self, query: Point, s: int, *, rng: RNGLike = None) -> List[Point]:
        """``s`` independent r-fair nearest neighbors (IQS, s ≥ 1).

        The batch path draws candidate blocks from the set-union sampler's
        batched kernel and filters them by distance in one vectorized
        pass, preserving the per-sample rejection semantics of
        :meth:`sample` (same acceptance predicate, same budget).
        """
        validate_sample_size(s)
        rng = self._rng if rng is None else ensure_rng(rng)
        if not kernels.use_batch(s):
            return [self.sample(query, rng=rng) for _ in range(s)]
        group = self.candidate_sets(query)
        if not group:
            raise EmptyQueryError(f"no points within {self.radius} of {query!r}")
        np = kernels.np
        if self._np_points is None:
            self._np_points = np.asarray(self._points, dtype=np.float64)
        points = self._np_points
        query_arr = np.asarray(query, dtype=np.float64)
        budget = self._max_rejects * s
        attempts = 0
        result: List[Point] = []
        while len(result) < s:
            need = s - len(result)
            block = min(max(32, 2 * need), budget - attempts)
            if block <= 0:
                if not self.near_points(query):
                    raise EmptyQueryError(
                        f"no points within {self.radius} of {query!r}"
                    )
                raise SampleBudgetExceededError(
                    "fair-NN rejection budget exhausted — candidate cells hold "
                    "too few in-ball points for query "
                    f"{query!r}"
                )
            indices = np.asarray(
                self._union_sampler.sample_many(group, block, rng=rng), dtype=np.intp
            )
            distances = np.sqrt(((points[indices] - query_arr) ** 2).sum(axis=1))
            accepted = distances <= self.radius
            # Count attempts/rejections only up to the draw that yields
            # the s-th accepted sample, matching the scalar loop.
            cumulative = np.cumsum(accepted)
            if cumulative[-1] >= need:
                cutoff = int(np.searchsorted(cumulative, need))
            else:
                cutoff = block - 1
            attempts += cutoff + 1
            rejected = int((~accepted[: cutoff + 1]).sum())
            self.total_rejections += rejected
            if obs.ENABLED:
                _FNN_DRAWS.add((cutoff + 1) - rejected)
                _FNN_REJECTIONS.add(rejected)
            for index in indices[: cutoff + 1][accepted[: cutoff + 1]].tolist():
                result.append(self._points[index])
        return result

    def sample_distinct(self, query: Point, s: int, *, rng: RNGLike = None) -> List[Point]:
        """``s`` *distinct* r-near neighbors (WoR scheme, §1).

        Duplicate rejection over batches of :meth:`sample_many`, through
        :func:`~repro.core.schemes.sample_without_replacement`; expected
        O(s) extra draws while ``s`` is at most half the ball size.
        Raises :class:`EmptyQueryError` if fewer than ``s`` points lie
        within ``r``.
        """
        rng = self._rng if rng is None else ensure_rng(rng)
        return sample_without_replacement(
            lambda k: self.sample_many(query, k, rng=rng),
            s,
            len(self.near_points(query)),
            rng,
        )
