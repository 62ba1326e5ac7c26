"""Halfplane reporting with exact covers over convex layers (§6 remark).

Queries are lower halfplanes ``y ≤ a·x + b``. On every convex layer the
qualifying points form one contiguous cyclic arc of hull vertices; the
arc is located in ``O(log m)`` (extreme vertex + two monotone binary
searches), layers are walked outside-in, and peeling stops at the first
empty layer that proves every deeper point above the line (its hull
holds them exactly, and its vertices clear the line by more than float
rounding). The resulting spans are an **exact cover** in the sense of
Theorem 5, so :class:`~repro.core.coverage.CoverageSampler` turns this
into halfplane IQS — the 2D stand-in for Afshani–Wei's 3D halfspace
structure (DESIGN.md §4).

Cost: ``O((1 + t) log n)`` cover-finding where ``t`` = touched layers
(every touched layer but the last contributes output, so ``t ≤ |S_q| + 1``
— output-sensitive like the classical Chazelle–Guibas–Lee method, minus
their fractional cascading log shaving).
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from repro.substrates.convex_layers import ConvexLayers, Point2, PolygonExtremes

Span = Tuple[int, int]
Halfplane = Tuple[float, float]  # (a, b): y <= a*x + b

#: Relative error bound of a float 2D orientation (Shewchuk's orient2d
#: bound is 3.33e-16), plus an absolute floor for underflowed products.
_ORIENT_REL, _ORIENT_ABS = 1e-15, 1e-300
#: Twice the error bound of ``_below``'s float ``y - a*x - b``: 4 unit
#: roundoffs of ``|y| + |a*x| + |b|``, plus an absolute underflow floor.
_LINE_REL, _LINE_ABS = 8 * 2.0**-53, 2.0**-1060


def _orientation(o: Point2, a: Point2, p: Point2) -> int:
    """The exact sign of ``(a - o) × (p - o)``: a float filter, then rationals."""
    left = (a[0] - o[0]) * (p[1] - o[1])
    right = (a[1] - o[1]) * (p[0] - o[0])
    det = left - right
    if abs(det) > _ORIENT_REL * (abs(left) + abs(right)) + _ORIENT_ABS:
        return 1 if det > 0 else -1
    ox, oy = Fraction(o[0]), Fraction(o[1])
    exact = (Fraction(a[0]) - ox) * (Fraction(p[1]) - oy) - (
        Fraction(a[1]) - oy
    ) * (Fraction(p[0]) - ox)
    return (exact > 0) - (exact < 0)


def _contains_deeper(layer_vertices: Sequence[Sequence[Point2]]) -> List[bool]:
    """Per layer: whether its hull holds every deeper point, exactly.

    The layers come from float orientation tests, so a deeper point can
    sit a rounding error outside a layer's hull. Walking inside-out,
    ``witnesses`` is a point set whose hull holds every point deeper than
    the current layer: the layer's own vertices once its hull provably
    holds them, else those vertices added to the deeper witnesses.
    """
    flags = [False] * len(layer_vertices)
    witnesses: List[Point2] = []
    for layer in range(len(layer_vertices) - 1, -1, -1):
        hull = layer_vertices[layer]
        m = len(hull)
        if m >= 3 and all(
            _orientation(hull[i], hull[(i + 1) % m], point) >= 0
            for point in witnesses
            for i in range(m)
        ):
            flags[layer] = True
            witnesses = list(hull)
        else:
            witnesses = witnesses + list(hull)
    return flags


class HalfplaneIndex:
    """Convex-layer structure with span covers for lower-halfplane queries."""

    def __init__(self, points: Sequence[Point2], weights: Optional[Sequence[float]] = None):
        self._layers = ConvexLayers(points, weights)
        self._extremes = [
            PolygonExtremes(hull) for hull in self._layers.layer_vertices
        ]
        self._contains_deeper = _contains_deeper(self._layers.layer_vertices)
        # Per layer: the largest |x| and |y| of its vertices, which bound
        # every point its hull holds.
        self._extents = [
            (max(abs(v[0]) for v in hull), max(abs(v[1]) for v in hull))
            for hull in self._layers.layer_vertices
        ]
        self.predicate_evaluations = 0  # diagnostic for the O(log) claim

    def __len__(self) -> int:
        return len(self._layers)

    @property
    def num_layers(self) -> int:
        return self._layers.num_layers

    @property
    def leaf_items(self) -> Sequence[Point2]:
        return self._layers.leaf_items

    @property
    def leaf_weights(self) -> Sequence[float]:
        return self._layers.leaf_weights

    def original_index(self, leaf_position: int) -> int:
        return self._layers.original_index(leaf_position)

    # ------------------------------------------------------------------

    def _below(self, point: Point2, a: float, b: float) -> bool:
        self.predicate_evaluations += 1
        return point[1] - a * point[0] - b <= 0.0

    _LINEAR_THRESHOLD = 8

    def _scan_runs(self, hull, a: float, b: float) -> Optional[List[Tuple[int, int]]]:
        """Exact fallback: maximal cyclic runs of below-vertices by scan.

        In exact arithmetic the below-set is one cyclic arc; floating-point
        degeneracies can fragment it, and emitting every maximal run keeps
        the cover *exact* regardless.
        """
        m = len(hull)
        flags = [self._below(v, a, b) for v in hull]
        if not any(flags):
            return None
        if all(flags):
            return [(0, m - 1)]
        runs: List[Tuple[int, int]] = []
        # Start scanning just after an above-vertex so runs never split
        # across the seam.
        start = next(i for i, flag in enumerate(flags) if not flag)
        run_start: Optional[int] = None
        for offset in range(1, m + 1):
            index = (start + offset) % m
            if flags[index]:
                if run_start is None:
                    run_start = index
            elif run_start is not None:
                runs.append((run_start, (index - 1) % m))
                run_start = None
        if run_start is not None:
            runs.append((run_start, start - 1 if start else m - 1))
        return runs

    def _vertex_arc(self, layer: int, a: float, b: float) -> Optional[List[Tuple[int, int]]]:
        """Inclusive cyclic vertex ranges of the layer's below-arc, or
        None when the layer is entirely above the line."""
        hull = self._layers.layer_vertices[layer]
        m = len(hull)
        if m <= self._LINEAR_THRESHOLD:
            return self._scan_runs(hull, a, b)

        direction = (-a, 1.0)  # f(p) = dot(p, direction) - b
        extremes = self._extremes[layer]
        lowest = extremes.argmin(direction)
        if not self._below(hull[lowest], a, b):
            # The angle search can be defeated by near-degenerate float
            # geometry; confirm emptiness exactly before pruning deeper
            # layers (a scan here is rare and preserves correctness).
            return self._scan_runs(hull, a, b)
        highest = extremes.argmax(direction)
        if self._below(hull[highest], a, b):
            return [(0, m - 1)]  # the entire layer is below

        # dot(v, direction) increases monotonically along both boundary
        # paths from `lowest` to `highest`; binary search the last below
        # vertex on each path.
        ccw_length = (highest - lowest) % m
        cw_length = (lowest - highest) % m

        def last_below(step_sign: int, length: int) -> int:
            lo, hi = 0, length - 1  # offsets from `lowest`; offset 0 is below
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if self._below(hull[(lowest + step_sign * mid) % m], a, b):
                    lo = mid
                else:
                    hi = mid - 1
            return lo

        forward = last_below(+1, ccw_length)
        backward = last_below(-1, cw_length)
        arc_start = (lowest - backward) % m
        arc_stop = (lowest + forward) % m
        # Float-noise guard: the vertices just outside the arc must be
        # above; otherwise unimodality was violated — recompute exactly.
        before = (arc_start - 1) % m
        after = (arc_stop + 1) % m
        if self._below(hull[before], a, b) or self._below(hull[after], a, b):
            return self._scan_runs(hull, a, b)
        return [(arc_start, arc_stop)]

    def find_cover(self, query: Halfplane) -> List[Span]:
        """Disjoint flat-array spans exactly covering the points below."""
        a, b = query
        spans: List[Span] = []
        for layer in range(self._layers.num_layers):
            runs = self._vertex_arc(layer, a, b)
            if runs is None:
                if self._prunes(layer, a, b):
                    break  # deeper layers are inside this hull → also above
                continue
            vertex_spans = self._layers.layer_vertex_spans[layer]
            layer_lo, layer_hi = self._layers.layer_bounds[layer]
            for start_vertex, stop_vertex in runs:
                if start_vertex <= stop_vertex:
                    spans.append(
                        (vertex_spans[start_vertex][0], vertex_spans[stop_vertex][1])
                    )
                else:  # run wraps around the array seam
                    spans.append((vertex_spans[start_vertex][0], layer_hi))
                    spans.append((layer_lo, vertex_spans[stop_vertex][1]))
        return spans

    def report(self, query: Halfplane) -> List[Point2]:
        items = self._layers.leaf_items
        return [
            items[i] for lo, hi in self.find_cover(query) for i in range(lo, hi)
        ]

    def count(self, query: Halfplane) -> int:
        return sum(hi - lo for lo, hi in self.find_cover(query))

    def touched_layers(self, query: Halfplane) -> int:
        """``t``: layers inspected by the cover walk (for complexity tests)."""
        a, b = query
        touched = 0
        for layer in range(self._layers.num_layers):
            touched += 1
            if self._vertex_arc(layer, a, b) is None and self._prunes(layer, a, b):
                break
        return touched

    def _prunes(self, layer: int, a: float, b: float) -> bool:
        """Whether an empty ``layer`` proves every deeper layer empty.

        Two conditions make it a proof. The layer's hull must hold every
        deeper point in exact arithmetic (decided at build time): the
        float hull can peel a point that lies a rounding error outside
        it into a deeper layer, and a one- or two-vertex layer has no
        interior. And every vertex must clear the line by more than
        twice the rounding error of ``_below`` anywhere in the hull, so
        no deeper point can read below it in floats.
        """
        if not self._contains_deeper[layer]:
            return False
        x_extent, y_extent = self._extents[layer]
        margin = _LINE_REL * (y_extent + abs(a) * x_extent + abs(b)) + _LINE_ABS
        return all(
            v[1] - a * v[0] - b > margin for v in self._layers.layer_vertices[layer]
        )
