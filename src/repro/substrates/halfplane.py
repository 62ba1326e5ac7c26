"""Halfplane reporting with exact covers over convex layers (§6 remark).

Queries are lower halfplanes ``y ≤ a·x + b``. On every convex layer the
qualifying points form one contiguous cyclic arc of hull vertices; the
arc is located in ``O(log m)`` (extreme vertex + two monotone binary
searches), layers are walked outside-in, and peeling stops at the first
empty layer (everything deeper lies inside that layer's hull, hence above
the line). The resulting spans are an **exact cover** in the sense of
Theorem 5, so :class:`~repro.core.coverage.CoverageSampler` turns this
into halfplane IQS — the 2D stand-in for Afshani–Wei's 3D halfspace
structure (DESIGN.md §4).

Cost: ``O((1 + t) log n)`` cover-finding where ``t`` = touched layers
(every touched layer but the last contributes output, so ``t ≤ |S_q| + 1``
— output-sensitive like the classical Chazelle–Guibas–Lee method, minus
their fractional cascading log shaving).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.substrates.convex_layers import ConvexLayers, Point2, PolygonExtremes

Span = Tuple[int, int]
Halfplane = Tuple[float, float]  # (a, b): y <= a*x + b


class HalfplaneIndex:
    """Convex-layer structure with span covers for lower-halfplane queries."""

    def __init__(self, points: Sequence[Point2], weights: Optional[Sequence[float]] = None):
        self._layers = ConvexLayers(points, weights)
        self._extremes = [
            PolygonExtremes(hull) for hull in self._layers.layer_vertices
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
                if self._prunes(layer):
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
            if self._vertex_arc(layer, a, b) is None and self._prunes(layer):
                break
        return touched

    def _prunes(self, layer: int) -> bool:
        """Whether an empty ``layer`` proves every deeper layer empty.

        Only a layer with an interior can: the hull drops points whose
        float orientation reads collinear, so a deeper point may sit a
        rounding error outside a one- or two-vertex layer (a point or a
        segment), on the other side of the query line.
        """
        return len(self._layers.layer_vertices[layer]) >= 3
