"""Static B-tree over the simulated disk (paper §8).

The B-tree is EM's answer to the BST: fanout ``Θ(B)``, height
``O(log_B n)``, and a range query decomposes into ``O(log_B n)`` canonical
subtrees after reading only the ``O(log_B n)`` blocks on the two boundary
root-to-leaf paths. :class:`~repro.em.em_range_sampler.EMRangeSampler`
hangs per-subtree sample pools off these canonical units.

Node layout: one block per internal node holding child entries
``(min_key, max_key, ref, lo, hi, weight)`` where ``ref`` is
``("leaf", i)`` or ``("node", block_id)``, ``[lo, hi)`` is the subtree's
element-index span, and ``weight`` aggregates the subtree's element
weights (defaulting to the count for unweighted trees). The sorted
elements live in an :class:`ExternalArray` whose ``i``-th block is leaf
``i``; a parallel weight array exists when weights are supplied.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Optional, Sequence, Tuple

from repro.em.array import ExternalArray
from repro.em.model import EMMachine
from repro.errors import BuildError
from repro.validation import validate_weights

Ref = Tuple[str, int]
Entry = Tuple[float, float, Ref, int, int, float]
CanonicalUnit = Tuple[Ref, int, int]  # (ref, lo, hi)
WeightedUnit = Tuple[Ref, int, int, float]  # + aggregated weight


class StaticBTree:
    """Bulk-loaded B-tree over sorted values with canonical decomposition."""

    def __init__(
        self,
        machine: EMMachine,
        values: Sequence[float],
        fanout: int = 0,
        weights: Optional[Sequence[float]] = None,
    ):
        if len(values) == 0:
            raise BuildError("StaticBTree requires at least one value")
        for i in range(1, len(values)):
            if not values[i - 1] < values[i]:
                raise BuildError("StaticBTree values must be strictly increasing")
        if weights is not None:
            if len(weights) != len(values):
                raise BuildError(
                    f"got {len(values)} values but {len(weights)} weights"
                )
            weights = validate_weights(weights, context="StaticBTree")
        self.machine = machine
        # Internal fanout: each entry needs ~6 words in its block.
        self.fanout = fanout if fanout > 0 else max(2, machine.block_size // 6)
        self.data = ExternalArray.from_list(machine, values)
        self.weights_data: Optional[ExternalArray] = (
            ExternalArray.from_list(machine, weights) if weights is not None else None
        )
        self._n = len(values)

        B = machine.block_size
        level: List[Entry] = []
        for leaf_index in range(self.data.num_blocks):
            lo = leaf_index * B
            hi = min(lo + B, self._n)
            leaf_weight = (
                float(hi - lo) if weights is None else sum(weights[lo:hi])
            )
            level.append(
                (values[lo], values[hi - 1], ("leaf", leaf_index), lo, hi, leaf_weight)
            )

        self.height = 1
        while len(level) > 1:
            next_level: List[Entry] = []
            for start in range(0, len(level), self.fanout):
                group = level[start : start + self.fanout]
                (block_id,) = machine.allocate_blocks(1)
                machine.write_block(block_id, list(group))
                next_level.append(
                    (
                        group[0][0],
                        group[-1][1],
                        ("node", block_id),
                        group[0][3],
                        group[-1][4],
                        sum(entry[5] for entry in group),
                    )
                )
            level = next_level
            self.height += 1
        self.root_entry: Entry = level[0]
        machine.flush()

    def __len__(self) -> int:
        return self._n

    @property
    def is_weighted(self) -> bool:
        return self.weights_data is not None

    # ------------------------------------------------------------------

    def span_of(self, x: float, y: float) -> Tuple[int, int]:
        """Element-index span of ``[x, y]`` — resolved during decomposition,
        exposed separately for tests (no extra I/O is charged here because
        the decomposition below derives spans from node entries)."""
        units = self.canonical_units(x, y)
        if not units:
            return 0, 0
        return units[0][1], units[-1][2]

    def canonical_units(self, x: float, y: float) -> List[CanonicalUnit]:
        """Disjoint subtrees (plus partial-leaf pieces) covering
        ``S ∩ [x, y]`` as ``(ref, lo, hi)`` tuples; see
        :meth:`canonical_units_weighted` for the weighted variant."""
        return [(ref, lo, hi) for ref, lo, hi, _ in self.canonical_units_weighted(x, y)]

    def canonical_units_weighted(self, x: float, y: float) -> List[WeightedUnit]:
        """Canonical units with aggregated weights.

        Reads only the boundary paths — ``O(log_B n)`` block I/Os, plus
        one weight-block read per partial leaf when the tree is weighted.
        Partial leaf pieces carry ``ref = ("partial", leaf_index)``.
        """
        if x > y:
            return []
        results: List[WeightedUnit] = []
        # Depth-first in child order (children pushed reversed), so blocks
        # are read in the same sequence as a recursive walk would.
        stack: List[Entry] = [self.root_entry]
        while stack:
            min_key, max_key, ref, lo, hi, weight = stack.pop()
            if min_key > y or max_key < x:
                continue
            if x <= min_key and max_key <= y:
                results.append((ref, lo, hi, weight))
                continue
            kind, identifier = ref
            if kind == "leaf":
                # Partially covered leaf: narrow to the exact sub-span.
                block = self.machine.read_block(self.data.blocks[identifier])
                block_values = block[: hi - lo]
                inner_lo = bisect_left(block_values, x)
                inner_hi = bisect_right(block_values, y)
                if inner_lo < inner_hi:
                    piece_weight = float(inner_hi - inner_lo)
                    if self.weights_data is not None:
                        piece_weight = sum(
                            self.read_leaf_weights(identifier)[inner_lo:inner_hi]
                        )
                    results.append(
                        (("partial", identifier), lo + inner_lo, lo + inner_hi, piece_weight)
                    )
                continue
            stack.extend(tuple(child) for child in reversed(self.machine.read_block(identifier)))
        results.sort(key=lambda unit: unit[1])
        return results

    def read_leaf_values(self, leaf_index: int) -> List[float]:
        """Values stored in one leaf block (1 read I/O on a miss)."""
        B = self.machine.block_size
        lo = leaf_index * B
        hi = min(lo + B, self._n)
        return self.machine.read_block(self.data.blocks[leaf_index])[: hi - lo]

    def read_leaf_weights(self, leaf_index: int) -> List[float]:
        """Weights of one leaf's elements (1 read I/O on a miss).

        Unweighted trees answer with unit weights at no I/O cost.
        """
        B = self.machine.block_size
        lo = leaf_index * B
        hi = min(lo + B, self._n)
        if self.weights_data is None:
            return [1.0] * (hi - lo)
        return self.machine.read_block(self.weights_data.blocks[leaf_index])[: hi - lo]

    def children_of(self, ref: Ref) -> List[Entry]:
        """Child entries of an internal node (1 read I/O on a miss)."""
        kind, identifier = ref
        if kind != "node":
            raise BuildError(f"{ref!r} is not an internal node")
        return [tuple(child) for child in self.machine.read_block(identifier)]
