"""Static balanced binary search tree with canonical-node decomposition.

This is the tree of paper §3.2, obeying the four stated conventions:

* height ``O(log n)``;
* ``n`` leaves, each storing one distinct key of ``S``;
* every internal node has exactly two children, with all leaf keys in the
  left subtree smaller than those in the right subtree;
* the key of an internal node equals the smallest leaf key in its right
  subtree.

For any query interval ``q = [x, y]`` the tree yields a set ``C`` of
``O(log n)`` *canonical nodes* whose subtrees are disjoint and whose leaf
keys partition ``S ∩ q`` (Figure 1). Every IQS technique in §4–§6 starts
from this decomposition.

The implementation is array-based (structure-of-arrays): a node is an
integer id indexing parallel arrays. This keeps Python overhead low enough
for the benchmark sweeps while remaining a faithful pointer-style BST.

Each array is stored once, as a flat buffer: a numpy array from the
vectorized build, an ``array('q')``/``array('d')`` from the pure-Python
one, or a shared-memory segment (:mod:`repro.engine.shm`). Scalar loops
read it through a :class:`memoryview`, batch paths through a zero-copy
numpy view.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import obs
from repro.core import kernels
from repro.errors import BuildError
from repro.validation import validate_weights

NO_CHILD = -1

#: The flat buffers of a tree, in :meth:`StaticBST._adopt` order, and
#: the memoryview attribute each is read through.
NODE_BUFFERS = ("left", "right", "lo", "hi", "node_weight", "leaf_node_of", "leaf_weight")
_VIEWS = ("_left", "_right", "_lo", "_hi", "_node_weight", "_leaf_node_of", "weights")

_BST_COVERS = obs.counter("bst.covers", "Canonical-node decompositions computed")
_BST_COVER_NODES = obs.counter(
    "bst.cover_nodes", "Canonical nodes returned across all covers (O(log n) each)"
)


class StaticBST:
    """Balanced BST over sorted distinct keys, per the §3.2 conventions.

    Parameters
    ----------
    keys:
        Strictly increasing sequence of key values.
    weights:
        Optional positive weight per key (defaults to 1.0 each). Node
        weights ``w(u)`` aggregate leaf weights bottom-up as in §3.2.
        ``tree.weights`` is a memoryview over the one leaf-weight buffer.
    """

    __slots__ = (
        "keys",
        "weights",
        "_left",
        "_right",
        "_lo",
        "_hi",
        "_node_key",
        "_node_weight",
        "_leaf_node_of",
        "_level_bounds",
        "_arrays",
        "root",
    )

    def __init__(self, keys: Sequence[float], weights: Optional[Sequence[float]] = None):
        if len(keys) == 0:
            raise BuildError("StaticBST requires at least one key")
        increasing = None
        key_arr = None
        if kernels.use_batch_build(len(keys)):
            np = kernels.np
            try:
                key_arr = np.asarray(keys, dtype=np.float64)
            except (TypeError, ValueError):
                key_arr = None
            if key_arr is not None and (key_arr.ndim != 1 or key_arr.size != len(keys)):
                key_arr = None
            if key_arr is not None:
                increasing = bool((key_arr[1:] > key_arr[:-1]).all())
        if increasing is None:
            increasing = all(keys[i - 1] < keys[i] for i in range(1, len(keys)))
        if not increasing:
            raise BuildError("StaticBST keys must be strictly increasing")
        if weights is None:
            weights = [1.0] * len(keys)
        if len(weights) != len(keys):
            raise BuildError(f"got {len(keys)} keys but {len(weights)} weights")

        self.keys: List[float] = list(keys)
        leaf_weight = validate_weights(weights, context="StaticBST")

        # Iterative level-order (BFS) construction: node ids are assigned
        # breadth-first, so every level occupies one contiguous id range
        # (recorded in `_level_bounds`) and children always have larger ids
        # than their parent. That layout is what makes the bottom-up weight
        # aggregation a reversed linear pass — and lets the alias-augmented
        # sampler build all of one level's urn tables in a single packed
        # kernel call. The root is node 0, as before.
        n = len(keys)
        if kernels.use_batch_build(n):
            np = kernels.np
            self._build_level_order_vectorized(
                n, key_arr, np.asarray(leaf_weight, dtype=np.float64)
            )
        else:
            self._build_level_order(n, leaf_weight)

    def _build_level_order(self, n: int, weights: List[float]) -> None:
        """Pure-Python BFS build (also the numpy-free fallback), written
        into ``array`` buffers."""
        capacity = 2 * n - 1
        left = array("q", [NO_CHILD]) * capacity
        right = array("q", [NO_CHILD]) * capacity
        node_key = [0.0] * capacity
        node_weight = array("d", [0.0]) * capacity
        leaf_node_of = array("q", [0]) * n
        keys = self.keys

        # `spans[u]` is node u's half-open leaf range; appending children in
        # (left, right) order while scanning nodes in id order IS the BFS.
        spans: List[Tuple[int, int]] = [(0, n)]
        level_bounds: List[Tuple[int, int]] = []
        lvl_start = 0
        while lvl_start < len(spans):
            lvl_end = len(spans)
            level_bounds.append((lvl_start, lvl_end))
            for node in range(lvl_start, lvl_end):
                lo, hi = spans[node]
                if hi - lo == 1:
                    node_key[node] = keys[lo]
                    node_weight[node] = weights[lo]
                    leaf_node_of[lo] = node
                else:
                    mid = (lo + hi) // 2
                    left[node] = len(spans)
                    spans.append((lo, mid))
                    right[node] = len(spans)
                    spans.append((mid, hi))
                    node_key[node] = keys[mid]  # smallest key in right subtree
            lvl_start = lvl_end

        # Children carry larger ids, so one reversed pass aggregates w(u);
        # siblings get consecutive ids, so the right child is left + 1.
        for node in range(capacity - 1, -1, -1):
            lchild = left[node]
            if lchild != NO_CHILD:
                node_weight[node] = node_weight[lchild] + node_weight[lchild + 1]

        lo = array("q", [span[0] for span in spans])
        hi = array("q", [span[1] for span in spans])
        self._adopt(
            node_key,
            level_bounds,
            (left, right, lo, hi, node_weight, leaf_node_of, array("d", weights)),
        )

    def _build_level_order_vectorized(self, n: int, key_arr: Any, w: Any) -> None:
        """Numpy BFS build: whole levels of spans/ids/weights per array op.

        Produces arrays identical to :meth:`_build_level_order` — the same
        BFS id assignment, span midpoints, and pairwise weight sums — just
        computed one level at a time instead of one node at a time. ``w``
        is the validated leaf weights as a ``float64`` array.
        """
        np = kernels.np
        level_lo = np.array([0], dtype=np.intp)
        level_hi = np.array([n], dtype=np.intp)
        los, his, lefts, rights = [], [], [], []
        level_bounds: List[Tuple[int, int]] = []
        start = 0
        while True:
            k = level_lo.size
            level_bounds.append((start, start + k))
            los.append(level_lo)
            his.append(level_hi)
            internal = np.nonzero(level_hi - level_lo > 1)[0]
            left_ids = np.full(k, NO_CHILD, dtype=np.intp)
            right_ids = np.full(k, NO_CHILD, dtype=np.intp)
            if internal.size == 0:
                lefts.append(left_ids)
                rights.append(right_ids)
                break
            # The j-th internal node of this level owns the next level's
            # nodes 2j and 2j+1 — BFS id assignment, vectorized.
            child_base = start + k + 2 * np.arange(internal.size, dtype=np.intp)
            left_ids[internal] = child_base
            right_ids[internal] = child_base + 1
            lefts.append(left_ids)
            rights.append(right_ids)
            parent_lo = level_lo[internal]
            parent_hi = level_hi[internal]
            mid = (parent_lo + parent_hi) // 2
            next_lo = np.empty(2 * internal.size, dtype=np.intp)
            next_hi = np.empty(2 * internal.size, dtype=np.intp)
            next_lo[0::2] = parent_lo
            next_lo[1::2] = mid
            next_hi[0::2] = mid
            next_hi[1::2] = parent_hi
            level_lo, level_hi = next_lo, next_hi
            start += k

        lo_all = np.concatenate(los)
        hi_all = np.concatenate(his)
        left_all = np.concatenate(lefts)
        right_all = np.concatenate(rights)
        del los, his, lefts, rights  # the per-level pieces, now copied
        leaf_mask = left_all == NO_CHILD

        node_weight = np.zeros(lo_all.size)
        node_weight[leaf_mask] = w[lo_all[leaf_mask]]
        # Bottom-up aggregation: one gather-add per level, leaves upward.
        for lvl_start, lvl_end in reversed(level_bounds):
            lchild = left_all[lvl_start:lvl_end]
            has_children = lchild != NO_CHILD
            if has_children.any():
                rchild = right_all[lvl_start:lvl_end]
                level_w = node_weight[lvl_start:lvl_end]
                level_w[has_children] = (
                    node_weight[lchild[has_children]]
                    + node_weight[rchild[has_children]]
                )

        # Routing keys: own key for a leaf, right subtree's smallest key
        # (the span midpoint) for an internal node. Numeric keys gather
        # through the float64 array built during validation; arbitrary
        # orderable key types fall back to a Python gather.
        key_index = np.where(leaf_mask, lo_all, (lo_all + hi_all) // 2)
        if key_arr is not None:
            # Kept as an array: np.float64 is a float subclass, so the
            # node_key() accessor behaves identically without paying an
            # O(m) tolist at build time.
            node_key = key_arr[key_index]
        else:
            keys = self.keys
            node_key = [keys[i] for i in key_index.tolist()]
        leaf_ids = np.nonzero(leaf_mask)[0]
        leaf_node_of = np.empty(n, dtype=np.intp)
        leaf_node_of[lo_all[leaf_mask]] = leaf_ids
        self._adopt(
            node_key,
            level_bounds,
            (left_all, right_all, lo_all, hi_all, node_weight, leaf_node_of, w),
        )

    def _adopt(
        self, node_key: Any, level_bounds: List[Tuple[int, int]], buffers: Sequence[Any]
    ) -> None:
        """Install the buffers, given in :data:`NODE_BUFFERS` order. Both
        builders and a shared-memory attach end here, so every tree binds
        the same memoryviews and, when numpy imports, numpy views."""
        self._node_key = node_key
        self._level_bounds = level_bounds
        views, arrays = kernels.buffer_views(buffers)
        for name, view in zip(_VIEWS, views):
            setattr(self, name, view)
        self._arrays = None if arrays is None else dict(zip(NODE_BUFFERS, arrays))
        self.root = 0

    def __getstate__(self) -> Tuple[Any, ...]:
        # Memoryviews do not pickle: ship the buffers they view.
        buffers = [getattr(self, name).obj for name in _VIEWS]
        return self.keys, self._node_key, self._level_bounds, buffers

    def __setstate__(self, state: Tuple[Any, ...]) -> None:
        self.keys, node_key, level_bounds, buffers = state
        self._adopt(node_key, level_bounds, buffers)

    # ------------------------------------------------------------------
    # basic node accessors
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def node_count(self) -> int:
        """Total number of nodes, ``m = 2n - 1``."""
        return 2 * len(self.keys) - 1

    def is_leaf(self, node: int) -> bool:
        return self._left[node] == NO_CHILD

    def children(self, node: int) -> Tuple[int, int]:
        """(left, right) child ids of an internal node."""
        if self.is_leaf(node):
            raise ValueError(f"node {node} is a leaf")
        return self._left[node], self._right[node]

    def node_key(self, node: int) -> float:
        """Routing key: smallest leaf key in the right subtree (§3.2)."""
        return self._node_key[node]

    def packed_arrays(self) -> Tuple[memoryview, memoryview, memoryview, memoryview]:
        """``(left, right, node_weight, span_lo)`` as memoryviews.

        ``left[u] == NO_CHILD`` iff ``u`` is a leaf, and ``span_lo[u]`` is
        the first sorted-key index below ``u``. Exposed for the scalar
        tree walk, which indexes flat buffers rather than calling per-node
        methods; each view is bound once at build time and yields Python
        ``int`` and ``float`` values. Callers must not write through them.
        """
        return self._left, self._right, self._node_weight, self._lo

    def span_arrays(self) -> Tuple[memoryview, memoryview]:
        """``(span_lo, span_hi)`` as memoryviews over node ids.

        The half-open leaf range of every node, bound once at build time;
        callers must not write through them.
        """
        return self._lo, self._hi

    def numpy_arrays(self) -> Optional[Dict[str, Any]]:
        """The node buffers as numpy arrays, or ``None`` without numpy.

        Keys ``left``, ``right``, ``lo``, ``hi``, ``node_weight``,
        ``leaf_node_of`` (per node id, ``leaf_node_of`` per key index)
        and ``leaf_weight`` (per sorted-key index). These are the buffers
        themselves: the vectorized build's arrays, or zero-copy views of
        the pure-Python build's ``array`` buffers. Callers must not
        mutate them.
        """
        return self._arrays

    def level_bounds(self) -> List[Tuple[int, int]]:
        """Per-level ``(start, end)`` node-id ranges, root level first.

        Node ids are assigned breadth-first, so each tree level is one
        contiguous id interval — the property the packed alias-table
        builder exploits to construct a whole level in one kernel call.
        Callers must not mutate the list.
        """
        return self._level_bounds

    def node_weight(self, node: int) -> float:
        """``w(u)``: total weight of leaf keys in the subtree of ``node``."""
        return self._node_weight[node]

    def leaf_span(self, node: int) -> Tuple[int, int]:
        """Half-open range of sorted-key indices stored below ``node``."""
        return self._lo[node], self._hi[node]

    def subtree_size(self, node: int) -> int:
        return self._hi[node] - self._lo[node]

    def leaf_node(self, key_index: int) -> int:
        """Node id of the leaf storing the ``key_index``-th smallest key."""
        return self._leaf_node_of[key_index]

    def height(self) -> int:
        """Tree height (edges on the longest root-leaf path)."""
        best = 0
        stack = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            if self.is_leaf(node):
                best = max(best, depth)
            else:
                stack.append((self._left[node], depth + 1))
                stack.append((self._right[node], depth + 1))
        return best

    def iter_nodes(self) -> Iterator[int]:
        return iter(range(self.node_count))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def range_leaf_indices(self, x: float, y: float) -> Tuple[int, int]:
        """Half-open index range of keys falling in ``[x, y]``."""
        if x > y:
            return 0, 0
        return bisect_left(self.keys, x), bisect_right(self.keys, y)

    def canonical_nodes(self, x: float, y: float) -> List[int]:
        """The cover ``C_q`` of ``q = [x, y]``: ``O(log n)`` disjoint nodes.

        The subtrees of the returned nodes partition ``S ∩ [x, y]``
        (Figure 1 of the paper). Returns ``[]`` for an empty range.
        """
        lo, hi = self.range_leaf_indices(x, y)
        return self.canonical_nodes_for_span(lo, hi)

    def canonical_nodes_for_span(self, lo: int, hi: int) -> List[int]:
        """Canonical nodes covering the sorted-key index range ``[lo, hi)``."""
        if lo >= hi:
            return []
        result: List[int] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            node_lo, node_hi = self._lo[node], self._hi[node]
            if node_hi <= lo or hi <= node_lo:
                continue
            if lo <= node_lo and node_hi <= hi:
                result.append(node)
                continue
            stack.append(self._right[node])
            stack.append(self._left[node])
        if obs.ENABLED:
            _BST_COVERS.inc()
            _BST_COVER_NODES.add(len(result))
        return result

    def report(self, x: float, y: float) -> List[float]:
        """Classic range reporting: all keys in ``[x, y]``, sorted."""
        lo, hi = self.range_leaf_indices(x, y)
        return self.keys[lo:hi]

    def count(self, x: float, y: float) -> int:
        """Number of keys in ``[x, y]`` in O(log n)."""
        lo, hi = self.range_leaf_indices(x, y)
        return hi - lo

    def range_weight(self, x: float, y: float) -> float:
        """Total weight of keys in ``[x, y]`` via the canonical nodes."""
        return sum(self._node_weight[u] for u in self.canonical_nodes(x, y))
