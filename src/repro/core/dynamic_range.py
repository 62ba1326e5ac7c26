"""Dynamic weighted range sampling (§4.3 remark + Direction 1).

Hu et al. [18] showed their range-sampling structure supports insertions
and deletions in ``O(log n)`` time (for WR sampling); the paper contrasts
this with the static Theorem-3 structure, whose alias tables resist
dynamization. This module provides the dynamic counterpart for general
weighted sampling:

* a *treap* (randomised balanced BST) over the keys, augmented with
  subtree weights — ``O(log n)`` expected insert/delete/update;
* range queries decompose into ``O(log n)`` canonical subtrees exactly as
  in §3.2, a node is drawn from the cover by cumulative weight, and a
  top-down weighted walk (§3.2 tree sampling, with internal nodes also
  carrying their own element) delivers each sample in ``O(log n)``
  expected time.

Query time is ``O((1 + s) log n)`` expected — the §3.2 bound, a log
factor off Theorem 3's static optimum, which is precisely the trade the
paper describes (fast updates vs. the un-dynamizable alias structure).

Every update is one pass: one descent from the root along the key's
search path, one local step, and one bottom-up recomputation of
``subtree_weight`` and ``size`` over the path (:func:`_pull_path`).
Insert's local step splits only the subtree the new node displaces (an
expected O(1) split); delete's merges the deleted node's two children.
A treap is the unique Cartesian tree of its (key, priority) pairs, and
each subtree weight is recomputed from its children in ``_pull``'s order,
never by adding a delta (``old + w`` rounds differently, and the walk
compares against these sums). So for distinct priorities the result is,
node for node and sum for sum, the treap that splitting the whole treap
and merging it back leaves, and every draw is the same. Priorities are
53-bit floats, equal with probability about N²/2^54; split and merge can
then reorder the tied nodes on their path, while the one-pass form
leaves ancestors in place. Both are valid treaps with the same sampling
law.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Generic, List, Optional, Tuple, TypeVar

from repro.core.planner import QueryPlan
from repro.engine.protocol import EngineOp, RangeQueryMixin
from repro.errors import BuildError, EmptyQueryError, InvalidWeightError
from repro.substrates.rng import RNGLike, ensure_rng
from repro.validation import validate_sample_size

K = TypeVar("K")


class _Node(float):
    """A treap node whose float value is its heap priority.

    Holding the priority inline saves a separate float object per node
    (about 1 MiB at n = 2^15). Nodes compare by priority, so test them
    against ``None``, never for truth or equality.
    """

    __slots__ = ("key", "weight", "left", "right", "subtree_weight", "size")

    def __new__(cls, key, weight: float, priority: float) -> "_Node":
        node = super().__new__(cls, priority)
        node.key = key
        node.weight = weight
        node.left = None
        node.right = None
        node.subtree_weight = weight
        node.size = 1
        return node


def _pull(node: _Node) -> None:
    node.subtree_weight = node.weight
    node.size = 1
    if node.left is not None:
        node.subtree_weight += node.left.subtree_weight
        node.size += node.left.size
    if node.right is not None:
        node.subtree_weight += node.right.subtree_weight
        node.size += node.right.size


def _pull_path(path: List[_Node]) -> None:
    """:func:`_pull` each node of a root path, deepest first.

    The loop is ``_pull`` inlined: each sum is ``weight``, then the left
    child's sum, then the right's, exactly as ``_pull`` forms it.
    """
    for node in reversed(path):
        total = node.weight
        size = 1
        child = node.left
        if child is not None:
            total += child.subtree_weight
            size += child.size
        child = node.right
        if child is not None:
            total += child.subtree_weight
            size += child.size
        node.subtree_weight = total
        node.size = size


def _merge(left: Optional[_Node], right: Optional[_Node]) -> Optional[_Node]:
    if left is None:
        return right
    if right is None:
        return left
    if left > right:  # the higher priority stays on top
        left.right = _merge(left.right, right)
        _pull(left)
        return left
    right.left = _merge(left, right.left)
    _pull(right)
    return right


def _split(node: Optional[_Node], key, *, include_key_left: bool) -> Tuple[Optional[_Node], Optional[_Node]]:
    """Split by key: left gets keys < key (or <= key when inclusive)."""
    if node is None:
        return None, None
    goes_left = node.key <= key if include_key_left else node.key < key
    if goes_left:
        left, right = _split(node.right, key, include_key_left=include_key_left)
        node.right = left
        _pull(node)
        return node, right
    left, right = _split(node.left, key, include_key_left=include_key_left)
    node.left = right
    _pull(node)
    return left, node


class DynamicRangeSampler(RangeQueryMixin, Generic[K]):
    """Treap-backed weighted range sampling with O(log n) updates."""

    # A query only reads the treap; updates are direct calls, never
    # engine ops, so concurrent engine reads need no lock.
    engine_ops = {
        "sample": EngineOp("sample", takes_s=True, spawn=True),
    }
    engine_thread_safe = True

    plan_kind = "dynamic"

    def __init__(self, rng: RNGLike = None):
        self._rng = ensure_rng(rng)
        self._root: Optional[_Node] = None

    def __len__(self) -> int:
        return self._root.size if self._root is not None else 0

    @property
    def total_weight(self) -> float:
        return self._root.subtree_weight if self._root is not None else 0.0

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def insert(self, key: K, weight: float = 1.0) -> None:
        """Insert a key with a positive weight; O(log n) expected.

        Raises on duplicate keys (the §3.2 BST stores distinct keys; use
        :meth:`update_weight` to change an existing element) and on keys
        not equal to themselves (NaN), which no search could find again.
        A rejected insert draws no priority and changes nothing.

        One descent records the key's search path. The new node goes
        below the last path node that stays above it by ``_merge``'s rule
        (a higher priority, or an equal one with a larger key), only the
        subtree it displaces is split under it, and the path above is
        recomputed: for distinct priorities, node for node the treap a
        whole-treap split at ``key`` and two merges leave (ties: see the
        module docstring).
        """
        value = float(weight)
        if not value > 0 or value != value or value == float("inf"):
            raise InvalidWeightError(f"weight must be positive and finite, got {weight!r}")
        if key != key:
            raise BuildError(f"key {key!r} is not equal to itself")
        path: List[_Node] = []
        node = self._root
        while node is not None:
            if key == node.key:
                raise BuildError(f"key {key!r} already present; use update_weight()")
            path.append(node)
            node = node.left if key < node.key else node.right
        new = _Node(key, value, self._rng.random())
        for depth, node in enumerate(path):
            if node < new or (node == new and node.key < key):
                new.left, new.right = _split(node, key, include_key_left=False)
                _pull(new)
                del path[depth:]
                break
        self._replace_child(path, key, new)

    def delete(self, key: K) -> None:
        """Remove a key; O(log n) expected. KeyError if absent.

        One descent to the key; its node is replaced by the merge of its
        two children and the path above is recomputed: for distinct
        priorities, node for node the treap that splitting out the key
        and merging the two sides leaves (ties: see the module docstring).
        """
        path: List[_Node] = []
        node = self._root
        while node is not None:
            if key == node.key:
                self._replace_child(path, key, _merge(node.left, node.right))
                return
            path.append(node)
            node = node.left if key < node.key else node.right
        raise KeyError(f"key {key!r} not present")

    def update_weight(self, key: K, weight: float) -> None:
        """Change a key's weight in place; O(log n)."""
        value = float(weight)
        if not value > 0 or value != value or value == float("inf"):
            raise InvalidWeightError(f"weight must be positive and finite, got {weight!r}")
        path: List[_Node] = []
        node = self._root
        while node is not None:
            path.append(node)
            if key == node.key:
                node.weight = value
                _pull_path(path)
                return
            node = node.left if key < node.key else node.right
        raise KeyError(f"key {key!r} not present")

    def _replace_child(self, path: List[_Node], key: K, child: Optional[_Node]) -> None:
        """Hang ``child`` where ``key``'s search leaves ``path``, then
        recompute the path (the root when ``path`` is empty)."""
        if not path:
            self._root = child
            return
        parent = path[-1]
        if key < parent.key:
            parent.left = child
        else:
            parent.right = child
        _pull_path(path)

    def _find(self, key: K) -> Optional[_Node]:
        node = self._root
        while node is not None:
            if key == node.key:
                return node
            node = node.left if key < node.key else node.right
        return None

    def __contains__(self, key: K) -> bool:
        return self._find(key) is not None

    def weight_of(self, key: K) -> float:
        node = self._find(key)
        if node is None:
            raise KeyError(f"key {key!r} not present")
        return node.weight

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def _canonical_subtrees(self, x: K, y: K) -> List[Tuple[_Node, bool]]:
        """Cover of [x, y]: maximal subtrees + on-path single nodes.

        Returns (node, whole_subtree) pairs: ``whole_subtree`` selects the
        node's entire subtree, else only the node's own element. O(log n)
        entries, collected along the two boundary search paths.
        """
        cover: List[Tuple[_Node, bool]] = []
        # Pre-order (node, then left, then right subtree): right is pushed
        # before left. lo_open: the subtree may hold keys < x; hi_open: > y.
        stack: List[Tuple[Optional[_Node], bool, bool]] = [(self._root, True, True)]
        while stack:
            node, lo_open, hi_open = stack.pop()
            if node is None:
                continue
            if not lo_open and not hi_open:
                cover.append((node, True))
                continue
            key_in = (x <= node.key) and (node.key <= y)
            if node.key < x:
                stack.append((node.right, lo_open, hi_open))
                continue
            if node.key > y:
                stack.append((node.left, lo_open, hi_open))
                continue
            # node.key inside the range: both sides may contribute.
            if key_in:
                cover.append((node, False))
            stack.append((node.right, False, hi_open))
            stack.append((node.left, lo_open, False))
        return cover

    def count(self, x: K, y: K) -> int:
        """|S ∩ [x, y]| in O(log n)."""
        return sum(
            node.size if whole else 1 for node, whole in self._canonical_subtrees(x, y)
        )

    def range_weight(self, x: K, y: K) -> float:
        return sum(
            node.subtree_weight if whole else node.weight
            for node, whole in self._canonical_subtrees(x, y)
        )

    def _walk(self, node: _Node, rng: RNGLike) -> K:
        """Weighted top-down walk; internal nodes carry their own element."""
        while True:
            target = rng.random() * node.subtree_weight
            if node.left is not None:
                if target < node.left.subtree_weight:
                    node = node.left
                    continue
                target -= node.left.subtree_weight
            if target < node.weight:
                return node.key
            if node.right is None:  # float rounding at the boundary
                return node.key
            node = node.right

    def plan_range(self, x: K, y: K) -> QueryPlan:
        """The query plan for ``[x, y]`` — built per call, never cached.

        The treap mutates under ``insert``/``delete``/``update_weight``
        and the plan's payload holds live node references, so a cached
        plan could dangle after any update; the dynamic path therefore
        plans fresh each query (still randomness-free — all randomness
        is spent in :meth:`execute_plan`).
        """
        cover = self._canonical_subtrees(x, y)
        cumulative: List[float] = []
        weights: List[float] = []
        running = 0.0
        for node, whole in cover:
            weight = node.subtree_weight if whole else node.weight
            weights.append(weight)
            running += weight
            cumulative.append(running)
        return QueryPlan(
            self.plan_kind,
            (x, y),
            spans=None,  # treap subtrees have no positional index spans
            weights=tuple(weights),
            payload=(cover, cumulative, running),
        )

    def plan_request(self, request) -> QueryPlan:
        """Plan an engine request without executing draws (--explain)."""
        self.validate_request(request)
        x, y = request.args
        plan = self.plan_range(x, y)
        if not plan.payload[0]:
            raise EmptyQueryError(f"no keys in [{x!r}, {y!r}]")
        return plan

    def execute_plan(self, plan: QueryPlan, s: int, *, rng: RNGLike = None) -> List[K]:
        """Draw ``s`` samples from a plan (all randomness spent here,
        from ``rng`` or else the instance stream)."""
        cover, cumulative, running = plan.payload
        rng = self._rng if rng is None else ensure_rng(rng)
        result: List[K] = []
        for _ in range(s):
            target = rng.random() * running
            index = bisect_right(cumulative, target)
            if index == len(cover):
                index -= 1
            node, whole = cover[index]
            result.append(self._walk(node, rng) if whole else node.key)
        return result

    def sample(self, x: K, y: K, s: int, *, rng: RNGLike = None) -> List[K]:
        """``s`` independent weighted samples from ``S ∩ [x, y]``.

        O((1 + s) log n) expected; outputs of all queries are mutually
        independent, and stay so across arbitrary interleaved updates.
        ``rng`` overrides the instance stream for this call.
        """
        validate_sample_size(s)
        plan = self.plan_range(x, y)
        if not plan.payload[0]:
            raise EmptyQueryError(f"no keys in [{x!r}, {y!r}]")
        return self.execute_plan(plan, s, rng=rng)

    def keys_in_order(self) -> List[K]:
        """In-order key listing (testing helper)."""
        out: List[K] = []

        def walk(node: Optional[_Node]) -> None:
            if node is None:
                return
            walk(node.left)
            out.append(node.key)
            walk(node.right)

        walk(self._root)
        return out
