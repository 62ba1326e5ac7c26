"""Property-based tests: treap range sampler vs a sorted-list reference,
and its one-pass updates vs whole-treap split and merge."""

import itertools
import random
from bisect import bisect_left, bisect_right, insort

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamic_range import DynamicRangeSampler, _merge, _Node, _pull, _split
from repro.errors import BuildError, EmptyQueryError, InvalidWeightError

operations_strategy = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "query"]),
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=200),
    ),
    min_size=1,
    max_size=80,
)


@given(operations=operations_strategy)
@settings(max_examples=200, deadline=None)
def test_treap_matches_sorted_list_reference(operations):
    sampler = DynamicRangeSampler(rng=9)
    reference = []  # sorted list of keys
    for kind, key_raw, width in operations:
        key = float(key_raw)
        if kind == "insert":
            if key not in reference:
                sampler.insert(key, 1.0 + (key_raw % 7))
                insort(reference, key)
        elif kind == "delete":
            if reference:
                victim = reference[key_raw % len(reference)]
                sampler.delete(victim)
                reference.remove(victim)
        else:
            x, y = key, key + width
            expected = bisect_right(reference, y) - bisect_left(reference, x)
            if reference:
                assert sampler.count(x, y) == expected
            if expected == 0 and len(sampler):
                with pytest.raises(EmptyQueryError):
                    sampler.sample(x, y, 1)
            elif expected > 0:
                for value in sampler.sample(x, y, 3):
                    assert x <= value <= y
    assert sampler.keys_in_order() == reference
    assert len(sampler) == len(reference)


@given(
    keys=st.sets(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=100),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=100, deadline=None)
def test_treap_weight_invariant(keys, seed):
    sampler = DynamicRangeSampler(rng=seed)
    total = 0.0
    for key in keys:
        weight = 1.0 + (key % 13)
        sampler.insert(float(key), weight)
        total += weight
    assert sampler.total_weight == pytest.approx(total)
    assert sampler.range_weight(float(min(keys)), float(max(keys))) == pytest.approx(total)


class SplitMergeReference(DynamicRangeSampler):
    """Updates as whole-treap split and merge, with one ``_pull`` per
    ancestor in ``update_weight``: the form the one-pass updates replace."""

    def insert(self, key, weight=1.0):
        value = float(weight)
        if not value > 0 or value != value or value == float("inf"):
            raise InvalidWeightError(f"weight must be positive and finite, got {weight!r}")
        if self._find(key) is not None:
            raise BuildError(f"key {key!r} already present")
        node = _Node(key, value, self._rng.random())
        left, right = _split(self._root, key, include_key_left=False)
        self._root = _merge(_merge(left, node), right)

    def delete(self, key):
        left, rest = _split(self._root, key, include_key_left=False)
        match, right = _split(rest, key, include_key_left=True)
        self._root = _merge(left, right)
        if match is None:
            raise KeyError(key)

    def update_weight(self, key, weight):
        path = []
        node = self._root
        while node is not None:
            path.append(node)
            if key == node.key:
                node.weight = float(weight)
                for ancestor in reversed(path):
                    _pull(ancestor)
                return
            node = node.left if key < node.key else node.right
        raise KeyError(key)


def preorder(sampler):
    """(key, priority, weight, subtree_weight, size) of every node, pre-order."""
    out = []
    stack = [sampler._root]
    while stack:
        node = stack.pop()
        if node is None:
            continue
        out.append((node.key, float(node), node.weight, node.subtree_weight, node.size))
        stack.append(node.right)
        stack.append(node.left)
    return out


# Non-integer weights: a pass that added the change to each ancestor's
# sum, instead of recomputing it from the children, would round apart.
weights_strategy = st.floats(min_value=0.01, max_value=50.0, allow_nan=False)

# "reject" rows make a call that must raise: a duplicate key, a bad weight,
# a NaN key, or a missing key for delete or update_weight.
update_ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["insert", "insert", "delete", "update", "reject"]),
        st.integers(min_value=0, max_value=400),
        weights_strategy,
    ),
    min_size=1,
    max_size=120,
)

BAD_WEIGHTS = (0.0, -1.0, float("nan"), float("inf"))


def apply_updates(subject, operations, reference=None):
    """Run ``operations`` on ``subject`` (and the accepted ones on
    ``reference``); return the live keys and their weights."""
    live = {}
    order = []
    for kind, raw, weight in operations:
        key = raw / 4 + 0.125
        if kind == "reject":
            bad = BAD_WEIGHTS[raw % len(BAD_WEIGHTS)]
            absent = -1.0 - raw
            rejected = [
                (BuildError, "insert", float("nan"), weight),
                (InvalidWeightError, "insert", key, bad),
                (KeyError, "delete", absent),
                (KeyError, "update_weight", absent, weight),
            ]
            if order:
                present = order[raw % len(order)]
                rejected.append((BuildError, "insert", present, weight))
                rejected.append((InvalidWeightError, "update_weight", present, bad))
            error, name, *args = rejected[raw % len(rejected)]
            before = preorder(subject)
            with pytest.raises(error):
                getattr(subject, name)(*args)
            assert preorder(subject) == before
            continue
        if kind == "insert" and key not in live:
            name, args = "insert", (key, weight)
            live[key] = weight
            order.append(key)
        elif kind == "delete" and order:
            key = order.pop(raw % len(order))
            name, args = "delete", (key,)
            del live[key]
        elif kind == "update" and order:
            key = order[raw % len(order)]
            name, args = "update_weight", (key, weight)
            live[key] = weight
        else:
            continue
        getattr(subject, name)(*args)
        if reference is not None:
            getattr(reference, name)(*args)
    return live


@given(operations=update_ops_strategy, seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=200, deadline=None)
def test_one_pass_updates_match_split_merge(operations, seed):
    subject = DynamicRangeSampler(rng=seed)
    reference = SplitMergeReference(rng=seed)
    live = apply_updates(subject, operations, reference)
    # Rejected calls drew no priority: both streams are at the same place.
    assert subject._rng.getstate() == reference._rng.getstate()
    assert preorder(subject) == preorder(reference)
    assert subject.keys_in_order() == sorted(live)
    if live:
        lo, hi = min(live), max(live)
        assert subject.sample(lo, hi, 64, rng=seed) == reference.sample(lo, hi, 64, rng=seed)


class RepeatingPriorities(random.Random):
    """A stream whose ``random()`` cycles through a few values, so that
    equal priorities are the rule rather than a 2^-53 event."""

    def __init__(self, values):
        super().__init__(0)
        self._values = itertools.cycle(values)

    def random(self):
        return next(self._values)


def check_treap(node, lo=None, hi=None):
    """Assert BST order, non-strict heap order and exact sums and sizes
    below ``node``; return its subtree's in-order keys."""
    if node is None:
        return []
    assert (lo is None or lo < node.key) and (hi is None or node.key < hi)
    total, size = node.weight, 1
    for child in (node.left, node.right):
        if child is not None:
            assert float(child) <= float(node)
            total += child.subtree_weight
            size += child.size
    assert node.subtree_weight == total
    assert node.size == size
    return check_treap(node.left, lo, node.key) + [node.key] + check_treap(node.right, node.key, hi)


def test_equal_priority_placement_follows_merge():
    # An equal-priority node with a smaller key goes below the new node and
    # one with a larger key stays above it, where ``_merge`` puts them.
    subject = DynamicRangeSampler(rng=RepeatingPriorities([0.5]))
    reference = SplitMergeReference(rng=RepeatingPriorities([0.5]))
    for key in (2.0, 1.0, 3.0):
        subject.insert(key)
        reference.insert(key)
    root = subject._root
    assert (root.key, root.left.key, root.left.left.key) == (3.0, 2.0, 1.0)
    assert preorder(subject) == preorder(reference)


@given(
    operations=update_ops_strategy,
    priorities=st.lists(st.sampled_from([0.25, 0.5, 0.75]), min_size=1, max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_tied_priorities_keep_treap_invariants(operations, priorities):
    sampler = DynamicRangeSampler(rng=RepeatingPriorities(priorities))
    live = apply_updates(sampler, operations)
    assert check_treap(sampler._root) == sorted(live)
    assert len(sampler) == len(live)
    for key, weight in live.items():
        assert sampler.weight_of(key) == weight
