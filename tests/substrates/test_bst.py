"""Unit tests for the §3.2 BST, including the Figure-1 canonical nodes."""

import pickle

import pytest

from repro.errors import BuildError, InvalidWeightError
from repro.substrates.bst import StaticBST


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(BuildError):
            StaticBST([])

    def test_unsorted_rejected(self):
        with pytest.raises(BuildError):
            StaticBST([2.0, 1.0])

    def test_duplicates_rejected(self):
        with pytest.raises(BuildError):
            StaticBST([1.0, 1.0])

    def test_bad_weights_rejected(self):
        with pytest.raises(InvalidWeightError):
            StaticBST([1.0], [0.0])

    def test_node_count(self):
        tree = StaticBST([float(i) for i in range(17)])
        assert tree.node_count == 2 * 17 - 1

    def test_singleton_tree(self):
        tree = StaticBST([5.0])
        assert tree.is_leaf(tree.root)
        assert tree.node_weight(tree.root) == 1.0


class TestConventions:
    """The four §3.2 structural conventions."""

    def test_height_logarithmic(self):
        n = 1 << 10
        tree = StaticBST([float(i) for i in range(n)])
        assert tree.height() <= 11

    def test_every_internal_node_has_two_children(self):
        tree = StaticBST([float(i) for i in range(13)])
        for node in tree.iter_nodes():
            if not tree.is_leaf(node):
                left, right = tree.children(node)
                assert left >= 0 and right >= 0

    def test_left_keys_below_right_keys(self):
        tree = StaticBST([float(i) for i in range(13)])
        for node in tree.iter_nodes():
            if tree.is_leaf(node):
                continue
            left, right = tree.children(node)
            left_lo, left_hi = tree.leaf_span(left)
            right_lo, right_hi = tree.leaf_span(right)
            assert max(tree.keys[left_lo:left_hi]) < min(tree.keys[right_lo:right_hi])

    def test_internal_key_is_min_of_right_subtree(self):
        tree = StaticBST([float(i) for i in range(13)])
        for node in tree.iter_nodes():
            if tree.is_leaf(node):
                continue
            _, right = tree.children(node)
            right_lo, _ = tree.leaf_span(right)
            assert tree.node_key(node) == tree.keys[right_lo]

    def test_weights_aggregate_bottom_up(self):
        weights = [float(i + 1) for i in range(9)]
        tree = StaticBST([float(i) for i in range(9)], weights)
        for node in tree.iter_nodes():
            lo, hi = tree.leaf_span(node)
            assert tree.node_weight(node) == pytest.approx(sum(weights[lo:hi]))


class TestCanonicalNodes:
    """Figure 1: the canonical cover of a query interval."""

    def test_cover_partitions_result(self):
        tree = StaticBST([float(i) for i in range(100)])
        cover = tree.canonical_nodes(13.0, 77.0)
        covered = []
        for node in cover:
            lo, hi = tree.leaf_span(node)
            covered.extend(range(lo, hi))
        assert sorted(covered) == list(range(13, 78))
        assert len(covered) == len(set(covered))  # disjoint subtrees

    def test_cover_size_logarithmic(self):
        n = 1 << 12
        tree = StaticBST([float(i) for i in range(n)])
        for query in [(0.0, n - 1.0), (1.0, n - 2.0), (100.0, 3000.0)]:
            assert len(tree.canonical_nodes(*query)) <= 2 * 12

    def test_empty_query(self):
        tree = StaticBST([1.0, 2.0, 3.0])
        assert tree.canonical_nodes(10.0, 20.0) == []
        assert tree.canonical_nodes(5.0, 4.0) == []

    def test_whole_tree_is_single_canonical_node(self):
        tree = StaticBST([float(i) for i in range(16)])
        cover = tree.canonical_nodes(0.0, 15.0)
        assert cover == [tree.root]

    def test_single_element_query(self):
        tree = StaticBST([float(i) for i in range(16)])
        cover = tree.canonical_nodes(7.0, 7.0)
        assert len(cover) == 1
        assert tree.is_leaf(cover[0])
        assert tree.leaf_span(cover[0]) == (7, 8)

    def test_cover_ordered_left_to_right(self):
        tree = StaticBST([float(i) for i in range(64)])
        cover = tree.canonical_nodes(3.0, 60.0)
        spans = [tree.leaf_span(node) for node in cover]
        assert spans == sorted(spans)

    def test_figure1_example_shape(self):
        # A 16-leaf perfectly balanced tree; query [1, 14] must decompose
        # into maximal subtrees: {1}, {2,3}, {4..7}, {8..11}, {12,13}, {14}.
        tree = StaticBST([float(i) for i in range(16)])
        cover = tree.canonical_nodes(1.0, 14.0)
        spans = [tree.leaf_span(node) for node in cover]
        assert spans == [(1, 2), (2, 4), (4, 8), (8, 12), (12, 14), (14, 15)]


class TestQueries:
    def test_report(self):
        tree = StaticBST([1.0, 3.0, 5.0, 7.0])
        assert tree.report(2.0, 6.0) == [3.0, 5.0]

    def test_count(self):
        tree = StaticBST([float(i) for i in range(50)])
        assert tree.count(10.0, 19.5) == 10

    def test_range_weight(self):
        tree = StaticBST([1.0, 2.0, 3.0], [10.0, 20.0, 30.0])
        assert tree.range_weight(1.5, 3.0) == pytest.approx(50.0)

    def test_leaf_node_lookup(self):
        tree = StaticBST([float(i) for i in range(8)])
        for index in range(8):
            leaf = tree.leaf_node(index)
            assert tree.is_leaf(leaf)
            assert tree.leaf_span(leaf) == (index, index + 1)


class TestStorage:
    # n = 40 takes the pure-Python builder, n = 400 the vectorized one
    # where numpy is on.
    @pytest.mark.parametrize("n", [40, 400])
    def test_views_yield_python_scalars(self, n):
        tree = StaticBST([float(i) for i in range(n)], [1.0 + i % 9 for i in range(n)])
        left, right, node_weight, span_lo = tree.packed_arrays()
        assert {type(left[0]), type(right[0]), type(span_lo[0])} == {int}
        assert type(node_weight[0]) is float and type(tree.weights[0]) is float
        assert list(tree.weights) == [1.0 + i % 9 for i in range(n)]

    @pytest.mark.parametrize("n", [40, 400])
    def test_pickle_round_trip(self, n):
        tree = StaticBST([float(i) for i in range(n)], [1.0 + i % 9 for i in range(n)])
        clone = pickle.loads(pickle.dumps(tree))
        assert clone.canonical_nodes(3.0, n - 5.0) == tree.canonical_nodes(3.0, n - 5.0)
        assert clone.range_weight(3.0, n - 5.0) == tree.range_weight(3.0, n - 5.0)
        assert list(clone.weights) == list(tree.weights)
        assert clone.level_bounds() == tree.level_bounds()
