"""Correctness harness for the vectorized *construction* kernels (PR 2).

The batch sampling kernels have their own harness
(``test_batch_kernels.py``); this module covers the table *builders*:

1. **Exactness** — an alias table encodes a distribution exactly: urn
   ``i`` keeps its element with probability ``prob[i]`` and otherwise
   yields ``alias[i]``, so the implied mass of element ``j`` is
   ``prob[j] + Σ_{alias[i]=j} (1 - prob[i])``. For every builder and
   every adversarial weight family, the implied distribution must match
   the normalized weights to within a few ulps — the vectorized
   multi-pass construction is not allowed to be "approximately Vose".
2. **Scalar/batch construction equivalence** — tables built by the
   scalar stack algorithm and by the vectorized kernels are different
   encodings of the same distribution; chi-square tests of draws through
   both must accept the common target (near-zero, one-dominant, and
   all-equal weights included, per the PR checklist).
3. **Structure-level dispatch** — samplers built under the numpy path
   and under the forced scalar fallback lay out per-node tables with
   identical implied distributions.
"""

import random

import pytest

np = pytest.importorskip("numpy")

from repro.core import kernels
from repro.core.alias import alias_draw, build_alias_tables
from repro.core.range_sampler import AliasAugmentedRangeSampler
from repro.stats.tests import chi_square_weighted_pvalue

ALPHA = 1e-6
DRAWS = 20_000

# Adversarial weight families from the PR checklist: values that stress
# the scaled-mass partition (everything lands on one side of 1), the
# donation cascade (a single donor feeds every urn), and rounding.
FAMILIES = {
    "all_equal": [3.25] * 96,
    "near_zero": [1e-300] * 12 + [1.0] * 84,
    "one_dominant": [1e9] + [1e-9] * 95,
    "two_scales": [1e6, 1e-6] * 48,
    "ramp": [1.0 + i for i in range(96)],
    "random": [random.Random(5).random() + 1e-3 for _ in range(96)],
}


def implied_distribution(prob, alias):
    """Element masses encoded by an urn table, summing to ``len(prob)``."""
    prob = np.asarray(prob, dtype=np.float64)
    alias = np.asarray(alias, dtype=np.intp)
    implied = prob.copy()
    np.add.at(implied, alias, 1.0 - prob)
    return implied


def assert_encodes(prob, alias, weights, tol=1e-9):
    weights = np.asarray(weights, dtype=np.float64)
    got = implied_distribution(prob, alias) / len(weights)
    want = weights / weights.sum()
    assert np.abs(got - want).max() <= tol


# ----------------------------------------------------------------------
# 1. exactness, builder by builder
# ----------------------------------------------------------------------


class TestBatchBuildExactness:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_families(self, family):
        weights = FAMILIES[family]
        prob, alias = kernels.build_alias_tables_batch(weights)
        assert ((alias >= 0) & (alias < len(weights))).all()
        assert_encodes(prob, alias, weights)

    def test_large_instance_matches_scalar_distribution(self):
        rnd = random.Random(9)
        weights = [rnd.random() + 1e-6 for _ in range(5000)]
        batch = kernels.build_alias_tables_batch(weights)
        scalar = build_alias_tables(weights)
        assert_encodes(*batch, weights)
        assert_encodes(*scalar, weights)


class TestFlatBuildExactness:
    def check(self, values, lengths, tol=1e-9):
        values = np.asarray(values, dtype=np.float64)
        lengths = np.asarray(lengths, dtype=np.intp)
        prob, alias = kernels.build_alias_tables_flat(values, lengths)
        assert prob.shape == values.shape and alias.shape == values.shape
        start = 0
        for size in lengths:
            if size == 0:
                continue
            seg_prob = prob[start : start + size]
            seg_alias = alias[start : start + size]
            # Aliases are segment-local: a table slice is self-contained.
            assert ((seg_alias >= 0) & (seg_alias < size)).all()
            assert_encodes(seg_prob, seg_alias, values[start : start + size], tol)
            start += size

    def test_ragged_mixed_families(self):
        values = [w for family in sorted(FAMILIES) for w in FAMILIES[family]]
        lengths = [len(FAMILIES[family]) for family in sorted(FAMILIES)]
        self.check(values, lengths)

    def test_zero_length_segments_are_skipped(self):
        self.check([2.0, 1.0, 5.0, 3.0, 3.0], [2, 0, 3, 0])

    def test_many_narrow_segments(self):
        rnd = random.Random(11)
        values = [rnd.random() + 0.01 for _ in range(2 * 700)]
        self.check(values, [2] * 700)

    def test_wide_and_narrow_interleaved(self):
        # Exercises the shared-tape donor assignment across segments whose
        # pass counts differ wildly (the cross-segment repair path).
        rnd = random.Random(12)
        lengths = [1, 500, 2, 3, 1000, 2, 64, 2]
        values = [rnd.random() + 1e-4 for _ in range(sum(lengths))]
        self.check(values, lengths)

    def test_segment_with_nonfinite_free_zero_total_degenerates(self):
        # A zero-total segment cannot encode a distribution; the builder
        # degenerates it to full urns instead of dividing by zero.
        prob, alias = kernels.build_alias_tables_flat(
            np.array([0.0, 0.0, 1.0, 3.0]), np.array([2, 2])
        )
        assert prob[:2].tolist() == [1.0, 1.0]
        assert alias[:2].tolist() == [0, 1]
        assert_encodes(prob[2:], alias[2:], [1.0, 3.0])

    def test_lengths_must_sum(self):
        with pytest.raises(ValueError):
            kernels.build_alias_tables_flat(np.ones(4), np.array([2, 3]))


class TestPackedBuildExactness:
    def test_padded_rows_match_per_row_tables(self):
        rnd = random.Random(13)
        lengths = [3, 96, 17, 1, 40]
        width = max(lengths)
        matrix = np.zeros((len(lengths), width))
        rows = []
        for r, size in enumerate(lengths):
            row = [rnd.random() + 1e-3 for _ in range(size)]
            matrix[r, :size] = row
            rows.append(row)
        prob, alias = kernels.build_alias_tables_packed(matrix, lengths)
        assert prob.shape == matrix.shape and alias.shape == matrix.shape
        for r, row in enumerate(rows):
            size = lengths[r]
            assert ((alias[r, :size] >= 0) & (alias[r, :size] < size)).all()
            assert_encodes(prob[r, :size], alias[r, :size], row)

    def test_single_row_fast_path(self):
        weights = FAMILIES["random"]
        matrix = np.asarray([weights])
        prob, alias = kernels.build_alias_tables_packed(matrix, [len(weights)])
        assert_encodes(prob[0], alias[0], weights)


# ----------------------------------------------------------------------
# 2. chi-square scalar/batch construction equivalence
# ----------------------------------------------------------------------


@pytest.mark.parametrize("family", ["near_zero", "one_dominant", "all_equal"])
class TestConstructionEquivalence:
    def target(self, weights):
        total = sum(weights)
        return {
            i: w for i, w in enumerate(weights) if w / total > 1e-12
        }

    def test_scalar_and_batch_tables_draw_same_distribution(self, family):
        weights = FAMILIES[family]
        target = self.target(weights)

        scalar_prob, scalar_alias = build_alias_tables(weights)
        rng = random.Random(101)
        scalar_draws = [
            alias_draw(scalar_prob, scalar_alias, rng) for _ in range(DRAWS)
        ]
        scalar_draws = [d for d in scalar_draws if d in target]
        assert chi_square_weighted_pvalue(scalar_draws, target) > ALPHA

        batch_prob, batch_alias = kernels.build_alias_tables_batch(weights)
        gen = np.random.default_rng(102)
        batch_draws = kernels.alias_draw_batch(batch_prob, batch_alias, DRAWS, gen)
        batch_draws = [int(d) for d in batch_draws if int(d) in target]
        assert chi_square_weighted_pvalue(batch_draws, target) > ALPHA


# ----------------------------------------------------------------------
# 3. structure-level dispatch equivalence
# ----------------------------------------------------------------------


@pytest.mark.skipif(
    not kernels.HAVE_NUMPY,
    reason="numpy dispatch disabled (REPRO_DISABLE_NUMPY) — no batch path to compare",
)
class TestStructureDispatchEquivalence:
    N = 96  # >= BUILD_MIN_SIZE so the numpy build path engages

    def build(self, force_scalar: bool, monkeypatch):
        if force_scalar:
            monkeypatch.setattr(kernels, "HAVE_NUMPY", False)
        rnd = random.Random(17)
        keys = [float(i) for i in range(self.N)]
        weights = [rnd.random() + 1e-3 for _ in range(self.N)]
        return AliasAugmentedRangeSampler(keys, weights), weights

    def test_node_tables_encode_same_distributions(self, monkeypatch):
        with pytest.MonkeyPatch.context() as scalar_patch:
            scalar_sampler, weights = self.build(True, scalar_patch)
        batch_sampler, _ = self.build(False, monkeypatch)
        assert kernels.use_batch_build(self.N)
        assert isinstance(scalar_sampler._urns[0], list)
        assert isinstance(batch_sampler._urns[0], np.ndarray)
        tree = batch_sampler._tree
        for node in tree.iter_nodes():
            if tree.is_leaf(node):
                continue
            lo, hi = tree.leaf_span(node)
            span_weights = weights[lo:hi]
            for sampler in (scalar_sampler, batch_sampler):
                # The node's segment of the flat layout: its span size
                # of urns at its offset, with segment-local aliases.
                prob, alias, offsets = sampler._urns
                start = offsets[node]
                segment = slice(start, start + hi - lo)
                assert_encodes(prob[segment], alias[segment], span_weights)

    def test_space_accounting_matches_dispatch_paths(self, monkeypatch):
        with pytest.MonkeyPatch.context() as scalar_patch:
            scalar_sampler, _ = self.build(True, scalar_patch)
        batch_sampler, _ = self.build(False, monkeypatch)
        assert scalar_sampler.space_words() == batch_sampler.space_words()
