"""The WoR law of every caller of the one WoR routine.

A WoR sample is the first ``s`` distinct values of one iid WR sequence
(successive sampling, whose inclusion probabilities are the GUS
parameters of Nirkhiwale et al.), so with weights ``w`` of total ``W``
the ordered output ``(i_1, ..., i_s)`` has probability

    Π_j w_{i_j} / (W − Σ_{l<j} w_{i_l}).

The routine draws in batches that come back grouped (by cover part, and
by shard after the §4.1 merge), so the law holds only because it
shuffles each batch. The spans below therefore have covers of at least
two parts; a TreeWalk batch is already in iid order, so only the
Lemma-2, Theorem-3 and sharded cases can catch a missing shuffle.

Each case is a G-test against the exact law under a fixed seed, at a
Bonferroni level over the whole family. Tier-1 runs the discriminating
slice; the rest is marked ``slow``.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import pytest

from repro.apps.fair_nn import FairNearNeighbor
from repro.core.naive import NaiveRangeSampler
from repro.core.range_sampler import (
    AliasAugmentedRangeSampler,
    ChunkedRangeSampler,
    TreeWalkRangeSampler,
)
from repro.core.schemes import sample_without_replacement
from repro.engine.shard import ShardedSampler
from repro.stats.tests import _chi_square_sf

#: Family-wise level, split evenly over every G-test in this module.
FAMILY_ALPHA = 1e-4
TRIALS = 20_000
FAIR_TRIALS = 6_000

#: The exact-law instance: 6 keys, queried over keys 1..5 (W = 23).
SMALL_KEYS = [float(i) for i in range(6)]
SMALL_WEIGHTS = [1.0, 2.0, 3.0, 4.0, 5.0, 9.0]
SMALL_SPAN = (1.0, 5.0)
#: Above the batch cutoff: s=17 over keys 1..21 of 24, so the first
#: round is 34 draws and takes the numpy rung where numpy is present.
LARGE_KEYS = [float(i) for i in range(24)]
LARGE_WEIGHTS = [1.0 + i % 5 for i in range(24)]
LARGE_SPAN = (1.0, 21.0)
LARGE_S = 17


def _build(kind, keys, weights):
    if kind == "range.treewalk":
        return TreeWalkRangeSampler(keys, weights, rng=1)
    if kind == "range.lemma2":
        return AliasAugmentedRangeSampler(keys, weights, rng=1)
    if kind == "range.chunked":
        return ChunkedRangeSampler(keys, weights, rng=1, chunk_size=2)
    if kind == "range.naive":
        return NaiveRangeSampler(keys, weights, rng=1)
    assert kind == "sharded2"
    return ShardedSampler(
        ChunkedRangeSampler(keys, weights, rng=1), 2, rng=1
    )


def _assert_cover_has_parts(sampler, x, y):
    # A one-part cover would test nothing: its batch is in iid order.
    if sampler.plan_kind is not None:
        assert len(sampler.plan_span(*sampler.span_of(x, y)).spans) >= 2


def successive_law(weights, s):
    """Exact probability of every ordered WoR outcome of size ``s``."""
    total = sum(weights.values())
    law = {}
    for outcome in itertools.permutations(weights, s):
        p, left = 1.0, total
        for key in outcome:
            p *= weights[key] / left
            left -= weights[key]
        law[outcome] = p
    return law


def g_test_pvalue(counts, law):
    """G-test of observed ``counts`` against the exact ``law``."""
    assert set(counts) <= set(law), set(counts) - set(law)
    trials = sum(counts.values())
    g = 2.0 * sum(
        observed * math.log(observed / (trials * law[outcome]))
        for outcome, observed in counts.items()
    )
    return _chi_square_sf(g, len(law) - 1)


def _span_weights(keys, weights, x, y):
    return {k: w for k, w in zip(keys, weights) if x <= k <= y}


RANGE_KINDS = ["range.treewalk", "range.lemma2", "range.chunked", "range.naive", "sharded2"]
#: Tier-1 runs these (kind, s) exact-law cases; the rest are slow.
FAST_EXACT = {("range.lemma2", 3), ("sharded2", 2)}
FAST_FIRST = {"range.chunked"}

EXACT_CASES = [
    pytest.param(
        kind, s, marks=() if (kind, s) in FAST_EXACT else pytest.mark.slow
    )
    for kind in RANGE_KINDS
    for s in (2, 3)
]
FIRST_CASES = [
    pytest.param(kind, marks=() if kind in FAST_FIRST else pytest.mark.slow)
    for kind in RANGE_KINDS
]
#: Every G-test below: the exact and first-output range cases, fair-NN
#: and the routine itself.
ALPHA = FAMILY_ALPHA / (len(EXACT_CASES) + len(FIRST_CASES) + 2)


@pytest.mark.parametrize("kind,s", EXACT_CASES)
def test_ordered_output_follows_successive_sampling(kind, s):
    sampler = _build(kind, SMALL_KEYS, SMALL_WEIGHTS)
    _assert_cover_has_parts(sampler, *SMALL_SPAN)
    rng = random.Random(1000 + 10 * s + RANGE_KINDS.index(kind))
    counts = Counter(
        tuple(sampler.sample_without_replacement(*SMALL_SPAN, s, rng=rng))
        for _ in range(TRIALS)
    )
    law = successive_law(_span_weights(SMALL_KEYS, SMALL_WEIGHTS, *SMALL_SPAN), s)
    assert g_test_pvalue(counts, law) > ALPHA


@pytest.mark.parametrize("kind", FIRST_CASES)
def test_first_output_above_the_batch_cutoff(kind):
    sampler = _build(kind, LARGE_KEYS, LARGE_WEIGHTS)
    _assert_cover_has_parts(sampler, *LARGE_SPAN)
    rng = random.Random(2000 + RANGE_KINDS.index(kind))
    counts = Counter(
        tuple(sampler.sample_without_replacement(*LARGE_SPAN, LARGE_S, rng=rng)[:1])
        for _ in range(TRIALS // 2)
    )
    law = successive_law(_span_weights(LARGE_KEYS, LARGE_WEIGHTS, *LARGE_SPAN), 1)
    assert g_test_pvalue(counts, law) > ALPHA


@pytest.mark.slow
def test_fair_nn_distinct_pairs_are_uniform_over_the_ball():
    # A 5-point ball inside a 3x3 grid: each fair-NN draw is a set-union
    # query with its sketch estimate, about 0.2 ms even this small.
    points = [(float(x), float(y)) for x in range(3) for y in range(3)]
    fair = FairNearNeighbor(points, radius=1.0, num_grids=1, cell_size=3.0, rng=1)
    query = (1.0, 1.0)
    ball = fair.near_points(query)
    rng = random.Random(3000)
    counts = Counter(
        tuple(fair.sample_distinct(query, 2, rng=rng)) for _ in range(FAIR_TRIALS)
    )
    law = successive_law({point: 1.0 for point in ball}, 2)
    assert g_test_pvalue(counts, law) > ALPHA


def test_routine_shuffles_a_sorted_drawer():
    # The drawer hands back its iid draws sorted, the worst grouping a
    # batch can have; the first output must still follow the weights.
    # A bare ``draw()`` gives one draw, so one-draw-at-a-time WoR loops
    # run this case too.
    keys = list(range(len(SMALL_WEIGHTS)))
    source = random.Random(4000)

    def draw(k=None):
        if k is None:
            return source.choices(keys, SMALL_WEIGHTS)[0]
        return sorted(source.choices(keys, SMALL_WEIGHTS, k=k))

    rng = random.Random(4001)
    counts = Counter(
        tuple(sample_without_replacement(draw, 3, len(keys), rng)[:1])
        for _ in range(TRIALS)
    )
    law = successive_law(dict(zip(keys, SMALL_WEIGHTS)), 1)
    assert g_test_pvalue(counts, law) > ALPHA
