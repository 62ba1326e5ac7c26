"""The exact law of the Lemma-2 and Theorem-3 draw above the batch cutoff.

At ``s >= kernels.BATCH_MIN_SIZE`` a Lemma-2 request draws every cover
part in one numpy pass, and Theorem 3 reaches the same pass twice: its
T_chunk draw and its chunk-level draw. A query's ``s`` outputs must be
iid draws from the span's weights. Each case checks that with two
G-tests against the exact law:

(a) the pooled output counts of all requests against the span weights;
(b) each request's count of one fixed key against ``Binomial(s, p_key)``.
    A dependence inside a request (say, one uniform reused across draws)
    can leave the pooled marginal exact while it spreads or narrows
    these counts, so (a) alone would not see it.

Outputs come back grouped by cover part, so nothing here looks at output
positions. The span has odd key endpoints: the Lemma-2 cover and the
T_chunk cover each mix leaves with internal nodes, and Theorem 3 gets a
partial head chunk. A sharded(2) view splits ``s`` over its shards
first, so at s ∈ {16, 17} its shards mostly draw below the cutoff (the
urn loop); its larger cases reach the pass. Seeds are fixed, and the
family-wise level is split evenly (Bonferroni) over every G-test in this
module. Tier-1 runs one case per sampler; the rest is marked ``slow``.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest

from repro.core.range_sampler import AliasAugmentedRangeSampler, ChunkedRangeSampler
from repro.engine.shard import ShardedSampler
from repro.stats.tests import _chi_square_sf

#: Family-wise level, split evenly over every G-test in this module.
FAMILY_ALPHA = 1e-4
REQUESTS = 2_000

KEYS = [float(i) for i in range(40)]
WEIGHTS = [1.0 + i % 9 for i in range(40)]
#: Index span [3, 38): the Lemma-2 cover is six internal nodes and one
#: leaf; Theorem 3 (chunk_size=2) splits it into head chunk [3, 4) and
#: chunks [2, 19), whose T_chunk cover holds two leaves.
SPAN = (3.0, 37.0)
#: The key behind test (b): weight 9, inside an internal cover node.
PROBE_KEY = 26.0

SAMPLERS = ["range.lemma2", "range.chunked", "lemma2.sharded2", "chunked.sharded2"]
SIZES = (16, 17, 64, 300)
#: Tier-1 runs these (sampler, s) cases; the rest are slow.
FAST = {
    ("range.lemma2", 64),
    ("range.chunked", 300),
    ("lemma2.sharded2", 300),
    ("chunked.sharded2", 64),
}
CASES = [
    pytest.param(kind, s, marks=() if (kind, s) in FAST else pytest.mark.slow)
    for kind in SAMPLERS
    for s in SIZES
]
ALPHA = FAMILY_ALPHA / (2 * len(CASES))


def _build(kind):
    base, _, view = kind.partition(".")
    if base == "range":
        base, view = view, ""
    if base == "lemma2":
        sampler = AliasAugmentedRangeSampler(KEYS, WEIGHTS, rng=1)
    else:
        sampler = ChunkedRangeSampler(KEYS, WEIGHTS, rng=1, chunk_size=2)
    if view == "sharded2":
        return ShardedSampler(sampler, 2, rng=1)
    return sampler


def g_statistic(observed, expected):
    """``2 Σ O ln(O / E)`` over the cells with ``O > 0``."""
    return 2.0 * sum(o * math.log(o / e) for o, e in zip(observed, expected) if o)


def binomial_bins(s, p, trials):
    """Expected request counts of ``Binomial(s, p)`` outcomes, merged
    into bins of at least 5 from the low end; returns ``(edges, expected)``
    with bin ``j`` holding the outcomes ``edges[j] <= x < edges[j + 1]``."""
    edges, expected, mass = [0], [], 0.0
    for x in range(s + 1):
        mass += trials * math.comb(s, x) * p**x * (1.0 - p) ** (s - x)
        if mass >= 5.0:
            expected.append(mass)
            edges.append(x + 1)
            mass = 0.0
    expected[-1] += mass  # the thin upper tail joins the last bin
    edges[-1] = s + 1
    return edges, expected


def test_instance_covers_mix_leaves_and_internal_nodes():
    lemma2 = _build("range.lemma2")
    tree = lemma2._tree
    cover = tree.canonical_nodes_for_span(*lemma2.span_of(*SPAN))
    assert {tree.is_leaf(u) for u in cover} == {True, False}
    chunked = _build("range.chunked")
    head, chunks, tail = chunked.query_split(*chunked.span_of(*SPAN))
    assert head == (3, 4) and chunks == (2, 19) and tail[0] == tail[1]
    t_tree = chunked._t_chunk._tree
    t_cover = t_tree.canonical_nodes_for_span(*chunks)
    assert {t_tree.is_leaf(u) for u in t_cover} == {True, False}


@pytest.mark.parametrize("kind,s", CASES)
def test_batch_draws_follow_the_span_law(kind, s):
    sampler = _build(kind)
    lo, hi = sampler.span_of(*SPAN)
    weights = WEIGHTS[lo:hi]
    total = sum(weights)
    rng = random.Random(5000 + 10 * SAMPLERS.index(kind) + SIZES.index(s))
    pooled: Counter = Counter()
    per_request: Counter = Counter()
    probe = KEYS.index(PROBE_KEY)
    for _ in range(REQUESTS):
        draws = sampler.sample_indices(*SPAN, s, rng=rng)
        assert len(draws) == s
        counts = Counter(draws)
        pooled.update(counts)
        per_request[counts[probe]] += 1
    assert set(pooled) <= set(range(lo, hi))

    # (a) the pooled marginal against the exact span weights
    draws_total = REQUESTS * s
    g = g_statistic(
        [pooled[i] for i in range(lo, hi)],
        [draws_total * w / total for w in weights],
    )
    assert _chi_square_sf(g, hi - lo - 1) > ALPHA, "pooled marginal"

    # (b) one key's per-request count against Binomial(s, p_key)
    edges, expected = binomial_bins(s, WEIGHTS[probe] / total, REQUESTS)
    observed = [
        sum(per_request[x] for x in range(a, b)) for a, b in zip(edges, edges[1:])
    ]
    g = g_statistic(observed, expected)
    assert _chi_square_sf(g, len(expected) - 1) > ALPHA, "per-request count"
