"""Seeded engine requests stay independent when their generators are recycled.

Every seeded request's numpy generator comes from its thread's free list
and is re-keyed from the request's own stream (``repro.substrates.rng``).
Each case runs 2,000 requests of ``s`` draws from one fixed span through
one engine path and checks, against the exact law:

(a) the pooled output counts against the span weights (G-test);
(b) each request's count of one probe key against ``Binomial(s, p)``
    (G-test), which catches dependence inside a request;
(c) the probe key's counts of requests ``2k`` and ``2k + 1``, bucketed
    0 / 1 / 2 / ≥3, against the product of the exact bucket laws
    (G-test). Consecutive requests are the ones that hand a generator on
    (serial) or race for two (threads). The pairs are disjoint, so the
    statistic is chi-square under independence; and since the expected
    table comes from the exact law, not the observed margins, a constant
    count fails it too;
(d) no two requests return the same sequence;
(e) the thread path returns exactly the serial path's outputs, request
    by request, and sharded × thread exactly sharded × serial's: a
    generator that carried state between requests would make outputs
    depend on which thread ran which request.

Paths: the serial engine, where consecutive requests reuse one
generator; the thread engine with two workers; and sharded(2) × serial,
where the request's stream stays live while the split stream and each
shard's stream borrow and release in turn. Seeds are fixed, and the
family-wise level is split evenly (Bonferroni) over every G-test here.
Tier-1 runs a diagonal slice; the rest is marked ``slow``.
"""

from __future__ import annotations

import math
from collections import Counter

import pytest

from repro.core.alias import AliasSampler
from repro.core.range_sampler import (
    AliasAugmentedRangeSampler,
    ChunkedRangeSampler,
    TreeWalkRangeSampler,
)
from repro.engine import QueryRequest, SamplingEngine
from repro.stats.tests import _chi_square_sf

#: Family-wise level, split evenly over every G-test in this module.
FAMILY_ALPHA = 1e-4
REQUESTS = 2_000

KEYS = [float(i) for i in range(40)]
WEIGHTS = [1.0 + i % 9 for i in range(40)]
#: Span keys 3..37, index span [3, 38).
SPAN = (3.0, 37.0)
LO, HI = 3, 38
#: The key behind tests (b) and (c): weight 9.
PROBE_KEY = 26.0
#: Upper edges of test (c)'s buckets 0 / 1 / 2 / ≥3.
BUCKETS = (1, 2, 3)

SPECS = ["range.chunked", "range.lemma2", "range.treewalk", "alias"]
PATHS = ["serial", "thread", "sharded"]
SIZES = (16, 64)
#: Tier-1 runs these (spec, path, s) cases; the rest are slow.
FAST = {
    ("range.chunked", "sharded", 16),
    ("range.lemma2", "thread", 64),
    ("range.treewalk", "serial", 16),
    ("alias", "thread", 16),
}
CASES = [
    pytest.param(
        spec, path, s, marks=() if (spec, path, s) in FAST else pytest.mark.slow
    )
    for spec in SPECS
    for path in PATHS
    for s in SIZES
    # the §4.1 split applies to range samplers only
    if not (spec == "alias" and path == "sharded")
]
ALPHA = FAMILY_ALPHA / (3 * len(CASES))


def _build(spec):
    if spec == "alias":
        return AliasSampler(KEYS[LO:HI], WEIGHTS[LO:HI], rng=1)
    if spec == "range.chunked":
        # chunk_size=2 gives T_chunk enough keys for batch draws
        return ChunkedRangeSampler(KEYS, WEIGHTS, rng=1, chunk_size=2)
    cls = {
        "range.lemma2": AliasAugmentedRangeSampler,
        "range.treewalk": TreeWalkRangeSampler,
    }[spec]
    return cls(KEYS, WEIGHTS, rng=1)


def _run(spec, s, seed, placement="local", backend="serial"):
    """Each request's output from a fresh sampler on one engine path."""
    sampler = _build(spec)
    args = () if spec == "alias" else SPAN
    requests = [QueryRequest(op="sample", args=args, s=s) for _ in range(REQUESTS)]
    engine = SamplingEngine(
        placement=None if placement == "local" else placement,
        backend=backend,
        shards=2,
        max_workers=2,
        seed=seed,
        errors="raise",
    )
    try:
        return [result.values for result in engine.run(sampler, requests)]
    finally:
        engine.close()


def g_statistic(observed, expected):
    """``2 Σ O ln(O / E)`` over the cells with ``O > 0``."""
    return 2.0 * sum(o * math.log(o / e) for o, e in zip(observed, expected) if o)


def binomial_pmf(s, p):
    return [math.comb(s, x) * p**x * (1.0 - p) ** (s - x) for x in range(s + 1)]


def binomial_bins(s, p, trials):
    """Expected request counts of ``Binomial(s, p)`` outcomes, merged
    into bins of at least 5 from the low end; returns ``(edges, expected)``
    with bin ``j`` holding the outcomes ``edges[j] <= x < edges[j + 1]``."""
    edges, expected, mass = [0], [], 0.0
    for x, q in enumerate(binomial_pmf(s, p)):
        mass += trials * q
        if mass >= 5.0:
            expected.append(mass)
            edges.append(x + 1)
            mass = 0.0
    expected[-1] += mass  # the thin upper tail joins the last bin
    edges[-1] = s + 1
    return edges, expected


def bucket(count):
    return sum(count >= edge for edge in BUCKETS)


@pytest.mark.parametrize("spec,path,s", CASES)
def test_recycled_generators_keep_requests_independent(spec, path, s):
    seed = 7100 + 100 * SPECS.index(spec) + 10 * PATHS.index(path) + SIZES.index(s)
    placement = "sharded" if path == "sharded" else "local"
    backend = "thread" if path == "thread" else "serial"
    outputs = _run(spec, s, seed, placement, backend)
    assert all(len(values) == s for values in outputs)
    weights = WEIGHTS[LO:HI]
    total = sum(weights)
    p = WEIGHTS[KEYS.index(PROBE_KEY)] / total
    pooled: Counter = Counter()
    probe_counts = []
    for values in outputs:
        counts = Counter(values)
        pooled.update(counts)
        probe_counts.append(counts[PROBE_KEY])
    assert set(pooled) <= set(KEYS[LO:HI])

    # (a) the pooled marginal against the exact span weights
    g = g_statistic(
        [pooled[key] for key in KEYS[LO:HI]],
        [REQUESTS * s * w / total for w in weights],
    )
    assert _chi_square_sf(g, HI - LO - 1) > ALPHA, "pooled marginal"

    # (b) the probe key's per-request count against Binomial(s, p)
    edges, expected = binomial_bins(s, p, REQUESTS)
    per_request = Counter(probe_counts)
    observed = [
        sum(per_request[x] for x in range(a, b)) for a, b in zip(edges, edges[1:])
    ]
    g = g_statistic(observed, expected)
    assert _chi_square_sf(g, len(expected) - 1) > ALPHA, "per-request count"

    # (c) lag-1 pairs of bucketed counts against the exact product law
    law = [0.0] * (len(BUCKETS) + 1)
    for x, q in enumerate(binomial_pmf(s, p)):
        law[bucket(x)] += q
    pairs = Counter(
        (bucket(a), bucket(b)) for a, b in zip(probe_counts[::2], probe_counts[1::2])
    )
    cells = [(i, j) for i in range(len(law)) for j in range(len(law))]
    g = g_statistic(
        [pairs[cell] for cell in cells],
        [REQUESTS // 2 * law[i] * law[j] for i, j in cells],
    )
    assert _chi_square_sf(g, len(cells) - 1) > ALPHA, "lag-1 pairs"

    # (d) no request repeats another's sequence
    assert len(set(map(tuple, outputs))) == REQUESTS, "repeated sequence"

    # (e) thread execution is byte-identical to serial, request by request
    if path == "thread":
        assert outputs == _run(spec, s, seed), "thread != serial"
    elif path == "sharded":
        assert outputs == _run(spec, s, seed, "sharded", "thread"), (
            "sharded x thread != sharded x serial"
        )
