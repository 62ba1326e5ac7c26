"""E3 — Lemma 2 / Theorem 3 vs the naive baseline: the selectivity sweep.

The headline IQS phenomenon (§1): report-then-sample pays Θ(|S_q|), the
IQS structures pay O(log n + s). Sweeping selectivity shows the naive
cost exploding while the IQS structures stay flat, with the crossover at
tiny result sizes. The s sweep at selectivity 0.5 shows the + s term, and
at s = 10,000 it is the scalar-vs-batch setting: rerun under
``REPRO_DISABLE_NUMPY=1`` for the scalar column.
"""

from __future__ import annotations

from repro.apps.workloads import distinct_uniform_reals, interval_with_selectivity, zipf_weights
from repro.engine import build
from repro.experiments.runner import ExperimentResult, time_per_call


def run(quick: bool = False) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="e3",
        title="Weighted range sampling vs report-then-sample (§4)",
        claim="IQS query time flat in selectivity; naive grows linearly with |S_q|",
        columns=[
            "selectivity",
            "|S_q|",
            "s",
            "naive_us",
            "treewalk_us",
            "lemma2_us",
            "theorem3_us",
            "naive/theorem3",
        ],
    )
    n = 50_000 if quick else 200_000
    keys = distinct_uniform_reals(n, rng=1)
    weights = zipf_weights(n, alpha=0.8, rng=2)
    naive = build("range.naive", keys=keys, weights=weights, rng=3)
    treewalk = build("range.treewalk", keys=keys, weights=weights, rng=7)
    lemma2 = build("range.lemma2", keys=keys, weights=weights, rng=4)
    theorem3 = build("range.chunked", keys=keys, weights=weights, rng=5)
    cases = [(selectivity, 16) for selectivity in (0.001, 0.01, 0.1, 0.5)]
    cases += [(0.5, s) for s in (1, 1024, 10_000)]
    for selectivity, s in cases:
        x, y = interval_with_selectivity(keys, selectivity, rng=6)
        result_size = sum(1 for key in keys if x <= key <= y)
        naive_seconds = time_per_call(lambda: naive.sample(x, y, s), repeats=3)
        treewalk_seconds = time_per_call(lambda: treewalk.sample(x, y, s), repeats=5)
        lemma2_seconds = time_per_call(lambda: lemma2.sample(x, y, s), repeats=5)
        theorem3_seconds = time_per_call(lambda: theorem3.sample(x, y, s), repeats=5)
        # WoR variant (§1) — cheap, and it feeds the wor.* cost counters
        # so metrics runs report rejections/draw alongside the timings.
        lemma2.sample_without_replacement(x, y, s)
        result.add_row(
            selectivity,
            result_size,
            s,
            naive_seconds * 1e6,
            treewalk_seconds * 1e6,
            lemma2_seconds * 1e6,
            theorem3_seconds * 1e6,
            naive_seconds / theorem3_seconds,
        )
    result.add_note(f"n = {n}; at s = 16 the naive/theorem3 ratio should grow ~linearly in |S_q|")
    result.add_note(
        "treewalk is the §3.2 O((1+s) log n) baseline; lemma2/theorem3 are O(log n + s)"
    )
    return result
