"""E16 — dynamic weighted *range* sampling (§4.3 remark + Direction 1).

Compares the treap structure (O(log n) updates, O((1+s) log n) queries)
against the static Theorem-3 structure (faster queries, but any update
forces a full rebuild) under a mixed update/query workload.
"""

from __future__ import annotations

from repro.engine import build
from repro.experiments.runner import ExperimentResult, time_per_call
from repro.substrates.rng import ensure_rng


def run(quick: bool = False) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="e16",
        title="Dynamic weighted range sampling: treap vs static rebuilds (§4.3)",
        claim="treap updates are O(log n); its query pays one extra log factor; "
        "the static structure's 'update' is a full O(n) rebuild",
        columns=[
            "n",
            "treap_insert_us",
            "treap_delete_us",
            "treap_query_us",
            "static_query_us",
            "static_rebuild_us",
        ],
    )
    sizes = [1 << 10, 1 << 13] if quick else [1 << 10, 1 << 13, 1 << 16]
    s = 16
    for n in sizes:
        rng = ensure_rng(1)
        # The timed updates use spare keys spread over the same range, so
        # each insert splits the subtree it displaces (an ascending spare
        # key would always land on the right spine).
        drawn = rng.sample(range(10 * n), 2 * n)
        keys = sorted(drawn[:n])
        weights = [1.0 + rng.random() * 9 for _ in range(n)]

        treap = build("range.dynamic", rng=2)
        for key, weight in zip(keys, weights):
            treap.insert(float(key), weight)
        static = build(
            "range.chunked", keys=[float(k) for k in keys], weights=weights, rng=3
        )
        x, y = float(keys[n // 10]), float(keys[9 * n // 10])

        spare_keys = iter(drawn[n:])
        inserted: list = []

        def treap_insert():
            key = float(next(spare_keys))
            treap.insert(key, 1.0)
            inserted.append(key)

        def treap_delete():
            treap.delete(inserted.pop())

        insert_seconds = time_per_call(treap_insert, repeats=5, inner=100)
        delete_seconds = time_per_call(treap_delete, repeats=5, inner=100)
        treap_query = time_per_call(lambda: treap.sample(x, y, s), repeats=5)
        static_query = time_per_call(lambda: static.sample(x, y, s), repeats=5)
        static_rebuild = time_per_call(
            lambda: build(
                "range.chunked", keys=[float(k) for k in keys], weights=weights
            ),
            repeats=3,
        )
        result.add_row(
            n,
            insert_seconds * 1e6,
            delete_seconds * 1e6,
            treap_query * 1e6,
            static_query * 1e6,
            static_rebuild * 1e6,
        )
    result.add_note(
        "treap updates grow ~log n while a static 'update' (rebuild) grows "
        "linearly; treap queries carry the predicted extra log factor"
    )
    return result
