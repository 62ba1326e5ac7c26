"""E1 — Theorem 1: alias sampling is O(1) per draw, independent of n."""

from __future__ import annotations

from repro.apps.workloads import zipf_weights
from repro.engine import build
from repro.experiments.runner import ExperimentResult, time_per_call


def run(quick: bool = False) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="e1",
        title="Alias method: O(n) build, O(1) sample (Theorem 1, §3.1)",
        claim="per-sample time stays flat as n grows 64x; build time grows ~linearly",
        columns=["n", "build_ms", "ns_per_sample", "ns_per_index", "samples_per_sec"],
    )
    sizes = [1 << 12, 1 << 15, 1 << 18] if not quick else [1 << 10, 1 << 13]
    batch = 10_000
    for n in sizes:
        weights = zipf_weights(n, alpha=1.0, rng=1)
        items = list(range(n))
        build_seconds = time_per_call(
            lambda: build("alias", items=items, weights=weights, rng=2), repeats=3
        )
        sampler = build("alias", items=items, weights=weights, rng=3)
        sample_seconds = time_per_call(lambda: sampler.sample_many(batch), repeats=5)
        index_seconds = time_per_call(lambda: sampler.sample_indices(batch), repeats=5)
        per_sample = sample_seconds / batch
        result.add_row(
            n,
            build_seconds * 1e3,
            per_sample * 1e9,
            index_seconds / batch * 1e9,
            1.0 / per_sample,
        )
    result.add_note(
        "flat ns_per_sample (sample_many) and ns_per_index (sample_indices) across "
        f"rows, at s = {batch} per call, demonstrate the O(1) draw; "
        "build_ms growing ~proportionally to n demonstrates the O(n) build"
    )
    return result
