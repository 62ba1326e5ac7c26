"""E4 — space accounting: Lemma 2's O(n log n) vs Theorem 3's O(n).

The byte columns measure the word model's structures with
:mod:`tracemalloc`. The build-time columns are the construction side of
the same trade: run under ``REPRO_DISABLE_NUMPY=1`` for the scalar
builders.
"""

from __future__ import annotations

import math
import tracemalloc

from repro.engine import build
from repro.experiments.runner import ExperimentResult, time_per_call

#: The structures whose bytes are measured, by registry spec.
MEASURED = {"treewalk": "range.treewalk", "lemma2": "range.lemma2", "theorem3": "range.chunked"}


def _timed_build(spec: str, keys):
    """The ``spec`` structure over ``keys`` and its median build time (ms)."""
    built = [None]

    def build_once():
        built[0] = build(spec, keys=keys)

    seconds = time_per_call(build_once, repeats=3)
    return built[0], seconds * 1e3


def _traced_bytes(spec: str, keys):
    """Bytes held by one more ``spec`` build over ``keys``, and the
    build's peak, both above the traced memory before it (untimed)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _built = build(spec, keys=keys)  # held alive through the reading
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held - before, peak - before


def run(quick: bool = False) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="e4",
        title="Structure space and build time: O(n log n) vs O(n) (Lemma 2 vs Theorem 3)",
        claim="lemma2 words/element grows like log n; theorem3 and treewalk stay flat",
        columns=[
            "n",
            "log2(n)",
            "lemma2_words_per_elem",
            "theorem3_words_per_elem",
            "treewalk_words_per_elem",
            "naive_words_per_elem",
            "treewalk_build_ms",
            "lemma2_build_ms",
            "theorem3_build_ms",
            *(f"{name}_{kind}_bytes_per_key" for name in MEASURED for kind in ("held", "peak")),
        ],
    )
    exponents = (10, 12, 14) if quick else (10, 12, 14, 16)
    for exponent in exponents:
        n = 1 << exponent
        keys = [float(i) for i in range(n)]
        treewalk, treewalk_ms = _timed_build("range.treewalk", keys)
        lemma2, lemma2_ms = _timed_build("range.lemma2", keys)
        theorem3, theorem3_ms = _timed_build("range.chunked", keys)
        naive = build("range.naive", keys=keys).space_words()
        measured = [b / n for spec in MEASURED.values() for b in _traced_bytes(spec, keys)]
        result.add_row(
            n,
            math.log2(n),
            lemma2.space_words() / n,
            theorem3.space_words() / n,
            treewalk.space_words() / n,
            naive / n,
            treewalk_ms,
            lemma2_ms,
            theorem3_ms,
            *measured,
        )
    result.add_note("lemma2 column should track the log2(n) column up to a constant")
    result.add_note("the treewalk build is the BST build; builds are median of 3")
    result.add_note(
        "bytes per key: tracemalloc over one separate build each, held after it and its peak"
    )
    return result
