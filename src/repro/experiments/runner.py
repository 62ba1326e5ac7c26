"""Shared experiment plumbing: timing, tables, and the registry."""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro import obs
from repro.core import kernels


def kernel_tier() -> str:
    """The kernel tier this process draws on, in ``engine run``'s wording.

    A scalar column is the same experiment run under
    ``REPRO_DISABLE_NUMPY=1``; this line says which tier a table came from.
    """
    return f"numpy={'on' if kernels.HAVE_NUMPY else 'off'}"


@dataclass
class ExperimentResult:
    """One experiment's output: a claim, a table, and commentary."""

    experiment_id: str
    title: str
    claim: str
    columns: Sequence[str]
    rows: List[Sequence] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: ``repro.obs`` snapshot taken right after the run (None when the
    #: metrics layer is disabled).
    metrics: Optional[dict] = None
    #: :func:`kernel_tier` at run time (set by :func:`run_experiment`).
    kernels: Optional[str] = None

    def add_row(self, *values) -> None:
        self.rows.append(values)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def render(self) -> str:
        def fmt(value) -> str:
            if isinstance(value, float):
                if value == 0:
                    return "0"
                if abs(value) >= 1000 or abs(value) < 0.001:
                    return f"{value:.3g}"
                return f"{value:.4g}"
            return str(value)

        header = [str(c) for c in self.columns]
        body = [[fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(header[i]), *(len(row[i]) for row in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [
            f"== {self.experiment_id.upper()}: {self.title} ==",
            f"claim: {self.claim}",
        ]
        if self.kernels is not None:
            lines.append(f"kernels: {self.kernels}")
        lines += [
            "",
            "  ".join(h.ljust(w) for h, w in zip(header, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for row in body:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def time_per_call(fn: Callable[[], object], repeats: int = 5, inner: int = 1) -> float:
    """Median wall-clock seconds of ``fn`` over ``repeats`` trials."""
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        timings.append((time.perf_counter() - start) / inner)
    timings.sort()
    return timings[len(timings) // 2]


_MODULE_OF = {
    "e1": "repro.experiments.e01_alias",
    "e2": "repro.experiments.e02_tree_sampling",
    "e3": "repro.experiments.e03_range_sampling",
    "e4": "repro.experiments.e04_space",
    "e5": "repro.experiments.e05_kdtree",
    "e6": "repro.experiments.e06_rangetree",
    "e7": "repro.experiments.e07_approx_cover",
    "e8": "repro.experiments.e08_set_union",
    "e9": "repro.experiments.e09_em",
    "e10": "repro.experiments.e10_dynamic",
    "e11": "repro.experiments.e11_estimation",
    "e12": "repro.experiments.e12_fair_nn",
    "e13": "repro.experiments.e13_integer_domain",
    "e14": "repro.experiments.e14_deamortized",
    "e15": "repro.experiments.e15_approximate",
    "e16": "repro.experiments.e16_dynamic_range",
    "e17": "repro.experiments.e17_halfplane",
    "e18": "repro.experiments.e18_ablations",
}

ALL_EXPERIMENTS = list(_MODULE_OF)


def run_experiment(experiment_id: str, quick: bool = False) -> ExperimentResult:
    """Load and run one experiment by id (e.g. ``"e3"``)."""
    key = experiment_id.lower()
    if key not in _MODULE_OF:
        raise KeyError(f"unknown experiment {experiment_id!r}; choose from {ALL_EXPERIMENTS}")
    module = importlib.import_module(_MODULE_OF[key])
    metered = obs.ENABLED
    if metered:
        # Each experiment gets a clean measurement window; the snapshot
        # rides on the result so __main__ can write per-experiment sidecars.
        obs.reset()
    result = module.run(quick=quick)
    if metered:
        result.metrics = obs.snapshot()
    result.kernels = kernel_tier()
    return result
