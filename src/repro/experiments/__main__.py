"""CLI entry point: ``python -m repro.experiments [--quick] [ids...]``."""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro import obs
from repro.experiments.runner import ALL_EXPERIMENTS, run_experiment


def _derived_highlights(snapshot: dict) -> str:
    """One-line summary of the non-empty derived ratios."""
    pairs = [
        f"{name}={value:.3g}"
        for name, value in sorted(snapshot.get("derived", {}).items())
        if value is not None
    ]
    return ", ".join(pairs) if pairs else "(no derived ratios exercised)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the EXPERIMENTS.md validation tables.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=[],
        help=f"experiment ids to run (default: all of {', '.join(ALL_EXPERIMENTS)})",
    )
    parser.add_argument(
        "--quick", action="store_true", help="reduced problem sizes (~seconds)"
    )
    parser.add_argument(
        "--metrics-out",
        metavar="DIR",
        default=None,
        help=(
            "directory for per-experiment metrics sidecars "
            "(<DIR>/<id>.metrics.json); implies metrics collection. "
            f"With {obs.ENV_ENABLED}=1 set, defaults to results/metrics"
        ),
    )
    args = parser.parse_args(argv)

    if args.metrics_out is not None:
        obs.enable()
    metrics_dir = args.metrics_out
    if metrics_dir is None and obs.ENABLED:
        metrics_dir = os.path.join("results", "metrics")

    # Every id is checked before any runs, so a typo cannot cut a sweep short.
    unknown = [e for e in args.experiments if e.lower() not in ALL_EXPERIMENTS]
    if unknown:
        parser.error(
            f"unknown experiment id(s) {', '.join(unknown)}; "
            f"choose from {', '.join(ALL_EXPERIMENTS)}"
        )
    selected = [e.lower() for e in args.experiments] or ALL_EXPERIMENTS
    for experiment_id in selected:
        started = time.perf_counter()
        result = run_experiment(experiment_id, quick=args.quick)
        elapsed = time.perf_counter() - started
        print(result.render())
        print(f"({experiment_id} completed in {elapsed:.1f}s)")
        if result.metrics is not None:
            print(f"metrics: {_derived_highlights(result.metrics)}")
            if metrics_dir is not None:
                sidecar = os.path.join(
                    metrics_dir, f"{experiment_id}.metrics.json"
                )
                obs.write_sidecar(
                    sidecar,
                    result.metrics,
                    extra={
                        "experiment": experiment_id,
                        "quick": args.quick,
                        "kernels": result.kernels,
                        "elapsed_s": round(elapsed, 3),
                    },
                )
                print(f"metrics sidecar: {sidecar}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
