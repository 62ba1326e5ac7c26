"""The layered benchmark: four workloads, end-to-end metrics, traced layers.

Usage (from the repository root)::

    python benchmarks/layers/run.py --seed 1              # every workload
    python benchmarks/layers/run.py --workload hot-spans --seed 1
    python benchmarks/layers/run.py --trace --seed 1      # per-layer run
    python benchmarks/layers/run.py --quick --seed 1      # tiny smoke run

Without ``--workload`` each workload runs in its own child process, one
after another, so the process-global plan store, the obs registry and
peak RSS never leak between workloads. A run sets up the workload
``SETUP_REPS`` times (build, engine construction, first warm call) and
keeps the last, then runs fixed-size rounds until ``--seconds`` are used
(at least ``MIN_ROUNDS``), checks every output, and finishes with a
seeded chi-square probe. Rates and percentiles are computed per round and
reported as the median over rounds, with the round quartiles beside them.
Times are scaled to a reference machine speed measured between blocks
of operations (``workloads.reference_s``), which keeps the numbers
steady on shared cores whose speed changes from second to second.

``--trace`` is a separate run: after set-up it runs one untraced round,
then wraps every layer's public calls (``tracing.py``) and runs traced
rounds. It reports per-layer self times and work counts, checks that the
layer times plus the residual add up to the ``engine.run`` total, and
writes the spans of the first calls to ``out/trace-<workload>.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the ``end_to_end`` metrics of
``BENCHMARK.json``, or its ``per_layer`` metrics under ``--trace``). A
fuller record, with quartiles and the machine fingerprint, goes to
``out/result-<workload>-seed<seed>[-trace].json``. The exit code is 0
only when every output check and probe passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = ("hot-spans", "cold-bulk", "sharded-process", "dynamic-mixed")
SETUP_REPS = 7
MIN_ROUNDS = 3
#: Traced calls whose spans are written to the trace file.
TRACE_FILE_CALLS = 20
#: The traced layer times must add up to the engine.run total within this share.
TRACE_SUM_TOLERANCE = 0.01


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def median_quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """Median and the first/third quartiles, as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def fingerprint() -> Dict[str, Any]:
    """What an absolute comparison between two runs must agree on."""
    import multiprocessing

    import numpy

    from repro.core.planner import resolve_capacity

    try:
        import numba

        numba_version: Optional[str] = numba.__version__
    except ImportError:
        numba_version = None
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": numba_version,
        "start_method": multiprocessing.get_start_method(allow_none=True)
        or multiprocessing.get_context().get_start_method(),
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
        "plan_store_capacity": resolve_capacity(None),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def timed_rounds(workload: Any, seconds: float, min_rounds: int, max_rounds: int) -> List[Any]:
    """Summaries of fixed-size rounds until the next would overrun ``seconds``."""
    rounds: List[Any] = []
    started = perf_counter()
    last = 0.0
    while len(rounds) < max_rounds and (
        len(rounds) < min_rounds or perf_counter() - started + last <= seconds
    ):
        begun = perf_counter()
        rounds.append(workload.run_round().summary())
        last = perf_counter() - begun
    return rounds


def stop_shm_tracker() -> None:
    """Stop and reap multiprocessing's shared-memory tracker process.

    The sharded workload's shared-memory export starts it; left alone it
    would exit only after this process has, unwaited.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def end_to_end(
    rounds: List[Any], setups: List[float], rss: float, error_rate: float
) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics: median and quartiles over rounds (set-ups
    for ``setup_s``), times at the reference speed."""
    names = ["ops_per_s", "call_p50_us", "call_p99_us"]
    if rounds[0].write_p50_us is not None:
        names += ["write_p50_us", "write_p99_us"]
    per_round: Dict[str, Tuple[List[float], str]] = {
        name: ([getattr(r, name) for r in rounds], "ops/s" if name == "ops_per_s" else "us")
        for name in names
    }
    per_round["setup_s"] = (setups, "s")
    per_round["error_rate"] = ([error_rate], "ratio")
    per_round["peak_rss_mb"] = ([rss], "MiB")
    metrics = {}
    for name, (values, unit) in per_round.items():
        median, q1, q3 = median_quartiles(values)
        metrics[name] = {"value": median, "unit": unit, "q1": q1, "q3": q3}
    return metrics


def traced_phase(workload: Any, seconds: float, max_rounds: int) -> Dict[str, Any]:
    """One untraced round, then traced rounds; returns the layer report."""
    import tracing
    from repro import obs

    untraced = workload.run_round().summary()
    obs.reset()
    obs.enable()
    tracer = tracing.install()
    rounds: List[Any] = []
    parts: List[Dict[str, Any]] = []
    kept: List[list] = []
    try:
        started = perf_counter()
        while len(rounds) < max_rounds and (
            len(rounds) < 1 or perf_counter() - started < seconds
        ):
            record = workload.run_round()
            spans = tracer.drain()
            kept = kept or spans
            windows = list(zip(record.marks, record.marks[1:], record.factors()))
            parts.append(tracing.attribute(spans, windows))
            rounds.append(record.summary())
    finally:
        tracer.uninstall()
        obs.disable()
    snapshot = obs.snapshot(include_spans=False)
    attribution = tracing.merge_attribution(parts)
    calls = attribution["calls"].get(tracing.ROOT, 0)
    worker_us = snapshot["histograms"].get("span.worker.shard_draw.us", {}).get("sum", 0.0)
    # Worker spans come from other processes, so they are scaled by the
    # run's median speed rather than per block.
    metrics = tracing.layer_metrics(
        attribution,
        snapshot["counters"],
        worker_us * statistics.median(r.speed for r in rounds),
        calls * workload.config.requests_per_call,
        calls,
        tracer.cover_sizes,
    )
    traced_rate = statistics.median(r.ops_per_s for r in rounds)
    metrics["trace.overhead"] = (untraced.ops_per_s / traced_rate, "ratio")
    total = attribution["run_total_s"]
    accounted = attribution["run_layers_s"] + attribution["self_s"].get(tracing.ROOT, 0.0)
    return {
        "metrics": metrics,
        "rounds": rounds,
        "sum_error": abs(accounted - total) / total if total else 0.0,
        "spans": tracing.spans_to_json(kept, TRACE_FILE_CALLS),
    }


def run_workload(args: argparse.Namespace) -> int:
    import workloads
    from workloads import reference_s, speed_factor

    spec = load_spec()
    workload = workloads.make_workload(args.workload, args.seed, args.quick)
    reps = 1 if args.quick else SETUP_REPS
    min_rounds, max_rounds = (1, 1) if args.quick else (MIN_ROUNDS, 10**6)
    setups = []
    for _ in range(reps):
        before = reference_s()
        seconds = workload.setup_once()
        setups.append(seconds * speed_factor(before, reference_s()))
    try:
        if args.trace:
            layer = traced_phase(workload, args.seconds, max_rounds)
            rounds = layer["rounds"]
        else:
            layer = None
            rounds = timed_rounds(workload, args.seconds, min_rounds, max_rounds)
        probe = workload.probe()
    finally:
        workload.close()
        stop_shm_tracker()
    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds) + (0 if probe["ok"] else 1)
    correct = failed == 0
    metrics = end_to_end(rounds, setups, peak_rss_mb(), failed / attempted)
    record: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "quick": args.quick,
        "seconds": args.seconds,
        "fingerprint": fingerprint(),
        "config": {
            k: v for k, v in vars(workload.config).items() if k != "name"
        },
        "rounds": len(rounds),
        "setup_reps": reps,
        "repetition_rate": workload.repetition_rate,
        "machine_speed": statistics.median(r.speed for r in rounds),
        "probe": probe,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if layer is not None:
        record["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layer["metrics"].items()}
        record["trace_sum_error"] = layer["sum_error"]
        if layer["sum_error"] > TRACE_SUM_TOLERANCE:
            record["correct"] = correct = False
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    suffix = "-trace" if args.trace else ""
    with open(out / f"result-{args.workload}-seed{args.seed}{suffix}.json", "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    if layer is not None:
        with open(out / f"trace-{args.workload}.json", "w") as handle:
            json.dump(
                {"workload": args.workload, "seed": args.seed, "spans": layer["spans"]},
                handle,
            )

    print(
        f"{args.workload}: seed={args.seed} rounds={len(rounds)} "
        f"repetition_rate={workload.repetition_rate:.3f} "
        f"machine_speed={record['machine_speed']:.2f} "
        f"probe_p={probe['pvalue']:.3g} correct={correct}"
    )
    for name, metric in metrics.items():
        print(
            f"  {name:<24} {metric['value']:>14.6g} {metric['unit']:<6} "
            f"[q1 {metric['q1']:.6g}, q3 {metric['q3']:.6g}]"
        )
    if layer is not None:
        for name, (value, unit) in sorted(layer["metrics"].items()):
            print(f"  {name:<42} {value:>14.6g} {unit}")
        print(f"  trace sum error {layer['sum_error']:.2e} (tolerance {TRACE_SUM_TOLERANCE})")
        wanted = spec["per_layer"]
        values = {k: v for k, (v, _) in layer["metrics"].items()}
    else:
        wanted = spec["end_to_end"]
        values = {k: m["value"] for k, m in metrics.items()}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own child process, one after another."""
    summary: Dict[str, Any] = {}
    correct = True
    attempted = failed = 0
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--out", str(args.out),
        ] + (["--quick"] if args.quick else [])
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = child.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(lines[-1], flush=True)
            result = {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
        correct = correct and child.returncode == 0 and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        summary[name] = result["metrics"]
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "workloads": summary}
    ), flush=True)
    return 0 if correct else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="timed-phase length per workload (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="traced per-layer run (bare --trace means 1)",
    )
    parser.add_argument("--quick", action="store_true", help="tiny n, one round")
    parser.add_argument("--out", default=str(HERE / "out"))
    args = parser.parse_args(argv)
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the repro package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
