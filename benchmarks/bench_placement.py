"""Placement-matrix scaling exporter (``BENCH_9.json``).

Runs one seeded range-sampling batch through the sharded placement under
every execution backend — inline, the engine's thread pool, and the
composed shard-per-process backend — and reports per-request tail
latency (exact p50/p90/p99 over the results' ``elapsed_s``) plus batch
wall-clock, so the scaling claim of the placement × execution refactor
is one diffable JSON artifact per CI run. The script also asserts the
refactor's correctness claim inline: all three executions must return
byte-identical batches before any timing is reported.

A standalone script (no ``bench_*`` functions, so pytest collects
nothing from it). Run::

    python benchmarks/bench_placement.py --out BENCH_9.json [--quick]

``--gate`` additionally enforces the scale-out budget — the composed
``sharded × process`` backend must beat ``sharded × thread`` by at least
``GATE_RATIO``x on batch wall-clock — and exits non-zero on breach. The
gate only makes sense where the process pool has real cores to spread
shards over, so it is enforced only when ``os.cpu_count() >=
GATE_MIN_CORES``; below that the report records ``enforced: false`` and
the run always succeeds (the ratio is still measured and exported).

Schema::

    {
      "workload": "placement_matrix",
      "spec": "range.chunked",
      "n": ..., "requests": ..., "s": ..., "shards": ...,
      "repeats": ..., "workers": ..., "cpu_count": ...,
      "byte_identical": true,
      "configs": [
        {"placement": "sharded", "execution": "serial"|"thread"|"process",
         "p50_us": ..., "p90_us": ..., "p99_us": ...,
         "mean_batch_s": ..., "best_batch_s": ...},
        ...
      ],
      "gate": {"enforced": bool, "min_cores": ..., "ratio": ...,
               "budget": ..., "ok": bool}
    }
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.engine import SamplingEngine  # noqa: E402
from repro.engine.protocol import QueryRequest  # noqa: E402
from repro.engine.registry import build  # noqa: E402

SPEC = "range.chunked"
#: Scale-out budget under ``--gate``: the composed shard-per-process
#: backend's best batch wall-clock must be at least this many times
#: faster than the sharded thread pool. The thread pool serializes
#: the CPU-bound scalar portions of every shard draw on the GIL; shard
#: residents run them on separate cores, so on a machine with enough
#: cores the composition should clear 2x comfortably.
GATE_RATIO = 2.0
#: Cores below which the gate is measured but not enforced: with fewer
#: than one core per two shards the process pool cannot express the
#: parallelism the gate is checking for.
GATE_MIN_CORES = 4
EXECUTIONS = ("serial", "thread", "process")


def make_keys(n):
    return [float(i) for i in range(1, n + 1)]


def make_weights(n):
    return [1.0 + (i % 9) for i in range(n)]


def make_batch(n, requests, s):
    lo, hi = float(n // 8), float((7 * n) // 8)
    return [QueryRequest(op="sample", args=(lo, hi), s=s) for _ in range(requests)]


def exact_quantile(sorted_values, q):
    """Nearest-rank-with-interpolation quantile of a sorted list."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


def run_execution(execution, keys, weights, batch_template, repeats, shards, workers):
    """Run ``repeats`` seeded batches; return (latencies us, batch s, values)."""
    per_request_us = []
    batch_seconds = []
    values = None
    sampler = build(SPEC, keys=keys, weights=weights, rng=1)
    with SamplingEngine(
        placement="sharded",
        backend=execution,
        seed=42,
        shards=shards,
        max_workers=workers,
    ) as engine:
        # Untimed warm batch: pool spin-up, shard export, resident attach.
        engine.run(
            sampler,
            [QueryRequest(op=r.op, args=r.args, s=r.s) for r in batch_template],
        )
        for _ in range(repeats):
            reqs = [
                QueryRequest(op=r.op, args=r.args, s=r.s) for r in batch_template
            ]
            start = time.perf_counter()
            results = engine.run(sampler, reqs)
            batch_seconds.append(time.perf_counter() - start)
            for result in results:
                if result.error is not None:
                    raise RuntimeError(
                        f"sharded x {execution} batch failed: {result.error!r}"
                    )
                per_request_us.append((result.elapsed_s or 0.0) * 1e6)
            values = [result.values for result in results]
    return per_request_us, batch_seconds, values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_9.json", help="output path")
    parser.add_argument(
        "--quick", action="store_true", help="small workload for smoke runs"
    )
    parser.add_argument(
        "--gate",
        action="store_true",
        help=f"fail unless sharded x process beats sharded x thread by "
        f"{GATE_RATIO}x (enforced only with >= {GATE_MIN_CORES} cores)",
    )
    parser.add_argument(
        "--shards", type=int, default=4, help="shard count (default: 4)"
    )
    parser.add_argument(
        "--workers", type=int, default=4, help="pool width (default: 4)"
    )
    args = parser.parse_args(argv)

    if args.quick:
        n, requests, s, repeats = 8_192, 24, 512, 3
    else:
        n, requests, s, repeats = 50_000, 64, 2_048, 5

    keys = make_keys(n)
    weights = make_weights(n)
    batch_template = make_batch(n, requests, s)

    rows = []
    streams = {}
    for execution in EXECUTIONS:
        lat_us, batches, values = run_execution(
            execution, keys, weights, batch_template, repeats,
            args.shards, args.workers,
        )
        lat_us.sort()
        streams[execution] = values
        rows.append(
            {
                "placement": "sharded",
                "execution": execution,
                "p50_us": exact_quantile(lat_us, 0.50),
                "p90_us": exact_quantile(lat_us, 0.90),
                "p99_us": exact_quantile(lat_us, 0.99),
                "mean_batch_s": sum(batches) / len(batches),
                "best_batch_s": min(batches),
            }
        )
        print(
            f"sharded x {execution:<8} "
            f"p50={rows[-1]['p50_us']:8.1f}us p99={rows[-1]['p99_us']:8.1f}us "
            f"batch={rows[-1]['mean_batch_s'] * 1e3:8.2f}ms",
            file=sys.stderr,
        )

    byte_identical = all(
        streams[execution] == streams["serial"] for execution in EXECUTIONS
    )
    if not byte_identical:
        print("** executions disagree: refusing to report timings **",
              file=sys.stderr)
        return 1

    def wall(execution):
        for row in rows:
            if row["execution"] == execution:
                return row["best_batch_s"]
        raise KeyError(execution)

    cores = os.cpu_count() or 1
    ratio = wall("thread") / wall("process")
    enforced = args.gate and cores >= GATE_MIN_CORES
    gate_ok = ratio >= GATE_RATIO
    print(
        f"process-over-thread speedup: {ratio:.2f}x "
        f"(budget {GATE_RATIO}x, {cores} cores, "
        + ("enforced" if enforced else "not enforced")
        + (")" if gate_ok or not enforced else ")  ** UNDER BUDGET **"),
        file=sys.stderr,
    )

    report = {
        "workload": "placement_matrix",
        "spec": SPEC,
        "n": n,
        "requests": requests,
        "s": s,
        "shards": args.shards,
        "repeats": repeats,
        "workers": args.workers,
        "cpu_count": cores,
        "byte_identical": byte_identical,
        "configs": rows,
        "gate": {
            "enforced": enforced,
            "min_cores": GATE_MIN_CORES,
            "ratio": ratio,
            "budget": GATE_RATIO,
            "ok": gate_ok,
        },
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out} ({len(rows)} configs)")
    if enforced and not gate_ok:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
