"""``python -m repro`` — package info, the engine CLI, and the obs dump.

``python -m repro`` prints a map of entry points; ``python -m repro obs``
exercises a small representative workload with metrics enabled and dumps
the resulting :mod:`repro.obs` snapshot (table, JSON, or Prometheus text);
``python -m repro engine list`` prints the sampler registry and
``python -m repro engine run SPEC`` batch-executes a synthesized workload
against any registered structure through the :class:`~repro.engine.SamplingEngine`.
"""

from __future__ import annotations

import argparse
import sys

import repro
from repro import obs
from repro.experiments.runner import ALL_EXPERIMENTS, kernel_tier


def _info() -> int:
    print(f"repro {repro.__version__} — Independent Query Sampling (Tao, PODS 2022)")
    print()
    print("Entry points:")
    print("  python -m repro.experiments [--quick] [ids]   claim tables (EXPERIMENTS.md)")
    print("  python -m repro engine list                   sampler registry catalogue")
    print("  python -m repro engine run SPEC [options]     batched demo queries via the engine")
    print("  python -m repro obs [--format F] [--out PATH] metrics snapshot (OBSERVABILITY.md)")
    print("  pytest tests/                                 unit/integration/property suites")
    print("  python examples/quickstart.py                 first steps")
    print()
    print(f"Experiments: {', '.join(ALL_EXPERIMENTS)}")
    print(f"Public API: {len(repro.__all__)} exported names (see help(repro))")
    return 0


def _exercise_workload(n: int = 4096, s: int = 64, queries: int = 16) -> None:
    """Touch every instrumented subsystem once so the dump is non-trivial."""
    from repro import (
        AliasSampler,
        AliasAugmentedRangeSampler,
        BucketDynamicSampler,
        ChunkedRangeSampler,
        EMMachine,
        EMRangeSampler,
        FenwickDynamicSampler,
        SetUnionSampler,
        TreeWalkRangeSampler,
    )
    keys = [float(v) for v in range(n)]
    weights = [1.0 + (v % 7) for v in range(n)]

    AliasSampler(keys, weights, rng=1).sample_many(s)
    for structure in (
        TreeWalkRangeSampler(keys, weights=weights, rng=2),
        AliasAugmentedRangeSampler(keys, weights=weights, rng=3),
        ChunkedRangeSampler(keys, weights=weights, rng=4),
    ):
        for q in range(queries):
            lo = float(q * (n // (2 * queries)))
            structure.sample(lo, lo + n / 2.0, s)
        structure.sample_without_replacement(0.0, float(n), s)
    fenwick = FenwickDynamicSampler(rng=6)
    bucket = BucketDynamicSampler(rng=7)
    for v, weight in enumerate(weights[:256]):
        fenwick.insert(v, weight)
        bucket.insert(v, weight)
    fenwick.sample_many(s)
    bucket.sample_many(s)
    sets = [list(range(j * 64, (j + 1) * 64)) for j in range(16)]
    union = SetUnionSampler(sets, rng=8)
    union.sample_many(list(range(len(sets))), s)
    machine = EMMachine(block_size=16, memory_blocks=4)
    em = EMRangeSampler(machine, keys[:1024], rng=9, pool_blocks=2)
    for q in range(queries):
        em.query(float(q), float(q) + 512.0, s)


def _engine_list() -> int:
    from repro.engine import REGISTRY

    rows = [
        (entry.key, entry.problem, entry.summary) for entry in REGISTRY.specs()
    ]
    key_width = max(len(key) for key, _, _ in rows)
    problem_width = max(len(problem) for _, problem, _ in rows)
    print(f"{len(rows)} registered sampler specs (build via repro.build(spec, ...)):")
    for key, problem, summary in rows:
        print(f"  {key:<{key_width}}  {problem:<{problem_width}}  {summary}")
    return 0


def _engine_explain(engine, sampler, request, spec: str) -> int:
    """Print a request's query plan without executing any draws."""
    try:
        info = engine.explain(sampler, request)
    except NotImplementedError:
        print(
            f"error: {spec} does not participate in the plan layer "
            f"(no plan_kind)",
            file=sys.stderr,
        )
        return 2
    except TypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"spec:      {spec} ({type(sampler).__name__})")
    print(
        f"backend:   placement={engine.placement} "
        f"execution={engine.execution}"
    )
    print(f"plan:      kind={info['kind']} key={info['key']!r}")
    print(
        f"cover:     {info['cover_spans']} canonical span(s), "
        f"total weight {info['total_weight']:.6g}"
    )
    print(
        f"source:    "
        f"{'plan store (cached)' if info['cached'] else 'built cold'}"
    )
    split = info.get("budget_split")
    if split:
        print(f"fan-out:   s={request.s} over {len(split)} active shard(s)")
        for row in split:
            a, b = row["span"]
            print(
                f"  shard {row['shard']}: span=[{a}, {b})  "
                f"weight={row['weight']:.6g}  "
                f"expected quota={row['expected_quota']:.2f}"
            )
    print("draws:     none executed (--explain plans only)")
    return 0


def _engine_run(
    spec: str,
    requests: int,
    s: int,
    backend: str,
    seed: int,
    n: int,
    shards: int,
    workers: int | None,
    repeat: int = 1,
    warmup: int = 0,
    shm: bool = False,
    placement: str | None = None,
    explain: bool = False,
) -> int:
    from time import perf_counter

    from repro.engine import QueryRequest, SamplingEngine, demo_build

    for flag, value, least in (
        ("--n", n, 1), ("--requests", requests, 1),
        ("--repeat", repeat, 1), ("--warmup", warmup, 0),
    ):
        if value < least:
            print(f"error: {flag} must be >= {least}", file=sys.stderr)
            return 2

    sampler, template = demo_build(spec, n=n)
    batch = [
        QueryRequest(op=template.op, args=template.args, s=s)
        for _ in range(requests)
    ]
    try:
        engine = SamplingEngine(
            backend=backend, placement=placement, seed=seed, shards=shards,
            max_workers=workers,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    composed_process = engine.placement == "sharded" and engine.execution == "process"
    if explain:
        try:
            return _engine_explain(engine, sampler, batch[0], spec)
        finally:
            engine.close()
    try:
        if composed_process:
            if shm:
                print(
                    "error: --shm applies to the local process backend only; "
                    "under --placement sharded --backend process each "
                    "worker builds its own shard from a recipe sent once",
                    file=sys.stderr,
                )
                return 2
            # The composed shard-per-process backend: the engine sends
            # each worker its shard's recipe once (the worker builds the
            # shard) and ships sub-draw tasks of a few ints each.
            run_once = lambda: engine.run(sampler, batch)  # noqa: E731
        elif backend == "process":
            if shm:
                # Export the structure's arrays into shared memory: the
                # token carries only segment names, workers mmap-attach.
                token = engine.share(sampler)
            else:
                # Workers rebuild the same deterministic demo structure
                # from the ("demo", spec, n) token and keep it resident.
                token = ("demo", spec, n)
            run_once = lambda: engine.run_token(token, batch)  # noqa: E731
        elif shm:
            print(
                "error: --shm requires --backend process (shared-memory "
                "tokens only matter across process boundaries)",
                file=sys.stderr,
            )
            return 2
        else:
            run_once = lambda: engine.run(sampler, batch)  # noqa: E731
        # Warmup batches absorb one-time costs — worker residency builds
        # and shm attaches — so the timed repeats measure steady-state
        # throughput.
        for _ in range(warmup):
            run_once()
        wall_times = []
        for _ in range(repeat):
            start = perf_counter()
            results = run_once()
            wall_times.append(perf_counter() - start)
    except TypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        engine.close()
    failures = [r for r in results if not r.ok]
    described = sampler.describe()
    print(f"spec:     {spec} ({described.get('class', type(sampler).__name__)})")
    extra = f"  shards: {shards}" if engine.placement == "sharded" else ""
    if backend == "process" and not composed_process:
        extra += f"  shm: {'on' if shm else 'off'}"
    print(
        f"backend:  {backend} (placement={engine.placement}, "
        f"execution={engine.execution})  seed: {seed}  "
        f"requests: {requests}  s: {s}{extra}"
    )
    print(f"kernels:  {kernel_tier()}")
    elapsed = sum(r.elapsed_s or 0.0 for r in results)
    print(f"executed: {len(results)} requests in {elapsed:.4f}s sampler time")
    if warmup or repeat > 1:
        print(
            f"timing:   warmup={warmup} repeat={repeat}  "
            f"best={min(wall_times):.4f}s  "
            f"mean={sum(wall_times) / len(wall_times):.4f}s wall per batch"
        )
    for index, result in enumerate(results[:3]):
        print(f"  [{index}] seed={result.seed} values={result.values!r}")
    if len(results) > 3:
        print(f"  ... {len(results) - 3} more")
    if failures:
        for result in failures:
            print(f"  FAILED {result.request}: {result.error!r}")
        return 1
    return 0


def _exercise_engine_workload(n: int = 512, requests: int = 8, s: int = 4) -> None:
    """Batch the demo structure through two backends so the flight
    recorder holds a cross-process request log (parent- and worker-side
    entries under shared trace IDs)."""
    from repro.engine import QueryRequest, SamplingEngine, demo_build

    sampler, template = demo_build("range.chunked", n=n)

    def batch():
        return [
            QueryRequest(op=template.op, args=template.args, s=s)
            for _ in range(requests)
        ]

    SamplingEngine(backend="serial", seed=42).run(sampler, batch())
    with SamplingEngine(backend="process", seed=42, max_workers=2) as engine:
        engine.run_token(("demo", "range.chunked", n), batch())


def _format_table(snapshot: dict) -> str:
    lines = ["counters:"]
    for name, value in snapshot["counters"].items():
        lines.append(f"  {name:<40} {value}")
    if snapshot["gauges"]:
        lines.append("gauges:")
        for name, value in snapshot["gauges"].items():
            lines.append(f"  {name:<40} {value}")
    if snapshot["histograms"]:
        lines.append("histograms:")
        for name, data in snapshot["histograms"].items():
            lines.append(
                f"  {name:<40} count={data['count']} mean={data['mean']:.3g} "
                f"p50={data['p50']:.3g} p90={data['p90']:.3g} "
                f"p99={data['p99']:.3g}"
            )
    lines.append("derived:")
    for name, value in snapshot["derived"].items():
        rendered = "n/a" if value is None else f"{value:.4g}"
        lines.append(f"  {name:<40} {rendered}")
    return "\n".join(lines)


def _format_records(records: list) -> str:
    if not records:
        return "flight recorder is empty"
    lines = [
        f"{len(records)} flight-recorder records (oldest first):",
        f"  {'trace':<16}  {'backend':<7}  {'worker':<6}  "
        f"{'op':<14}  {'s':>4}  {'us':>9}  error",
    ]
    for r in records:
        lines.append(
            f"  {str(r['trace']):<16}  {r['backend']:<7}  {r['worker']:<6}  "
            f"{r['op']:<14}  {r['s']:>4}  {r['us']:>9.1f}  "
            f"{r['error'] or '-'}  [{r['spec']}]"
        )
    return "\n".join(lines)


def _obs_dump(fmt: str, out: str | None, no_workload: bool) -> int:
    was_enabled = obs.ENABLED
    obs.enable()
    try:
        if not no_workload:
            obs.reset()
            _exercise_workload()
            _exercise_engine_workload()
        snapshot = obs.snapshot(include_spans=(fmt == "json"))
    finally:
        if not was_enabled:
            obs.disable()
    if fmt == "json":
        text = obs.to_json(snapshot)
    elif fmt == "prometheus":
        text = obs.to_prometheus(snapshot)
    else:
        text = _format_table(snapshot)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
        print(f"wrote {fmt} snapshot to {out}")
    else:
        print(text)
    return 0


def _obs_tail(fmt: str, out: str | None, no_workload: bool, limit: int) -> int:
    """Dump the flight recorder's most recent request records."""
    import json as json_mod

    was_enabled = obs.ENABLED
    obs.enable()
    try:
        if not no_workload:
            obs.reset()
            _exercise_engine_workload()
        records = obs.tail(limit)
    finally:
        if not was_enabled:
            obs.disable()
    text = (
        json_mod.dumps(records, indent=2, sort_keys=True)
        if fmt == "json"
        else _format_records(records)
    )
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
        print(f"wrote {len(records)} records to {out}")
    else:
        print(text)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro", description=__doc__.splitlines()[0]
    )
    subparsers = parser.add_subparsers(dest="command")
    engine_parser = subparsers.add_parser(
        "engine", help="inspect the sampler registry / run batched demo queries"
    )
    engine_sub = engine_parser.add_subparsers(dest="engine_command", required=True)
    engine_sub.add_parser("list", help="print every registered sampler spec")
    run_parser = engine_sub.add_parser(
        "run", help="build SPEC on a demo dataset and batch-execute queries"
    )
    run_parser.add_argument("spec", help="registry key, e.g. range.chunked")
    run_parser.add_argument(
        "--requests", type=int, default=8, help="batch size (default: 8)"
    )
    run_parser.add_argument(
        "--s", type=int, default=4, help="samples per request (default: 4)"
    )
    run_parser.add_argument(
        "--backend", choices=("serial", "thread", "process"),
        default="serial",
    )
    run_parser.add_argument(
        "--placement", choices=("local", "sharded"), default=None,
        help="placement layer: local (default) runs requests whole; "
             "sharded splits each budget over key-space shards — "
             "composed with --backend process this is the "
             "shard-per-process backend",
    )
    run_parser.add_argument(
        "--seed", type=int, default=42, help="engine master seed (default: 42)"
    )
    run_parser.add_argument(
        "--n", type=int, default=64, help="demo structure size (default: 64)"
    )
    run_parser.add_argument(
        "--shards", type=int, default=4,
        help="shard count for --placement sharded (default: 4)",
    )
    run_parser.add_argument(
        "--workers", type=int, default=None,
        help="thread pool width and worker process count "
             "(default: min(8, cpu_count))",
    )
    run_parser.add_argument(
        "--repeat", type=int, default=1,
        help="timed executions of the batch (default: 1)",
    )
    run_parser.add_argument(
        "--warmup", type=int, default=0,
        help="untimed batch executions first — excludes worker residency "
             "builds and shm attaches from the timings (default: 0)",
    )
    run_parser.add_argument(
        "--shm", action="store_true",
        help="with --backend process: export the structure to shared "
             "memory so workers mmap-attach instead of rebuilding",
    )
    run_parser.add_argument(
        "--explain", action="store_true",
        help="print the query plan (canonical cover, cache state, and — "
             "under --placement sharded — the expected budget split per "
             "shard) without executing any draws",
    )
    obs_parser = subparsers.add_parser(
        "obs", help="run a representative workload and dump the metrics snapshot"
    )
    obs_parser.add_argument(
        "action",
        nargs="?",
        choices=("dump", "tail"),
        default="dump",
        help="dump: full metrics snapshot (default); tail: the flight "
             "recorder's recent request records",
    )
    obs_parser.add_argument(
        "--format",
        choices=("table", "json", "prometheus"),
        default="table",
        help="output format (default: table; tail supports table and json)",
    )
    obs_parser.add_argument(
        "--out", metavar="PATH", default=None, help="write to a file instead of stdout"
    )
    obs_parser.add_argument(
        "--no-workload",
        action="store_true",
        help="dump current process counters without running the exercise workload",
    )
    obs_parser.add_argument(
        "-n", "--limit", type=int, default=32,
        help="with tail: number of records to show, newest kept (default: 32)",
    )
    args = parser.parse_args(argv)
    if args.command == "engine":
        if args.engine_command == "list":
            return _engine_list()
        return _engine_run(
            args.spec, args.requests, args.s, args.backend, args.seed, args.n,
            args.shards, args.workers, repeat=args.repeat, warmup=args.warmup,
            shm=args.shm, placement=args.placement,
            explain=args.explain,
        )
    if args.command == "obs":
        if args.action == "tail":
            if args.format == "prometheus":
                parser.error("obs tail supports --format table or json")
            return _obs_tail(args.format, args.out, args.no_workload, args.limit)
        return _obs_dump(args.format, args.out, args.no_workload)
    return _info()


if __name__ == "__main__":
    sys.exit(main())
