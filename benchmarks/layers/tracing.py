"""Span recorder and per-layer attribution for the traced benchmark run.

Spans are recorded from the benchmark's own files: :func:`install` wraps
the public functions of each layer (module attributes and class methods
of ``repro``) in timing shims and :func:`Tracer.uninstall` puts the
originals back. Nothing under ``src/`` changes, and the untraced rounds
run the program exactly as users get it.

A span is ``[name, start, end, parent, trace, thread]``. Each thread
keeps its own stack, so nested calls get their caller as parent; a span
opened on a pool thread with an empty stack is parented to the open
``engine.run`` span, because the benchmark is a single closed-loop
client and at most one ``engine.run`` is open at a time.

Attribution. A span's self time is its duration minus the time its
children cover. Children on one thread never overlap, so for them that
is a plain subtraction. The children of ``engine.run`` may run on two
pool threads at once (``cold-bulk``); there each child is charged its
wall-clock *share* (an interval where ``c`` children overlap is split
``1/c`` each) and its whole subtree is scaled by ``share / duration``.
Layer times therefore add up to the ``engine.run`` wall time exactly,
with ``engine.run``'s own self time as the unattributed residual.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

ROOT = "executor.run"

# Span fields.
NAME, START, END, PARENT, TRACE, THREAD = range(6)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._root: Optional[list] = None
        self._patches: List[Tuple[Any, str, Any]] = []
        self.cover_sizes: List[int] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Optional[Callable[[Any], None]] = None,
    ) -> Callable:
        """``fn`` timed into a span called ``name``."""
        from repro import obs

        tracer = self
        local = self._local
        spans = self.spans
        is_root = name == ROOT

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else tracer._root
            record = [
                name, 0.0, 0.0, parent, obs.current_trace(), threading.get_ident()
            ]
            stack.append(record)
            if is_root:
                tracer._root = record
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
                if is_root:
                    tracer._root = None
                spans.append(record)
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: Any, attr: str, name: str, observe=None) -> None:
        """Replace ``owner.attr`` with a traced shim (undone by uninstall)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, observe))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def drain(self) -> List[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans = self.spans[:]
        del self.spans[:]
        return spans


#: Kernel functions timed as ``kernels.<fn>``.
KERNELS = (
    "alias_draw_batch",
    "multinomial_split_batch",
    "batch_generator",
    "uniform_index_batch",
    "offset_concat_batch",
)


def install() -> Tracer:
    """Wrap every layer's public calls; returns the live tracer."""
    from repro.core import dynamic_range, kernels, range_sampler
    from repro.engine import execution, executor, protocol, shard

    tracer = Tracer()
    engine = executor.SamplingEngine
    tracer.patch(engine, "run", ROOT)
    tracer.patch(engine, "seeds_for", "executor.seed_trace")
    tracer.patch(engine, "trace_ids_for", "executor.seed_trace")
    tracer.patch(protocol.EngineSampler, "execute", "protocol.execute")
    base = range_sampler.RangeSamplerBase
    tracer.patch(base, "plan_span", "planner.plan")
    tracer.patch(base, "sample", "range_sampler.materialize")
    tracer.patch(base, "sample_indices", "range_sampler.sample_indices")
    for cls in (
        range_sampler.TreeWalkRangeSampler,
        range_sampler.AliasAugmentedRangeSampler,
        range_sampler.ChunkedRangeSampler,
    ):
        tracer.patch(cls, "execute_plan", "range_sampler.execute_plan")
    for fn in KERNELS:
        tracer.patch(kernels, fn, f"kernels.{fn}")
    # shard.py binds the placement primitives by name at import time.
    tracer.patch(shard, "plan_fan_out", "placement.fan_out")
    tracer.patch(shard, "merge_indices", "placement.merge")
    tracer.patch(shard.ShardedSampler, "sample_span", "placement.sharded_view")
    for cls in (
        execution.SerialShardRunner,
        execution.ThreadShardRunner,
        execution.ProcessShardRunner,
    ):
        tracer.patch(cls, "run_plan", "execution.run_plan")
    treap = dynamic_range.DynamicRangeSampler
    for method in ("insert", "delete", "update_weight", "execute_plan"):
        tracer.patch(treap, method, f"dynamic_range.{method}")
    tracer.patch(
        treap,
        "plan_range",
        "dynamic_range.plan_range",
        observe=lambda plan: tracer.cover_sizes.append(len(plan.weights)),
    )
    return tracer


def _overlap_shares(children: List[list]) -> Dict[int, float]:
    """Wall-clock share of each child: overlapping time is split evenly."""
    events = []
    for child in children:
        events.append((child[START], 1, id(child)))
        events.append((child[END], -1, id(child)))
    events.sort(key=lambda event: (event[0], event[1]))
    shares = {id(child): 0.0 for child in children}
    active: List[int] = []
    previous = None
    for time, kind, key in events:
        if previous is not None and active and time > previous:
            part = (time - previous) / len(active)
            for open_key in active:
                shares[open_key] += part
        previous = time
        if kind == 1:
            active.append(key)
        else:
            active.remove(key)
    return shares


def _union_length(children: List[list]) -> float:
    total = 0.0
    end = None
    for child in sorted(children, key=lambda span: span[START]):
        start = child[START] if end is None else max(child[START], end)
        if child[END] > start:
            total += child[END] - start
            end = child[END]
    return total


def attribute(
    spans: List[list], windows: Sequence[Tuple[float, float, float]]
) -> Dict[str, Any]:
    """Self time (seconds) per span name plus root totals.

    ``windows`` are ``(start, end, factor)`` blocks: a span tree whose
    top-level call started inside a block has its times multiplied by
    that block's speed factor.
    """
    children: Dict[int, List[list]] = defaultdict(list)
    roots: List[list] = []
    for span in spans:
        parent = span[PARENT]
        if parent is not None:
            children[id(parent)].append(span)
        else:
            for start, end, factor in windows:
                if start <= span[START] < end:
                    roots.append((span, factor))
                    break

    self_time: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)

    def charge(span: list, scale: float) -> float:
        """Charge ``span``'s subtree; returns the seconds charged."""
        kids = children.get(id(span), ())
        covered = sum(kid[END] - kid[START] for kid in kids)
        own = (span[END] - span[START] - covered) * scale
        self_time[span[NAME]] += own
        calls[span[NAME]] += 1
        return own + sum(charge(kid, scale) for kid in kids)

    run_total = 0.0
    layer_total = 0.0
    for root, factor in roots:
        if root[NAME] != ROOT:
            # A top-level call outside engine.run (a treap update).
            charge(root, factor)
            continue
        kids = children.get(id(root), [])
        duration = root[END] - root[START]
        calls[ROOT] += 1
        run_total += duration * factor
        self_time[ROOT] += (duration - _union_length(kids)) * factor
        shares = _overlap_shares(kids)
        for kid in kids:
            length = kid[END] - kid[START]
            scale = shares[id(kid)] / length if length > 0 else 0.0
            layer_total += charge(kid, scale * factor)
    return {
        "self_s": dict(self_time),
        "calls": dict(calls),
        "run_total_s": run_total,
        "run_layers_s": layer_total,
    }


def merge_attribution(parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum per-round attributions."""
    merged: Dict[str, Any] = {
        "self_s": defaultdict(float),
        "calls": defaultdict(int),
        "run_total_s": 0.0,
        "run_layers_s": 0.0,
    }
    for part in parts:
        for name, value in part["self_s"].items():
            merged["self_s"][name] += value
        for name, value in part["calls"].items():
            merged["calls"][name] += value
        merged["run_total_s"] += part["run_total_s"]
        merged["run_layers_s"] += part["run_layers_s"]
    merged["self_s"] = dict(merged["self_s"])
    merged["calls"] = dict(merged["calls"])
    return merged


def spans_to_json(spans: List[list], limit: int) -> List[Dict[str, Any]]:
    """The first ``limit`` engine.run trees (plus their spans) as plain data."""
    keep: Dict[int, int] = {}
    rows: List[Dict[str, Any]] = []
    origin = min((span[START] for span in spans), default=0.0)
    ordered = sorted(spans, key=lambda span: span[START])
    roots = 0
    for span in ordered:
        parent = span[PARENT]
        if parent is None:
            if roots >= limit:
                continue
            roots += 1
        elif id(parent) not in keep:
            continue
        keep[id(span)] = len(rows)
        rows.append(
            {
                "name": span[NAME],
                "start_us": (span[START] - origin) * 1e6,
                "end_us": (span[END] - origin) * 1e6,
                "parent": None if parent is None else keep[id(parent)],
                "trace": span[TRACE],
                "thread": span[THREAD],
            }
        )
    return rows


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    attribution: Dict[str, Any],
    counters: Dict[str, float],
    worker_draw_us: float,
    requests: int,
    calls: int,
    cover_sizes: List[int],
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``.

    Times are microseconds per request unless the name says per call
    (``executor.run_self_us``) or per update (``dynamic_range.insert_us``,
    ``delete_us``, ``update_weight_us``). Layers a workload never enters
    read 0.
    """
    self_s = attribution["self_s"]
    span_calls = attribution["calls"]

    def per_request(*names: str) -> float:
        return _ratio(sum(self_s.get(name, 0.0) for name in names) * 1e6, requests)

    def per_call_of(name: str) -> float:
        return _ratio(self_s.get(name, 0.0) * 1e6, span_calls.get(name, 0))

    kernel_spans = [f"kernels.{fn}" for fn in KERNELS]
    hits = counters.get("plan_cache.hits", 0)
    misses = counters.get("plan_cache.misses", 0)
    rungs = sum(
        counters.get(f"kernels.dispatch.{rung}", 0) for rung in ("scalar", "numpy", "jit")
    )
    run_plan_us = per_request("execution.run_plan")
    worker_us = _ratio(worker_draw_us, requests)
    metrics: Dict[str, Tuple[float, str]] = {
        "executor.run_self_us": (_ratio(self_s.get(ROOT, 0.0) * 1e6, calls), "us"),
        "executor.seed_trace_us": (per_request("executor.seed_trace"), "us"),
        "protocol.execute_self_us": (per_request("protocol.execute"), "us"),
        "planner.plan_us": (per_request("planner.plan"), "us"),
        "planner.hit_rate": (_ratio(hits, hits + misses), "ratio"),
        "planner.builds_per_request": (
            _ratio(misses + span_calls.get("dynamic_range.plan_range", 0), requests),
            "count",
        ),
        "planner.evictions": (float(counters.get("plan_cache.evictions", 0)), "count"),
        "range_sampler.execute_plan_self_us": (
            per_request("range_sampler.execute_plan"), "us"
        ),
        "range_sampler.materialize_us": (per_request("range_sampler.materialize"), "us"),
        "range_sampler.sample_indices_self_us": (
            per_request("range_sampler.sample_indices"), "us"
        ),
        "range_sampler.chunk_touches_per_request": (
            _ratio(counters.get("range.chunked.chunk_touches", 0), requests), "count"
        ),
        "range_sampler.urn_probes_per_draw": (
            _ratio(
                counters.get("range.lemma2.urn_probes", 0),
                counters.get("range.lemma2.draws", 0),
            ),
            "count",
        ),
        "kernels.busy_us": (per_request(*kernel_spans), "us"),
        "kernels.calls_per_request": (
            _ratio(sum(span_calls.get(name, 0) for name in kernel_spans), requests),
            "count",
        ),
        "kernels.rung_numpy_share": (
            _ratio(counters.get("kernels.dispatch.numpy", 0), rungs), "ratio"
        ),
        "placement.fan_out_us": (per_request("placement.fan_out"), "us"),
        "placement.merge_us": (per_request("placement.merge"), "us"),
        "placement.sharded_view_self_us": (per_request("placement.sharded_view"), "us"),
        "placement.shards_per_request": (
            _ratio(counters.get("engine.placement_shards", 0), requests), "count"
        ),
        "placement.plan_builds_per_request": (
            _ratio(counters.get("engine.plan_builds", 0), requests), "count"
        ),
        "execution.run_plan_us": (run_plan_us, "us"),
        "execution.worker_draw_us": (worker_us, "us"),
        "execution.wait_us": (max(0.0, run_plan_us - worker_us), "us"),
        "execution.serialized_bytes_per_request": (
            _ratio(counters.get("engine.serialized_bytes", 0), requests), "count"
        ),
        "dynamic_range.insert_us": (per_call_of("dynamic_range.insert"), "us"),
        "dynamic_range.delete_us": (per_call_of("dynamic_range.delete"), "us"),
        "dynamic_range.update_weight_us": (per_call_of("dynamic_range.update_weight"), "us"),
        "dynamic_range.plan_range_us": (per_request("dynamic_range.plan_range"), "us"),
        "dynamic_range.execute_plan_us": (per_request("dynamic_range.execute_plan"), "us"),
        "dynamic_range.cover_size": (
            _ratio(sum(cover_sizes), len(cover_sizes)), "count"
        ),
        "residual.unattributed_us": (per_request(ROOT), "us"),
        "residual.unattributed_share": (
            _ratio(self_s.get(ROOT, 0.0), attribution["run_total_s"]), "ratio"
        ),
    }
    for fn, name in zip(KERNELS, kernel_spans):
        metrics[f"kernels.{fn}_us"] = (per_request(name), "us")
    return metrics
