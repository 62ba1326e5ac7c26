"""Summarize benchmark runs and compare two commits.

``run.py`` writes one ``result-<workload>-seed<seed>.json`` per run.
This script turns a directory of them into a summary and compares two
summaries (or directories)::

    python benchmarks/layers/compare.py summarize OUT_DIR > summary.json
    python benchmarks/layers/compare.py compare PARENT CHANGE [--claim WORKLOAD:METRIC]

``compare`` refuses (exit 2) when the two sides' machine fingerprints
differ: absolute times only compare on matching machines. For every
workload and end-to-end metric it reports the change's median against
the parent's and flags a regression when the change is worse by more
than the metric's bound (``error_rate`` by any amount). When the
parent's own spread (quartile distance over median) is wider than the
bound, the metric is reported unresolved unless every change run beats
every parent run.

``--claim`` applies the gain rule: runs are paired by seed (run both
sides on the same seeds, at least ten, alternating which runs first);
the change must win at least nine tenths of the pairs, ties counting
for neither, and the medians must differ by more than the parent's
quartile distance.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from run import load_spec, median_quartiles

#: Metrics the runs report beyond BENCHMARK.json's end_to_end list
#: (dynamic-mixed's update latencies and the error rate), with bounds.
EXTRA = {
    "write_p50_us": {"unit": "us", "better": "lower", "bound": 0.15},
    "write_p99_us": {"unit": "us", "better": "lower", "bound": 0.24},
    "error_rate": {"unit": "ratio", "better": "lower", "bound": 0.0, "absolute": True},
}


def metric_table() -> Dict[str, Dict[str, Any]]:
    table = {m["name"]: dict(m) for m in load_spec()["end_to_end"]}
    table.update(EXTRA)
    return table


def summarize(directory: Path) -> Dict[str, Any]:
    """Per workload and metric: the run values, their median and quartiles."""
    fingerprints = []
    workloads: Dict[str, Any] = {}
    for path in sorted(directory.glob("result-*.json")):
        with open(path) as handle:
            record = json.load(handle)
        if record["trace"] or record["quick"]:
            continue
        fingerprints.append(record["fingerprint"])
        entry = workloads.setdefault(
            record["workload"], {"seeds": [], "correct": True, "metrics": {}}
        )
        entry["seeds"].append(record["seed"])
        entry["correct"] = entry["correct"] and record["correct"]
        for name, metric in record["metrics"].items():
            slot = entry["metrics"].setdefault(
                name, {"unit": metric["unit"], "values": [], "round_q1": [], "round_q3": []}
            )
            slot["values"].append(metric["value"])
            slot["round_q1"].append(metric["q1"])
            slot["round_q3"].append(metric["q3"])
    if not fingerprints:
        raise SystemExit(f"no untraced result files in {directory}")
    if any(fp != fingerprints[0] for fp in fingerprints):
        raise SystemExit(f"runs in {directory} come from different fingerprints")
    for entry in workloads.values():
        for slot in entry["metrics"].values():
            median, q1, q3 = median_quartiles(slot["values"])
            slot.update(median=median, q1=q1, q3=q3)
    return {"fingerprint": fingerprints[0], "workloads": workloads}


def load(path: str) -> Dict[str, Any]:
    target = Path(path)
    if target.is_dir():
        return summarize(target)
    with open(target) as handle:
        return json.load(handle)


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is, as a share of ``parent`` (negative: better)."""
    if parent == 0:
        return 0.0 if change == parent else float("inf")
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def beats(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def compare(parent: Dict[str, Any], change: Dict[str, Any]) -> Tuple[List[str], bool]:
    table = metric_table()
    lines = []
    regressed = False
    for workload, entry in sorted(parent["workloads"].items()):
        other = change["workloads"].get(workload)
        if other is None:
            lines.append(f"{workload}: missing from the change")
            regressed = True
            continue
        for name, spec in table.items():
            if name not in entry["metrics"] or name not in other["metrics"]:
                continue
            p, c = entry["metrics"][name], other["metrics"][name]
            better = spec["better"]
            if spec.get("absolute"):
                verdict = "REGRESSION" if c["median"] > p["median"] else "ok"
            else:
                worse = worse_by(p["median"], c["median"], better)
                spread = (p["q3"] - p["q1"]) / abs(p["median"]) if p["median"] else 0.0
                dominated = all(
                    beats(cv, pv, better) for cv in c["values"] for pv in p["values"]
                )
                if spread > spec["bound"] and not dominated:
                    verdict = "unresolved"
                elif worse > spec["bound"]:
                    verdict = "REGRESSION"
                else:
                    verdict = "ok"
            regressed = regressed or verdict == "REGRESSION"
            lines.append(
                f"{workload:<16} {name:<14} parent {p['median']:>12.6g} "
                f"change {c['median']:>12.6g} {spec['unit']:<6} "
                f"bound {spec['bound']:<5} {verdict}"
            )
    return lines, regressed


def claim(parent: Dict[str, Any], change: Dict[str, Any], target: str) -> Tuple[str, bool]:
    """The section-8 gain rule for one ``workload:metric``."""
    workload, _, name = target.partition(":")
    better = metric_table()[name]["better"]
    p = parent["workloads"][workload]
    c = change["workloads"][workload]
    p_by_seed = dict(zip(p["seeds"], p["metrics"][name]["values"]))
    c_by_seed = dict(zip(c["seeds"], c["metrics"][name]["values"]))
    seeds = sorted(set(p_by_seed) & set(c_by_seed))
    wins = sum(beats(c_by_seed[s], p_by_seed[s], better) for s in seeds)
    pm, cm = p["metrics"][name], c["metrics"][name]
    separated = abs(cm["median"] - pm["median"]) > pm["q3"] - pm["q1"]
    holds = len(seeds) >= 10 and wins >= 0.9 * len(seeds) and separated and beats(
        cm["median"], pm["median"], better
    )
    return (
        f"claim {target}: {wins}/{len(seeds)} pairs won, medians "
        f"{pm['median']:.6g} -> {cm['median']:.6g}, parent quartile distance "
        f"{pm['q3'] - pm['q1']:.6g}: {'holds' if holds else 'not met'}",
        holds,
    )


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    summary = sub.add_parser("summarize", help="summarize a directory of runs")
    summary.add_argument("directory")
    both = sub.add_parser("compare", help="compare a parent and a change")
    both.add_argument("parent")
    both.add_argument("change")
    both.add_argument("--claim", action="append", default=[])
    args = parser.parse_args(argv)
    if args.command == "summarize":
        print(json.dumps(summarize(Path(args.directory)), indent=1, sort_keys=True))
        return 0
    parent, change = load(args.parent), load(args.change)
    if parent["fingerprint"] != change["fingerprint"]:
        print("refusing an absolute comparison across fingerprints:", file=sys.stderr)
        for key in sorted(set(parent["fingerprint"]) | set(change["fingerprint"])):
            a, b = parent["fingerprint"].get(key), change["fingerprint"].get(key)
            if a != b:
                print(f"  {key}: {a!r} vs {b!r}", file=sys.stderr)
        return 2
    lines, regressed = compare(parent, change)
    print("\n".join(lines))
    failed = regressed
    for target in args.claim:
        line, holds = claim(parent, change, target)
        print(line)
        failed = failed or not holds
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
