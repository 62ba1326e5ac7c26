"""Golden seeded-stream snapshots for every registry spec.

The plan/execute refactor's contract is that it changes *where* the
canonical-cover computation happens, never *what* a seeded query
returns. These tests pin that contract to data: the exact output
streams of every registry spec, captured from the pre-refactor tree and
committed as ``tests/data/golden_streams.json``, must keep reproducing
byte-for-byte — warm cache, cold cache (``REPRO_PLAN_CACHE_SIZE=0``),
and across the serial/thread/sharded backends.

Regenerate (only when a capture leg is deliberately added) with::

    PYTHONPATH=src python tests/engine/test_golden_streams.py --regen

The capture uses only long-stable public entry points (``demo_build``,
``SamplingEngine``, ``QueryRequest``), so the same procedure runs
unchanged before and after the refactor — that is what makes the file a
pre/post byte-identity oracle rather than a self-fulfilling snapshot.

Streams are tier-sensitive only above the batch cutoffs. Every capture
leg but ``bulk`` keeps ``s`` below ``kernels.BATCH_MIN_SIZE`` so its
goldens hold on the scalar fallback (``REPRO_DISABLE_NUMPY=1``) too —
asserted by the CI matrix, which runs this module under both tiers. The
``bulk`` leg deliberately sits between ``BATCH_MIN_SIZE`` and
``JIT_MIN_SIZE``: it pins the numpy batch rung, and at demo size it
reaches the query-time state changes the small legs miss (EM pool
refills, set-union rebuilds). Legs whose draws differ by tier — the
bulk leg, and the EM sampler's pool refill, which splits a full pool
multinomially whatever the query's ``s`` — get a scalar-tier variant
captured alongside, stored under a ``@scalar`` leg suffix; ``--regen``
discovers such legs automatically by re-running the capture in a
``REPRO_DISABLE_NUMPY=1`` subprocess and diffing.

The ``large`` legs build the three planful range samplers at
``LARGE_N`` instead of the demo size, so Lemma 2's node tables and
Theorem 3's chunk tables come from the vectorized (packed) builders and
the pinned draws include Theorem 3's two-level draw over them. Their
``s`` values also sit in ``[BATCH_MIN_SIZE, JIT_MIN_SIZE)``, and on the
demo span each request's cover split mixes per-node counts below and
above ``BATCH_MIN_SIZE`` (scalar urn loops beside kernel draws in one
request).

The ``wor`` legs pin the WoR op of each spec that has one: three
``BATCH_S`` requests on the demo span, plus (range specs) one request
per ``WOR_LARGE_S`` at ``LARGE_N``, whose rounds of ``2·s`` draws sit
in ``[BATCH_MIN_SIZE, JIT_MIN_SIZE)``. Every ``s`` stays at or below
half its uniform-weight span, so the legs pin the duplicate-rejection
routine, not the Floyd path. ``range.chunked`` also gets
``wor_sharded2``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import kernels
from repro.engine import QueryRequest, SamplingEngine, demo_build
from repro.engine.demo import DEMO_N
from repro.engine.registry import REGISTRY

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "golden_streams.json"

#: Engine master seed for the batched legs (arbitrary, fixed forever).
ENGINE_SEED = 20260807
#: Explicit per-request seed for the standalone-execute leg.
DIRECT_SEED = 7
#: Draws per request — deliberately below kernels.BATCH_MIN_SIZE so the
#: scalar draw path runs on every tier and the streams stay
#: tier-independent.
BATCH_S = 5
DIRECT_S = 8
#: Draws per request of the ``bulk`` leg: above kernels.BATCH_MIN_SIZE
#: (16) and below kernels.JIT_MIN_SIZE (256), so it runs the numpy batch
#: rung where numpy is present and is tier-independent of numba.
BULK_S = 64
#: Requests per batched leg.
BATCH_REQUESTS = 3
#: Shard counts for the sharded-placement legs (the acceptance K set).
SHARD_COUNTS = (2, 4, 8)
#: Structure size of the ``large`` legs: past kernels.BUILD_MIN_SIZE for
#: both the Lemma-2 structure and Theorem 3's T_chunk (342 chunks).
LARGE_N = 4096
#: Per-request ``s`` of the ``large`` legs (one request each).
LARGE_S = (40, 200, 100)
#: Specs with a ``large`` leg; the first also gets ``large_sharded2``.
LARGE_SPECS = ("range.chunked", "range.lemma2", "range.treewalk")
#: Specs with a ``wor`` leg, and their WoR op; the first also gets
#: ``wor_sharded2``.
WOR_OPS = {
    "range.chunked": "sample_wor",
    "range.lemma2": "sample_wor",
    "range.naive": "sample_wor",
    "range.treewalk": "sample_wor",
    "fair_nn": "sample_distinct",
}
#: Per-request ``s`` of a range spec's ``wor`` requests at ``LARGE_N``.
WOR_LARGE_S = (40, 100)


def _normalize(values):
    """Round-trip through JSON so tuples/lists compare canonically."""
    return json.loads(json.dumps(values))


def _run_engine(spec: str, sizes, n: int = DEMO_N, op=None, **engine_kwargs):
    """One engine batch over ``spec``'s demo request (its op, or ``op``),
    one request per entry of ``sizes``."""
    sampler, template = demo_build(spec, n=n)
    engine = SamplingEngine(seed=ENGINE_SEED, **engine_kwargs)
    requests = [
        QueryRequest(op=op or template.op, args=template.args, s=s) for s in sizes
    ]
    try:
        return [_normalize(result.unwrap()) for result in engine.run(sampler, requests)]
    finally:
        engine.close()


def _run_serial(spec: str, s: int = BATCH_S):
    return _run_engine(spec, [s] * BATCH_REQUESTS, backend="serial")


def _run_thread(spec: str, s: int = BATCH_S):
    return _run_engine(spec, [s] * BATCH_REQUESTS, backend="thread", max_workers=4)


def _run_large(spec: str, **engine_kwargs):
    return _run_engine(spec, LARGE_S, n=LARGE_N, **engine_kwargs)


def _run_wor(spec: str, **engine_kwargs):
    op = WOR_OPS[spec]
    values = _run_engine(
        spec, [BATCH_S] * BATCH_REQUESTS, op=op, backend="serial", **engine_kwargs
    )
    if op == "sample_wor":
        values += _run_engine(
            spec, WOR_LARGE_S, n=LARGE_N, op=op, backend="serial", **engine_kwargs
        )
    return values


def _run_direct(spec: str):
    sampler, template = demo_build(spec)
    request = QueryRequest(
        op=template.op, args=template.args, s=DIRECT_S, seed=DIRECT_SEED
    )
    return _normalize(sampler.execute(request).unwrap())


def _run_sharded(spec: str, shards: int):
    return _run_engine(
        spec, [BATCH_S] * BATCH_REQUESTS,
        backend="serial", placement="sharded", shards=shards,
    )


def capture() -> dict:
    """Capture every leg for every spec (the --regen entry)."""
    from repro.engine.shard import ShardedSampler

    goldens: dict = {}
    for entry in REGISTRY.specs():
        spec = entry.key
        legs = {
            "serial": _run_serial(spec),
            "direct": _run_direct(spec),
            "bulk": _run_serial(spec, BULK_S),
        }
        if spec in LARGE_SPECS:
            legs["large"] = _run_large(spec, backend="serial")
        if spec == LARGE_SPECS[0]:
            legs["large_sharded2"] = _run_large(
                spec, backend="serial", placement="sharded", shards=2
            )
        if spec in WOR_OPS:
            legs["wor"] = _run_wor(spec)
        if spec == next(iter(WOR_OPS)):
            legs["wor_sharded2"] = _run_wor(spec, placement="sharded", shards=2)
        probe, _ = demo_build(spec)
        if ShardedSampler.supports(probe):
            for shards in SHARD_COUNTS:
                try:
                    legs[f"sharded{shards}"] = _run_sharded(spec, shards)
                except (TypeError, ValueError):
                    # Structure class without the (keys, weights, rng)
                    # constructor shape sharding rebuilds through.
                    break
        goldens[spec] = legs
    return goldens


def _load_goldens() -> dict:
    if not GOLDEN_PATH.exists():  # pragma: no cover - regen guard
        pytest.fail(
            f"golden stream file missing: {GOLDEN_PATH} "
            f"(regenerate with `python {__file__} --regen`)"
        )
    return json.loads(GOLDEN_PATH.read_text())


GOLDENS = _load_goldens() if GOLDEN_PATH.exists() else {}
SPECS = sorted(spec for spec in GOLDENS)


def _leg(spec: str, name: str):
    """The stored leg for this kernel tier (``@scalar`` variant wins
    when numpy kernels are off and a variant was captured)."""
    legs = GOLDENS[spec]
    if not kernels.HAVE_NUMPY:
        scalar = legs.get(f"{name}@scalar")
        if scalar is not None:
            return scalar
    return legs[name]


def test_golden_covers_every_registry_spec():
    assert sorted(entry.key for entry in REGISTRY.specs()) == SPECS


@pytest.mark.parametrize("spec", SPECS)
def test_serial_stream_matches_golden(spec):
    assert _run_serial(spec) == _leg(spec, "serial")


@pytest.mark.parametrize("spec", SPECS)
def test_direct_execute_matches_golden(spec):
    assert _run_direct(spec) == _leg(spec, "direct")


@pytest.mark.parametrize("spec", SPECS)
def test_thread_backend_matches_golden(spec):
    # Not a separate stored leg: the thread backend must be
    # byte-identical to serial, so it checks against the same golden.
    assert _run_thread(spec) == _leg(spec, "serial")


@pytest.mark.parametrize("spec", SPECS)
def test_bulk_stream_matches_golden(spec):
    assert _run_serial(spec, BULK_S) == _leg(spec, "bulk")


@pytest.mark.parametrize("spec", SPECS)
def test_thread_bulk_matches_golden(spec):
    assert _run_thread(spec, BULK_S) == _leg(spec, "bulk")


LARGE_LEG_SPECS = [spec for spec in SPECS if "large" in GOLDENS[spec]]


@pytest.mark.parametrize("spec", LARGE_LEG_SPECS)
@pytest.mark.parametrize("backend", ["serial", "thread"])
def test_large_stream_matches_golden(spec, backend):
    """Packed-table draws at LARGE_N; the thread backend must replay the
    serial capture byte for byte."""
    assert _run_large(spec, backend=backend, max_workers=2) == _leg(spec, "large")


@pytest.mark.parametrize(
    "spec", [spec for spec in SPECS if "large_sharded2" in GOLDENS[spec]]
)
@pytest.mark.parametrize("backend", ["serial", "thread"])
def test_large_sharded_stream_matches_golden(spec, backend):
    got = _run_large(
        spec, backend=backend, max_workers=2, placement="sharded", shards=2
    )
    assert got == _leg(spec, "large_sharded2")


@pytest.mark.parametrize("spec", [spec for spec in SPECS if "wor" in GOLDENS[spec]])
def test_wor_stream_matches_golden(spec):
    assert _run_wor(spec) == _leg(spec, "wor")


@pytest.mark.parametrize(
    "spec", [spec for spec in SPECS if "wor_sharded2" in GOLDENS[spec]]
)
def test_wor_sharded_stream_matches_golden(spec):
    got = _run_wor(spec, placement="sharded", shards=2)
    assert got == _leg(spec, "wor_sharded2")


@pytest.mark.parametrize(
    "spec,shards",
    [
        (spec, shards)
        for spec in SPECS
        for shards in SHARD_COUNTS
        if f"sharded{shards}" in GOLDENS.get(spec, {})
    ],
)
def test_sharded_stream_matches_golden(spec, shards):
    assert _run_sharded(spec, shards) == _leg(spec, f"sharded{shards}")


@pytest.mark.parametrize("spec", SPECS)
def test_cache_disabled_stream_matches_golden(spec, monkeypatch):
    """The cache-off leg: byte-identity must hold without memoization.

    ``REPRO_PLAN_CACHE_SIZE=0`` disables every plan cache consulted at
    sampler construction; rebuilt samplers then recompute each plan per
    query and must still replay the committed streams exactly.
    """
    monkeypatch.setenv("REPRO_PLAN_CACHE_SIZE", "0")
    assert _run_serial(spec) == _leg(spec, "serial")
    assert _run_direct(spec) == _leg(spec, "direct")
    for shards in SHARD_COUNTS:
        if f"sharded{shards}" in GOLDENS[spec]:
            assert _run_sharded(spec, shards) == _leg(spec, f"sharded{shards}")
    if "large" in GOLDENS[spec]:
        assert _run_large(spec, backend="serial") == _leg(spec, "large")


def main(argv=None) -> int:  # pragma: no cover - maintenance entry
    import argparse
    import os
    import subprocess
    import sys

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--regen", action="store_true", help="rewrite the golden stream file"
    )
    parser.add_argument(
        "--capture-json", action="store_true",
        help="print this tier's capture as JSON (used by --regen's "
             "scalar-tier subprocess)",
    )
    args = parser.parse_args(argv)
    if args.capture_json:
        print(json.dumps(capture(), sort_keys=True))
        return 0
    if not args.regen:
        parser.error("nothing to do (pass --regen)")
    if not kernels.HAVE_NUMPY:
        parser.error("--regen must run on the numpy tier (it spawns the "
                     "scalar capture itself)")
    goldens = capture()
    env = dict(os.environ, REPRO_DISABLE_NUMPY="1")
    scalar_out = subprocess.run(
        [sys.executable, __file__, "--capture-json"],
        env=env, capture_output=True, text=True, check=True,
    )
    scalar = json.loads(scalar_out.stdout)
    variants = 0
    for spec, legs in scalar.items():
        for name, values in legs.items():
            if goldens.get(spec, {}).get(name) != values:
                goldens[spec][f"{name}@scalar"] = values
                variants += 1
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    legs = sum(len(v) for v in goldens.values())
    print(
        f"wrote {len(goldens)} specs / {legs} legs "
        f"({variants} scalar-tier variants) to {GOLDEN_PATH}"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
