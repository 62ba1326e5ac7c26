"""Zero-copy shared-memory tokens: round trips, lifecycle, pickling gate.

The contract under test (repro.engine.shm + SamplingEngine.share):

* attaching a manifest yields a sampler whose draws are byte-identical
  to the original under the same rng;
* the ("shm", manifest) token is O(1) in n — process workers mmap-attach
  instead of rebuilding, so ``engine.serialized_bytes`` stays tiny while
  the structure arrays are megabytes;
* the parent owns segment lifecycle: ``close()`` unlinks everything,
  including after a worker crash broke the pool;
* attach-by-name works under both ``fork`` and ``spawn`` start methods.
"""

import gc
import multiprocessing
import pickle
from array import array
from multiprocessing.shared_memory import SharedMemory

import numpy as np
import pytest

from repro.core import kernels
from repro.core.alias import AliasSampler
from repro.core.range_sampler import (
    AliasAugmentedRangeSampler,
    ChunkedRangeSampler,
    TreeWalkRangeSampler,
)
from repro.engine import QueryRequest, SamplingEngine
from repro.engine import shm
from repro.substrates.rng import ensure_rng

FAULTY = ("call", "tests.engine.faulty:build_faulty", ())


def make_keys_weights(n=3000, seed=7):
    gen = np.random.default_rng(seed)
    keys = sorted(set(np.sort(gen.random(n)).tolist()))
    weights = (gen.random(len(keys)) + 0.1).tolist()
    return keys, weights


def range_requests(keys, count=12, s=16):
    lo, hi = keys[3], keys[-3]
    return [QueryRequest(op="sample", args=(lo, hi), s=s) for _ in range(count)]


def assert_unlinked(manifest):
    for name, _, _ in manifest["arrays"].values():
        with pytest.raises(FileNotFoundError):
            SharedMemory(name=name)


def _coverage(keys, weights):
    """Theorem 5 over a BST; ``weights=None`` takes the uniform backend."""
    from repro.core.coverage import BSTIndex, CoverageSampler

    return CoverageSampler(BSTIndex(keys, weights), rng=3)


def _draw(sampler, label, op, keys, s):
    """One ``op`` request of ``s`` draws on ``sampler`` (seeded stream)."""
    if label == "alias":
        method = sampler.sample_many if op == "sample" else sampler.sample_indices
        return method(s, rng=ensure_rng(99))
    lo, hi = keys[50], keys[-50]
    if label == "coverage":
        return getattr(sampler, op)((lo, hi), s, rng=ensure_rng(99))
    return getattr(sampler, op)(lo, hi, s, rng=ensure_rng(99))


class TestRoundTrip:
    @pytest.mark.parametrize("s", [8, 400])
    @pytest.mark.parametrize("op", ["sample", "sample_indices"])
    @pytest.mark.parametrize(
        "factory,label",
        [
            (lambda k, w: AliasSampler(list(range(len(k))), w, rng=3), "alias"),
            (lambda k, w: TreeWalkRangeSampler(k, w, rng=3), "treewalk"),
            (lambda k, w: AliasAugmentedRangeSampler(k, w, rng=3), "lemma2"),
            (lambda k, w: ChunkedRangeSampler(k, w, rng=3), "chunked"),
            (_coverage, "coverage"),
            (lambda k, w: _coverage(k, None), "coverage"),
        ],
    )
    def test_attached_draws_are_byte_identical(self, factory, label, op, s):
        # s = 8 runs the scalar loops, s = 400 the batch paths.
        keys, weights = make_keys_weights()
        original = factory(keys, weights)
        manifest, segments = shm.export_sampler(original)
        try:
            attached = shm.attach_sampler(manifest)
            assert type(attached) is type(original)
            expected = _draw(original, label, op, keys, s)
            got = _draw(attached, label, op, keys, s)
            assert got == expected
            # Attached samplers must hand back native Python scalars, not
            # numpy ones — same types a rebuilt sampler would return.
            assert [type(v) for v in got] == [type(v) for v in expected]
        finally:
            shm.unlink_segments(segments)

    @pytest.mark.parametrize("label", ["alias", "treewalk", "coverage"])
    def test_process_engine_returns_python_ints(self, label):
        # The engine path to the same contract: results from a worker's
        # attached structure serialize as JSON.
        import json

        keys, weights = make_keys_weights(500)
        if label == "alias":
            sampler, args = AliasSampler(list(range(len(keys))), weights, rng=3), ()
        elif label == "treewalk":
            sampler, args = TreeWalkRangeSampler(keys, weights, rng=3), (keys[5], keys[-5])
        else:
            sampler, args = _coverage(keys, None), ((keys[5], keys[-5]),)
        request = QueryRequest("sample_indices", args, 8, seed=11)
        with SamplingEngine("process", max_workers=1) as engine:
            (result,) = engine.run_token(engine.share(sampler), [request])
        assert result.error is None
        assert {type(v) for v in result.values} == {int}
        json.dumps(result.values)

    @pytest.mark.parametrize(
        "cls", [TreeWalkRangeSampler, AliasAugmentedRangeSampler, ChunkedRangeSampler]
    )
    def test_key_view_is_the_shared_key_segment(self, cls):
        # The gather that materializes keys reads the shared segment; no
        # attach makes a private copy of the keys.
        keys, weights = make_keys_weights(500)
        manifest, segments = shm.export_sampler(cls(keys, weights, rng=3))
        try:
            attached = shm.attach_sampler(manifest)
            assert np.shares_memory(attached._key_view(), attached.keys._arr)
        finally:
            shm.unlink_segments(segments)

    def test_token_is_small_and_picklable(self):
        keys, weights = make_keys_weights()
        sampler = TreeWalkRangeSampler(keys, weights, rng=3)
        manifest, segments = shm.export_sampler(sampler)
        try:
            blob = pickle.dumps(shm.shm_token(manifest))
            # The structure arrays are ~600 KB; the token must stay O(1).
            assert shm.manifest_nbytes(manifest) > 100_000
            assert len(blob) < 2_000
        finally:
            shm.unlink_segments(segments)

    def test_unsupported_structure_raises(self):
        from tests.engine.faulty import build_faulty

        with pytest.raises(shm.ShmShareError, match="spec token"):
            shm.export_sampler(build_faulty())

    def test_scalar_built_lemma2_round_trips(self, monkeypatch):
        # A scalar build writes the flat layout as array buffers; the
        # exporter shares them as they are, and the attached copy still
        # draws byte-identically: s=8 through the urn loop, s=200 through
        # the batch pass where numpy is on.
        monkeypatch.setattr(kernels, "HAVE_NUMPY", False)
        keys, weights = make_keys_weights(200)
        scalar_form = AliasAugmentedRangeSampler(keys, weights, rng=3)
        assert all(isinstance(part, array) for part in scalar_form._urns)
        monkeypatch.undo()
        manifest, segments = shm.export_sampler(scalar_form)
        try:
            attached = shm.attach_sampler(manifest)
            lo, hi = keys[10], keys[-10]
            for s in (8, 200):
                expected = scalar_form.sample(lo, hi, s, rng=ensure_rng(99))
                assert attached.sample(lo, hi, s, rng=ensure_rng(99)) == expected
        finally:
            shm.unlink_segments(segments)

    def test_chunked_round_trips(self):
        keys, weights = make_keys_weights(2000)
        original = ChunkedRangeSampler(keys, weights, rng=3)
        manifest, segments = shm.export_sampler(original)
        try:
            attached = shm.attach_sampler(manifest)
            assert type(attached) is ChunkedRangeSampler
            lo, hi = keys[50], keys[-50]
            expected = original.sample(lo, hi, 400, rng=ensure_rng(99))
            got = attached.sample(lo, hi, 400, rng=ensure_rng(99))
            assert got == expected
            assert {type(v) for v in got} == {type(v) for v in expected}
        finally:
            shm.unlink_segments(segments)

    @pytest.mark.parametrize("uniform", [True, False])
    def test_coverage_round_trips(self, uniform):
        from repro.core.coverage import BSTIndex, CoverageSampler

        keys, weights = make_keys_weights(800)
        if uniform:
            weights = None
        original = CoverageSampler(BSTIndex(keys, weights), rng=3)
        manifest, segments = shm.export_sampler(original)
        try:
            attached = shm.attach_sampler(manifest)
            assert attached.backend == original.backend
            query = (keys[30], keys[-30])
            expected = original.sample(query, 300, rng=ensure_rng(99))
            got = attached.sample(query, 300, rng=ensure_rng(99))
            assert got == expected
            assert {type(v) for v in got} == {type(v) for v in expected}
        finally:
            shm.unlink_segments(segments)

    def test_coverage_alias_backend_raises(self):
        from repro.core.coverage import BSTIndex, CoverageSampler

        keys, weights = make_keys_weights(100)
        sampler = CoverageSampler(BSTIndex(keys, weights), backend="alias", rng=3)
        with pytest.raises(shm.ShmShareError, match="alias"):
            shm.export_sampler(sampler)

    def test_attach_records_histogram(self, metrics_on):
        keys, weights = make_keys_weights(500)
        sampler = TreeWalkRangeSampler(keys, weights, rng=3)
        manifest, segments = shm.export_sampler(sampler)
        try:
            shm.attach_sampler(manifest)
        finally:
            shm.unlink_segments(segments)
        histograms = metrics_on.snapshot()["histograms"]
        assert histograms["engine.shm_attach_us"]["count"] >= 1


class TestEngineIntegration:
    def test_process_backend_matches_serial(self):
        keys, weights = make_keys_weights()
        sampler = TreeWalkRangeSampler(keys, weights, rng=3)
        requests = range_requests(keys)
        serial = SamplingEngine(backend="serial", seed=7).run(sampler, requests)
        with SamplingEngine(backend="process", seed=7, max_workers=2) as engine:
            token = engine.share(sampler)
            proc = engine.run_token(token, requests)
        assert [r.error for r in proc] == [None] * len(proc)
        assert [[float(v) for v in r.values] for r in proc] == [
            [float(v) for v in r.values] for r in serial
        ]

    def test_spawn_start_method(self):
        keys, weights = make_keys_weights(800)
        sampler = AliasAugmentedRangeSampler(keys, weights, rng=3)
        requests = range_requests(keys, count=4, s=8)
        serial = SamplingEngine(backend="serial", seed=7).run(sampler, requests)
        with SamplingEngine(
            backend="process", seed=7, max_workers=1, mp_context="spawn"
        ) as engine:
            token = engine.share(sampler)
            proc = engine.run_token(token, requests)
        assert [r.error for r in proc] == [None] * len(proc)
        assert [[float(v) for v in r.values] for r in proc] == [
            [float(v) for v in r.values] for r in serial
        ]

    def test_invalid_mp_context_rejected(self):
        with pytest.raises(ValueError, match="mp_context"):
            SamplingEngine(backend="process", mp_context="telepathy")

    def test_zero_structure_pickling(self, metrics_on):
        # A 50k-key structure is ~1.2 MB of arrays; the shm token keeps
        # per-batch serialization at token-size — bytes, not megabytes —
        # and residency at one attach per worker.
        keys, weights = make_keys_weights(50_000)
        sampler = TreeWalkRangeSampler(keys, weights, rng=3)
        requests = range_requests(keys, count=32, s=16)
        with SamplingEngine(backend="process", seed=7, max_workers=2) as engine:
            token = engine.share(sampler)
            assert shm.manifest_nbytes(token[1]) > 1_000_000
            results = engine.run_token(token, requests)
        assert all(r.error is None for r in results)
        counters = metrics_on.snapshot()["counters"]
        assert counters["engine.worker_rebuilds"] <= 2
        assert 0 < counters["engine.serialized_bytes"] < 50_000

    def test_share_is_memoized_per_sampler(self):
        keys, weights = make_keys_weights(500)
        sampler = TreeWalkRangeSampler(keys, weights, rng=3)
        with SamplingEngine(backend="process", seed=7) as engine:
            first = engine.share(sampler)
            second = engine.share(sampler)
            assert first is second
            assert len(engine._shm_segments) == len(first[1]["arrays"])


class TestLifecycle:
    def test_close_unlinks_segments(self):
        keys, weights = make_keys_weights(500)
        sampler = TreeWalkRangeSampler(keys, weights, rng=3)
        engine = SamplingEngine(backend="process", seed=7, max_workers=1)
        token = engine.share(sampler)
        engine.close()
        assert_unlinked(token[1])
        assert engine._shm_segments == []

    def test_close_is_idempotent_with_segments(self):
        keys, weights = make_keys_weights(500)
        sampler = TreeWalkRangeSampler(keys, weights, rng=3)
        engine = SamplingEngine(backend="process", seed=7, max_workers=1)
        token = engine.share(sampler)
        engine.close()
        engine.close()
        assert_unlinked(token[1])

    @pytest.mark.parametrize("mp_context", ["fork", "spawn"])
    def test_dropped_engine_unlinks_segments(self, mp_context):
        # An engine dropped without close() still unlinks every segment
        # share() exported, as soon as it is freed.
        keys, weights = make_keys_weights(500)
        sampler = ChunkedRangeSampler(keys, weights, rng=3)
        engine = SamplingEngine(
            backend="process", seed=7, max_workers=2, mp_context=mp_context
        )
        token = engine.share(sampler)
        results = engine.run_token(token, range_requests(keys, count=2))
        assert all(r.ok for r in results), [r.error for r in results]
        gc.disable()
        try:
            del engine
        finally:
            gc.enable()
        assert_unlinked(token[1])

    def test_close_joins_workers_before_unlinking_segments(self, monkeypatch):
        keys, weights = make_keys_weights(500)
        sampler = ChunkedRangeSampler(keys, weights, rng=3)
        before = {p.pid for p in multiprocessing.active_children()}
        engine = SamplingEngine(backend="process", seed=7, max_workers=2)
        token = engine.share(sampler)
        results = engine.run_token(token, range_requests(keys, count=4))
        assert all(r.ok for r in results), [r.error for r in results]
        processes = [r.process for r in engine._workers._residents if r is not None]
        assert len(processes) == 2
        # A return code is recorded only once the process has been waited
        # for, so this sees whether close() joined the workers before it
        # unlinked anything.
        reaped_at_unlink = []
        unlink = shm.unlink_segments

        def checked_unlink(segments):
            reaped_at_unlink.extend(p._popen.returncode for p in processes)
            unlink(segments)

        monkeypatch.setattr(shm, "unlink_segments", checked_unlink)
        engine.close()
        assert len(reaped_at_unlink) == 2 and None not in reaped_at_unlink
        assert {p.pid for p in multiprocessing.active_children()} <= before
        assert_unlinked(token[1])

    def test_no_leak_after_worker_crash(self):
        # A worker hard-dying must not leave segments behind: the parent
        # still owns them and close() unlinks every one.
        keys, weights = make_keys_weights(500)
        sampler = TreeWalkRangeSampler(keys, weights, rng=3)
        engine = SamplingEngine(backend="process", seed=7, max_workers=2)
        token = engine.share(sampler)
        crash = QueryRequest(op="sample", args=("die",), s=3)
        results = engine.run_token(FAULTY, [crash])
        assert results[0].error is not None  # the pool actually broke
        survivors = engine.run_token(token, range_requests(keys, count=4))
        assert all(r.error is None for r in survivors)
        engine.close()
        assert_unlinked(token[1])
