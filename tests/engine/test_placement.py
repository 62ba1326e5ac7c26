"""Placement layer: backend normalization, §4.1 primitives, merge ladder.

The contracts under test (the axes in repro.engine.executor, the §4.1
primitives in repro.engine.shard):

* ``normalize_backend`` maps every backend string onto the
  placement × execution matrix and rejects nonsense (the retired
  ``"shard"`` alias included) with did-you-mean hints;
* the §4.1 primitives are pure functions of the request's stateless
  base: the split runs on ``derive_seed(base, 0)``, shard ``j`` draws on
  ``derive_seed(base, 1 + j)``, and a single-active-shard plan consumes
  no split stream at all;
* ``merge_indices`` is a deterministic shard-order merge that dispatches
  through the scalar → numpy kernel ladder;
* every ``placement="sharded"`` execution produces byte-identical
  engine output.
"""

import gc
import weakref

import pytest

from repro.core import kernels
from repro.engine import (
    BACKENDS,
    PLACEMENTS,
    QueryRequest,
    SamplingEngine,
    build,
    normalize_backend,
)
from repro.engine.shard import (
    merge_indices,
    plan_fan_out,
    shard_seed,
    split_budget,
)
from repro.substrates.rng import derive_seed

N = 240
KEYS = [float(i) for i in range(N)]
WEIGHTS = [1.0 + (i % 7) for i in range(N)]


def make_sampler(rng=1):
    return build("range.chunked", keys=KEYS, weights=WEIGHTS, rng=rng)


def make_requests(count=12, s=6):
    return [
        QueryRequest(op="sample", args=(float(i % 90), float(i % 90 + 120)), s=s)
        for i in range(count)
    ]


class TestNormalizeBackend:
    @pytest.mark.parametrize(
        "backend,expected",
        [
            ("serial", ("local", "serial")),
            ("thread", ("local", "thread")),
            ("process", ("local", "process")),
        ],
    )
    def test_legacy_strings_map_onto_the_matrix(self, backend, expected):
        assert normalize_backend(backend) == expected

    @pytest.mark.parametrize("execution", ["serial", "thread", "process"])
    @pytest.mark.parametrize("placement", ["local", "sharded"])
    def test_explicit_placement_composes_with_every_execution(
        self, placement, execution
    ):
        assert normalize_backend(execution, placement) == (placement, execution)

    @pytest.mark.parametrize("placement", [None, "local", "sharded"])
    def test_retired_shard_alias_is_rejected(self, placement):
        with pytest.raises(ValueError, match="unknown"):
            normalize_backend("shard", placement)

    def test_unknown_backend_offers_suggestions(self):
        with pytest.raises(ValueError, match="did you mean.*'serial'"):
            normalize_backend("seril")

    def test_unknown_placement_offers_suggestions(self):
        with pytest.raises(ValueError, match="did you mean.*'sharded'"):
            normalize_backend("thread", "shardedd")

    def test_unknown_execution_under_placement(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            normalize_backend("quantum", "sharded")

    def test_matrix_constants_exported(self):
        assert PLACEMENTS == ("local", "sharded")
        assert BACKENDS == ("serial", "thread", "process")


class TestSplitPrimitives:
    BASE = 0x9E3779B97F4A7C15

    def test_split_budget_is_stateless_and_exact(self):
        first = split_budget([1.0, 2.0, 3.0], 60, self.BASE)
        second = split_budget([1.0, 2.0, 3.0], 60, self.BASE)
        assert first == second
        assert sum(first) == 60
        assert all(count >= 0 for count in first)

    def test_split_runs_on_stream_zero(self):
        # Changing the base changes the split; the stream is
        # derive_seed(base, 0), disjoint from every shard stream.
        a = split_budget([1.0] * 4, 100, self.BASE)
        b = split_budget([1.0] * 4, 100, self.BASE + 1)
        assert a != b or derive_seed(self.BASE, 0) != derive_seed(self.BASE + 1, 0)

    def test_shard_seed_derivation(self):
        assert shard_seed(self.BASE, 0) == derive_seed(self.BASE, 1)
        assert shard_seed(self.BASE, 3) == derive_seed(self.BASE, 4)
        seeds = [shard_seed(self.BASE, j) for j in range(8)]
        assert len(set(seeds)) == 8

    def test_plan_single_active_shard_takes_whole_budget(self):
        (task,) = plan_fan_out([(2, 5, 30, 9.0)], 17, self.BASE)
        assert (task.shard, task.lo, task.hi, task.quota) == (2, 5, 30, 17)
        assert task.seed == shard_seed(self.BASE, 2)

    def test_plan_multi_shard_splits_and_drops_zero_quotas(self):
        active = [(0, 0, 10, 1.0), (1, 0, 10, 1.0), (2, 0, 10, 1e-12)]
        tasks = plan_fan_out(active, 40, self.BASE)
        assert sum(task.quota for task in tasks) == 40
        assert all(task.quota > 0 for task in tasks)
        expected = split_budget([1.0, 1.0, 1e-12], 40, self.BASE)
        quotas = {task.shard: task.quota for task in tasks}
        assert quotas == {
            j: count for j, count in enumerate(expected) if count > 0
        }


class TestMergeIndices:
    BOUNDS = [0, 100, 200, 300]

    def test_merge_is_shard_ordered_and_offset(self):
        partials = [(2, [1, 3]), (0, [5]), (1, [0, 9])]
        assert merge_indices(partials, self.BOUNDS) == [5, 100, 109, 201, 203]

    def test_merge_matches_scalar_reference_at_every_size(self):
        for per_shard in (2, 8, 40, 200):  # scalar, scalar, numpy, numpy
            partials = [(j, list(range(per_shard))) for j in range(3)]
            expected = [
                self.BOUNDS[j] + index
                for j in range(3)
                for index in range(per_shard)
            ]
            merged = merge_indices(partials, self.BOUNDS)
            # The batch rung keeps the merge an intp array; the scalar
            # loop below the cutoff builds a list.
            batched = kernels.use_batch(len(expected))
            assert isinstance(merged, list) != batched
            assert (merged.tolist() if batched else merged) == expected

    def test_merge_accepts_array_partials(self):
        if not kernels.HAVE_NUMPY:
            pytest.skip("array partials come from the numpy tier")
        np = kernels.np
        partials = [(1, np.arange(20, dtype=np.intp)), (0, [7] * 20)]
        merged = merge_indices(partials, self.BOUNDS)
        assert merged.dtype == np.intp
        assert merged.tolist() == [7] * 20 + list(range(100, 120))

    def test_merge_dispatch_rides_the_kernel_ladder(self, metrics_on):
        if not kernels.HAVE_NUMPY:
            pytest.skip("ladder assertions need the numpy tier")
        small = [(0, list(range(4)))]  # total 4 < BATCH_MIN_SIZE: scalar
        numpy_sized = [(j, list(range(20))) for j in range(2)]  # 40 draws
        merge_indices(small, self.BOUNDS)
        merge_indices(numpy_sized, self.BOUNDS)
        counters = metrics_on.snapshot()["counters"]
        assert counters["kernels.dispatch.scalar"] == 1
        assert counters["kernels.dispatch.numpy"] == 1
        histograms = metrics_on.snapshot()["histograms"]
        assert histograms["engine.shard_merge_us"]["count"] == 2


class TestEngineComposition:
    def test_engine_exposes_placement_and_execution(self):
        engine = SamplingEngine(placement="sharded", backend="thread", seed=1)
        assert (engine.placement, engine.execution) == ("sharded", "thread")
        composed = SamplingEngine(
            placement="sharded", backend="serial", seed=1
        )
        assert (composed.placement, composed.execution) == ("sharded", "serial")
        local = SamplingEngine(backend="thread", seed=1)
        assert (local.placement, local.execution) == ("local", "thread")

    def test_sharded_thread_matches_sharded_serial(self):
        requests = make_requests()
        threaded = SamplingEngine(
            placement="sharded", backend="thread", seed=11, shards=4, max_workers=4
        ).run(make_sampler(), requests)
        inline = SamplingEngine(
            placement="sharded", backend="serial", seed=11, shards=4
        ).run(make_sampler(), requests)
        assert all(r.ok for r in threaded)
        assert [r.values for r in inline] == [r.values for r in threaded]

    def test_dropped_engine_is_freed_without_a_collection(self):
        # Views and runners refer to nothing that owns them, so an engine
        # that was never closed is freed as soon as its last user drops it.
        for execution in ("serial", "thread", "process"):
            engine = SamplingEngine(
                placement="sharded", backend=execution, seed=1, shards=4,
                max_workers=2,
            )
            assert all(r.ok for r in engine.run(make_sampler(), make_requests()))
            dropped = weakref.ref(engine)
            gc.disable()
            try:
                del engine
                assert dropped() is None, execution
            finally:
                gc.enable()

    def test_local_process_still_requires_tokens(self):
        engine = SamplingEngine(backend="process", seed=1)
        with pytest.raises(ValueError, match="placement='sharded'"):
            engine.run(make_sampler(), make_requests(count=1))

    def test_placement_shards_counter(self, metrics_on):
        SamplingEngine(
            placement="sharded", backend="serial", seed=3, shards=4
        ).run(make_sampler(), make_requests(count=4, s=8))
        counters = metrics_on.snapshot()["counters"]
        assert counters["engine.placement_shards"] > 0
