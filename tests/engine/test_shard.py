"""Sharded × thread: seeded reproducibility, partitioning, edge cases, obs."""

import sys
import threading

import pytest

from repro.engine import QueryRequest, SamplingEngine, build
from repro.engine.shard import ShardedSampler, shard_bounds
from repro.errors import EmptyQueryError

N = 240
KEYS = [float(i) for i in range(N)]
WEIGHTS = [1.0 + (i % 7) for i in range(N)]


def make_sampler(rng=1):
    return build("range.chunked", keys=KEYS, weights=WEIGHTS, rng=rng)


def make_requests(count=24, s=6):
    return [
        QueryRequest(op="sample", args=(float(i % 90), float(i % 90 + 120)), s=s)
        for i in range(count)
    ]


def run_shard(shards, max_workers, seed=17, sampler_rng=1, requests=None):
    engine = SamplingEngine(
        placement="sharded",
        backend="thread",
        seed=seed,
        shards=shards,
        max_workers=max_workers,
    )
    return engine.run(make_sampler(rng=sampler_rng), requests or make_requests())


class TestShardBounds:
    @pytest.mark.parametrize("n,k", [(10, 1), (10, 3), (7, 7), (64, 8), (5, 2)])
    def test_bounds_partition_the_index_space(self, n, k):
        bounds = shard_bounds(n, k)
        assert bounds[0] == 0 and bounds[-1] == n
        sizes = [bounds[j + 1] - bounds[j] for j in range(k)]
        assert all(size >= 1 for size in sizes)
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1


class TestSeededReproducibility:
    @pytest.mark.parametrize("shards", [1, 2, 4, 8])
    def test_same_engine_seed_same_merged_output(self, shards):
        first = run_shard(shards, max_workers=1, sampler_rng=1)
        second = run_shard(shards, max_workers=1, sampler_rng=2)
        assert all(r.ok for r in first)
        assert [r.values for r in first] == [r.values for r in second]

    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_worker_count_does_not_change_output(self, shards):
        # The split and every shard stream derive from one stateless
        # base, so thread scheduling cannot reorder randomness.
        lone = run_shard(shards, max_workers=1)
        wide = run_shard(shards, max_workers=4)
        assert [r.values for r in lone] == [r.values for r in wide]

    def test_values_lie_in_the_query_interval(self):
        requests = make_requests(count=12, s=16)
        for result in run_shard(4, max_workers=4, requests=requests):
            x, y = result.request.args
            assert all(x <= value <= y for value in result.unwrap())

    def test_repeated_runs_are_identical(self):
        engine = SamplingEngine(placement="sharded", backend="thread", seed=5, shards=4)
        sampler = make_sampler()
        requests = make_requests(count=8)
        assert [r.values for r in engine.run(sampler, requests)] == [
            r.values for r in engine.run(sampler, requests)
        ]


class TestPartitioning:
    def test_shard_count_clamped_to_key_count(self):
        small = build("range.chunked", keys=[1.0, 2.0, 3.0], rng=1)
        view = ShardedSampler(small, 8)
        assert view.num_shards == 3
        assert view.shard_sizes() == [1, 1, 1]

    def test_query_inside_a_single_shard(self):
        # [0, 30] touches only shard 0 of 8; the other shards contribute
        # an empty sub-span and must be skipped, not sampled.
        view = ShardedSampler(make_sampler(), 8)
        values = view.sample(0.0, 30.0, 10, rng=3)
        assert all(0.0 <= value <= 30.0 for value in values)

    def test_sample_indices_map_to_global_positions(self):
        view = ShardedSampler(make_sampler(), 4)
        indices = view.sample_indices(50.0, 200.0, 20, rng=9)
        assert all(0 <= index < N for index in indices)
        assert all(50.0 <= KEYS[index] <= 200.0 for index in indices)

    def test_without_replacement_draws_distinct_keys(self):
        view = ShardedSampler(make_sampler(), 4)
        values = view.sample_without_replacement(10.0, 220.0, 24, rng=11)
        assert len(values) == len(set(values)) == 24

    def test_describe_reports_sharding(self):
        view = ShardedSampler(make_sampler(), 4)
        info = view.describe()
        assert info["shards"] == 4
        assert info["shard_type"] == "ChunkedRangeSampler"

    def test_skeleton_shares_the_sampler_lists_and_builds_no_shard(self):
        sampler = make_sampler()
        view = ShardedSampler(sampler, 4)
        assert view.keys is sampler.keys and view.weights is sampler.weights
        assert view.describe()["shard_type"] == "ChunkedRangeSampler"
        assert sum(view.shard_sizes()) == N
        assert view.shards._built == [None] * 4
        assert view.shards[2].keys == sampler.keys[N // 2:3 * N // 4]
        assert view.shards._built.count(None) == 3

    def test_a_sharded_view_cannot_be_sharded_again(self):
        view = ShardedSampler(make_sampler(), 4)
        with pytest.raises(TypeError, match="already a ShardedSampler"):
            ShardedSampler(view, 2)

    def test_engine_runs_a_callers_view_as_given(self):
        view = ShardedSampler(make_sampler(), 2)
        engine = SamplingEngine(placement="sharded", backend="serial", seed=3, shards=4)
        assert engine._view(view) is view
        requests = make_requests(count=4)
        results = engine.run(view, requests)
        assert all(r.ok for r in results)
        assert view.num_shards == 2 and engine._views == {}
        fresh = SamplingEngine(placement="sharded", backend="serial", seed=3, shards=2)
        assert [r.values for r in results] == [
            r.values for r in fresh.run(make_sampler(), requests)
        ]


def inside_shard0():
    """Requests whose span lies inside shard 0 of 4 (keys 0..59)."""
    return [QueryRequest(op="sample", args=(3.0, 40.0), s=s) for s in (4, 32)]


def over_every_shard(sizes=(8, 64)):
    return [QueryRequest(op="sample", args=(0.0, 239.0), s=s) for s in sizes]


class TestLazyBuild:
    """Every cell builds shard ``j`` where it is first read."""

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_a_batch_builds_only_the_shards_it_reads(self, backend):
        sampler = make_sampler()
        with SamplingEngine(
            placement="sharded", backend=backend, seed=11, shards=4, max_workers=2
        ) as engine:
            assert all(r.ok for r in engine.run(sampler, inside_shard0()))
            built = engine._view(sampler).shards._built
            assert [shard is not None for shard in built] == [True, False, False, False]
            outputs = [r.unwrap() for r in engine.run(sampler, over_every_shard())]
            assert None not in built
        with SamplingEngine(
            placement="sharded", backend="process", seed=11, shards=4, max_workers=2
        ) as process:
            process.run(make_sampler(), inside_shard0())
            results = process.run(make_sampler(), over_every_shard())
            assert [r.unwrap() for r in results] == outputs

    def test_racing_first_reads_draw_as_serial(self):
        # Two runs race to build one engine's shards on more pool threads
        # than cores; a shard built twice is built equal, so no draw moves.
        with SamplingEngine(
            placement="sharded", backend="serial", seed=5, shards=8
        ) as serial:
            expected = [r.unwrap() for r in serial.run(make_sampler(), over_every_shard([64] * 8))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                sampler = make_sampler()
                outputs = []
                with SamplingEngine(
                    placement="sharded", backend="thread", seed=5, shards=8, max_workers=8
                ) as engine:
                    runs = [
                        threading.Thread(
                            target=lambda: outputs.append([
                                r.unwrap()
                                for r in engine.run(sampler, over_every_shard([64] * 8))
                            ])
                        )
                        for _ in range(2)
                    ]
                    for run in runs:
                        run.start()
                    for run in runs:
                        run.join(30)
                    assert not any(run.is_alive() for run in runs)
                assert outputs == [expected, expected]
        finally:
            sys.setswitchinterval(interval)


class TestEdgeCases:
    def test_zero_s_is_captured_like_serial(self):
        bad = [QueryRequest(op="sample", args=(10.0, 100.0), s=0)]
        [serial] = SamplingEngine(backend="serial", seed=1).run(
            make_sampler(), bad
        )
        [sharded] = SamplingEngine(
            placement="sharded", backend="thread", seed=1, shards=4
        ).run(make_sampler(), bad)
        assert not serial.ok and not sharded.ok
        assert type(serial.error) is type(sharded.error)

    def test_inverted_interval_is_captured_like_serial(self):
        bad = [QueryRequest(op="sample", args=(100.0, 10.0), s=4)]
        [result] = SamplingEngine(
            placement="sharded", backend="thread", seed=1, shards=4
        ).run(make_sampler(), bad)
        assert not result.ok
        assert isinstance(result.error, ValueError)

    @pytest.mark.parametrize("span", [(-5, 10), (230, 250), (245, 250), (-10, -2)])
    def test_index_span_outside_the_keys_rejected(self, span):
        # Partial spans are not clamped and disjoint ones are not an
        # empty query: the span itself is wrong, before any plan exists.
        view = ShardedSampler(make_sampler(), 4)
        with pytest.raises(ValueError, match=rf"outside \[0, {N}\)") as info:
            view.sample_span(*span, 16, rng=7)
        assert not isinstance(info.value, EmptyQueryError)
        assert len(view.plan_cache) == 0

    def test_unshardable_sampler_raises_type_error(self):
        alias = build(
            "alias", items=[1.0, 2.0, 3.0], weights=[1.0, 1.0, 2.0], rng=1
        )
        engine = SamplingEngine(placement="sharded", backend="thread", seed=1, shards=2)
        with pytest.raises(TypeError, match="does not support key-space"):
            engine.run(alias, [QueryRequest(op="sample", s=2)])

    def test_shard_count_validation(self):
        with pytest.raises(ValueError, match="shards must be"):
            SamplingEngine(placement="sharded", backend="thread", shards=0)
        with pytest.raises(ValueError, match="num_shards must be >= 1"):
            ShardedSampler(make_sampler(), 0)
        with pytest.raises(TypeError, match="num_shards must be an int"):
            ShardedSampler(make_sampler(), 2.5)

    def test_view_is_memoized_on_the_engine_not_the_sampler(self):
        engine = SamplingEngine(placement="sharded", backend="thread", seed=1, shards=4)
        sampler = make_sampler()
        engine.run(sampler, make_requests(count=2))
        views = engine._views
        assert len(views) == 1
        (memo_sampler, view), = views.values()
        assert memo_sampler is sampler
        assert view.num_shards == 4
        engine.run(sampler, make_requests(count=2))
        assert engine._views[id(sampler)][1] is view
        # The wrapped sampler stays pristine: nothing is monkey-stashed
        # on the caller's structure, so two engines can't fight over it.
        assert not hasattr(sampler, "_engine_shard_views")

    def test_close_shuts_down_cached_views_deterministically(self):
        engine = SamplingEngine(
            placement="sharded", backend="thread", seed=1, shards=4, max_workers=4
        )
        sampler = make_sampler()
        engine.run(sampler, make_requests(count=2))
        assert engine._threads is not None  # the fan-out ran on the engine's pool
        engine.close()
        assert engine._views == {}
        assert engine._threads is None
        # close is idempotent and the engine stays usable for a new run
        engine.close()
        engine.run(sampler, make_requests(count=1))
        engine.close()


class TestObservability:
    def test_shard_counters_and_merge_histogram(self, metrics_on):
        SamplingEngine(placement="sharded", backend="thread", seed=1, shards=4).run(
            make_sampler(), make_requests(count=6, s=8)
        )
        snap = metrics_on.snapshot()
        assert snap["counters"]["engine.shards"] > 0
        assert snap["histograms"]["engine.shard_merge_us"]["count"] >= 6
