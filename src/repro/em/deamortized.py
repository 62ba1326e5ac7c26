"""De-amortized EM set sampling (paper §8, final remark).

The plain sample-pool structure answers most queries in ``⌈s/B⌉`` I/Os but
occasionally stalls for a full ``O((n/B)·log_{M/B}(n/B))``-I/O rebuild.
§8 notes that standard de-amortization [5] turns the amortised bound into
a worst-case one. This module implements that: two pools — an *active*
pool being consumed and a *spare* pool being rebuilt **incrementally** —
where every query advances the spare's rebuild pipeline by an amount of
work proportional to the samples it consumed. When the active pool drains,
the spare is (made) complete, the two swap, and a fresh incremental
rebuild begins.

The rebuild pipeline is the same sort-based recipe as
:class:`~repro.em.sample_pool.SamplePoolSetSampler`, re-expressed as a
generator with a yield point after every block-granular step, so progress
can be metered in O(1)-I/O units.
"""

from __future__ import annotations

import heapq
import random
from typing import Generator, List, Optional, Sequence

from repro.em.array import ExternalArray, ExternalWriter
from repro.em.model import EMMachine
from repro.em.sample_pool import _EMSetEngineMixin
from repro.errors import BuildError
from repro.substrates.rng import RNGLike, ensure_rng
from repro.validation import validate_sample_size


def _stepwise_sort(
    machine: EMMachine, array: ExternalArray
) -> Generator[None, None, ExternalArray]:
    """External merge sort that yields after each block-granular step."""
    run_length = machine.M
    runs: List[ExternalArray] = []
    n = len(array)
    start = 0
    while start < n:
        stop = min(start + run_length, n)
        chunk = array.read_range(start, stop)
        chunk.sort()
        writer = ExternalWriter(machine)
        for value in chunk:
            writer.append(value)
        runs.append(writer.finish())
        start = stop
        yield  # one run formed: O(M/B) I/Os of work
    array.free()

    fan_in = max(2, machine.memory_blocks - 1)
    while len(runs) > 1:
        next_round: List[ExternalArray] = []
        for group_start in range(0, len(runs), fan_in):
            group = runs[group_start : group_start + fan_in]
            if len(group) == 1:
                next_round.append(group[0])
                continue
            positions = [0] * len(group)
            heap = []
            for reader, run in enumerate(group):
                if len(run) > 0:
                    heap.append((run.get(0), reader))
                    positions[reader] = 1
            heapq.heapify(heap)
            writer = ExternalWriter(machine)
            emitted = 0
            while heap:
                value, reader = heapq.heappop(heap)
                writer.append(value)
                emitted += 1
                run = group[reader]
                if positions[reader] < len(run):
                    heapq.heappush(heap, (run.get(positions[reader]), reader))
                    positions[reader] += 1
                if emitted % machine.block_size == 0:
                    yield  # ~one output block of work
            merged = writer.finish()
            for run in group:
                run.free()
            next_round.append(merged)
            yield
        runs = next_round
    result = runs[0] if runs else ExternalArray(machine, 0)
    return result


class DeamortizedSamplePoolSetSampler(_EMSetEngineMixin):
    """§8 set sampling with worst-case (not just amortised) query I/O.

    Invariant: after a fraction ``f`` of the active pool has been
    consumed, at least a fraction ``f`` of the spare pool's rebuild
    pipeline has executed — so the swap never has more than one query's
    worth of catch-up to finish.
    """

    def __init__(
        self,
        machine: EMMachine,
        items: Sequence,
        rng: RNGLike = None,
        pool_size: Optional[int] = None,
        pace_factor: float = 1.25,
    ):
        if len(items) == 0:
            raise BuildError("cannot sample from an empty set")
        if pace_factor <= 1.0:
            raise BuildError("pace_factor must exceed 1 (spare must finish in time)")
        self.machine = machine
        self._rng = ensure_rng(rng)
        self._data = ExternalArray.from_list(machine, items)
        self._pool_size = pool_size if pool_size is not None else len(items)
        self._pace_factor = pace_factor
        self.rebuild_count = 0
        self.max_query_ios = 0

        # Bootstrap: build the first active pool eagerly and record the
        # pipeline's step count so future rebuilds can be paced.
        generator = self._start_rebuild()
        steps = 0
        while True:
            try:
                generator.send(self._rng)
                steps += 1
            except StopIteration as stop:
                self._active: ExternalArray = stop.value
                break
        self._steps_per_rebuild = max(1, steps)
        self._cursor = 0
        self._spare_generator = self._start_rebuild()
        self._spare_steps_done = 0
        self._spare_result: Optional[ExternalArray] = None

    def __len__(self) -> int:
        return len(self._data)

    # ------------------------------------------------------------------

    def _start_rebuild(self) -> Generator[None, random.Random, ExternalArray]:
        """A fresh pool pipeline, run to the point where it awaits its
        first step's generator."""
        pipeline = self._rebuild_generator()
        next(pipeline)
        return pipeline

    def _rebuild_generator(self) -> Generator[None, random.Random, ExternalArray]:
        """The pool pipeline of §8, one yield per block-granular step.

        Each step is resumed with ``send(rng)``, the generator of the
        query advancing it, so a step's draws come from that query's
        stream although the pipeline spans many queries.
        """
        rng = yield
        self.rebuild_count += 1
        n = len(self._data)

        writer = ExternalWriter(self.machine)
        for slot in range(self._pool_size):
            writer.append((int(rng.random() * n) % n, slot))
            if (slot + 1) % self.machine.block_size == 0:
                rng = yield
        pairs = writer.finish()

        by_index = yield from _stepwise_sort(self.machine, pairs)

        valued_writer = ExternalWriter(self.machine)
        data_iter = enumerate(self._data.scan())
        current_index, current_value = next(data_iter)
        emitted = 0
        for index, slot in by_index.scan():
            while current_index < index:
                current_index, current_value = next(data_iter)
            valued_writer.append((slot, current_value))
            emitted += 1
            if emitted % self.machine.block_size == 0:
                yield
        by_index.free()
        valued = valued_writer.finish()

        by_slot = yield from _stepwise_sort(self.machine, valued)

        pool_writer = ExternalWriter(self.machine)
        emitted = 0
        for _, value in by_slot.scan():
            pool_writer.append(value)
            emitted += 1
            if emitted % self.machine.block_size == 0:
                yield
        by_slot.free()
        return pool_writer.finish()

    def _advance_spare(self, steps: int, rng: random.Random) -> None:
        for _ in range(steps):
            if self._spare_result is not None:
                return
            try:
                self._spare_generator.send(rng)
                self._spare_steps_done += 1
            except StopIteration as stop:
                self._spare_result = stop.value
                return

    def _finish_spare_and_swap(self, rng: random.Random) -> None:
        while self._spare_result is None:
            self._advance_spare(1_000_000, rng)
        self._active.free()
        self._active = self._spare_result
        self._cursor = 0
        self._spare_result = None
        self._spare_generator = self._start_rebuild()
        self._spare_steps_done = 0

    # ------------------------------------------------------------------

    def query(self, s: int, *, rng: RNGLike = None) -> List:
        """``s`` WR samples with worst-case-bounded I/O.

        Cost per query: ``⌈s/B⌉`` sequential pool reads plus at most
        ``pace_factor · steps_per_rebuild · (s / pool_size) + O(1)``
        incremental rebuild steps, each O(1) I/Os — no rebuild spikes.
        The steps this query runs draw from ``rng`` (the instance stream
        when ``None``).
        """
        validate_sample_size(s)
        rng = self._rng if rng is None else ensure_rng(rng)
        start_ios = self.machine.stats.total
        result: List = []
        while len(result) < s:
            available = self._pool_size - self._cursor
            if available == 0:
                self._finish_spare_and_swap(rng)
                available = self._pool_size
            take = min(s - len(result), available)
            result.extend(self._active.read_range(self._cursor, self._cursor + take))
            self._cursor += take
            # Pace the spare: stay at least `pace_factor × consumed
            # fraction` through the pipeline.
            target = int(
                self._pace_factor
                * self._steps_per_rebuild
                * (self._cursor / self._pool_size)
            ) + 1
            if self._spare_steps_done < target:
                self._advance_spare(target - self._spare_steps_done, rng)
        self.max_query_ios = max(
            self.max_query_ios, self.machine.stats.total - start_ios
        )
        return result
