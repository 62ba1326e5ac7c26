"""EM set sampling: the sample-pool structure and its naive rival (§8).

Problem (*set sampling*): ``S`` has ``n`` elements on disk; a query
returns ``s`` independent WR samples of ``S``, all queries mutually
independent.

* :class:`NaiveEMSetSampler` — the RAM algorithm run in EM: one random
  block access per sample, ``Θ(s)`` I/Os. Optimal in RAM, terrible on
  disk.
* :class:`SamplePoolSetSampler` — the matching upper bound of §8: keep a
  pre-drawn pool of ``n`` WR samples on disk; a query *sequentially*
  consumes the next ``s`` clean pool entries (``⌈s/B⌉`` I/Os) and the pool
  is rebuilt with external sorting when it runs dry, for an amortised
  ``O((s/B)·log_{M/B}(n/B))`` per query.

The pool rebuild follows the sorting recipe: generate pairs
``(random_index_j, j)`` for ``j = 0..n-1`` as a stream, sort by the random
index, merge-scan against the data array to attach values, then sort back
by ``j`` — since the ``random_index_j`` are iid uniform, reading the
result in ``j`` order yields ``n`` iid WR samples, at 2 sorts + 3 scans of
I/O cost.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro import obs
from repro.em.array import ExternalArray, ExternalWriter
from repro.em.model import EMMachine
from repro.em.sorting import external_merge_sort
from repro.engine.protocol import EngineOp, EngineSampler
from repro.errors import BuildError
from repro.substrates.rng import RNGLike, ensure_rng
from repro.validation import validate_sample_size

# Same registry entries as em_range_sampler.py — em.ios_per_query in the
# derived snapshot divides the machine I/Os by this shared query count.
_EM_QUERIES = obs.counter("em.queries", "EM sampling queries (§8 structures)")
_EM_REFILLS = obs.counter("em.pool_refills", "Sample-pool refills (amortised cost)")


class _EMSetEngineMixin(EngineSampler):
    """Shared engine plumbing for the §8 set samplers (args=(), op→query).

    Not thread-safe: every query reads blocks through the simulated
    machine, whose buffer pool and I/O counters it mutates, and the pool
    samplers also move their pool cursors and refill at query time.
    """

    engine_ops = {
        "sample": EngineOp("query", takes_s=True, spawn=True),
    }
    engine_thread_safe = False

    @classmethod
    def build(
        cls,
        machine: Optional[EMMachine] = None,
        values: Sequence = (),
        block_size: int = 64,
        memory_blocks: int = 8,
        **params,
    ):
        """Registry factory: assemble the simulated machine when absent."""
        if machine is None:
            machine = EMMachine(block_size=block_size, memory_blocks=memory_blocks)
        return cls(machine, values, **params)

    def sample(self, s: int, *, rng: RNGLike = None) -> List:
        """Alias for ``query`` (protocol entry)."""
        return self.query(s, rng=rng)


class NaiveEMSetSampler(_EMSetEngineMixin):
    """One random block access per sample — the §8 cautionary baseline."""

    def __init__(self, machine: EMMachine, items: Sequence, rng: RNGLike = None):
        if len(items) == 0:
            raise BuildError("cannot sample from an empty set")
        self.machine = machine
        self._data = ExternalArray.from_list(machine, items)
        self._rng = ensure_rng(rng)

    def __len__(self) -> int:
        return len(self._data)

    def query(self, s: int, *, rng: RNGLike = None) -> List:
        """``s`` WR samples via ``s`` random accesses (≈ s I/Os cold);
        ``rng`` overrides the instance stream."""
        validate_sample_size(s)
        if obs.ENABLED:
            _EM_QUERIES.inc()
        rng = self._rng if rng is None else ensure_rng(rng)
        n = len(self._data)
        return [self._data.get(int(rng.random() * n) % n) for _ in range(s)]


class SamplePoolSetSampler(_EMSetEngineMixin):
    """The §8 sample-pool structure: linear space, sequential queries."""

    def __init__(
        self,
        machine: EMMachine,
        items: Sequence,
        rng: RNGLike = None,
        pool_size: Optional[int] = None,
    ):
        if len(items) == 0:
            raise BuildError("cannot sample from an empty set")
        self.machine = machine
        self._rng = ensure_rng(rng)
        self._data = ExternalArray.from_list(machine, items)
        self._pool_size = pool_size if pool_size is not None else len(items)
        if self._pool_size < 1:
            raise BuildError("pool size must be >= 1")
        self.rebuild_count = 0
        self.rebuild_ios = 0
        self._pool: Optional[ExternalArray] = None
        self._cursor = 0  # next clean pool entry
        self._rebuild_pool()

    def __len__(self) -> int:
        return len(self._data)

    @property
    def clean_samples_left(self) -> int:
        return self._pool_size - self._cursor

    def _rebuild_pool(self, rng: RNGLike = None) -> None:
        """Refill the pool with fresh iid WR samples using the sort recipe,
        drawing from ``rng`` (the instance stream when ``None``)."""
        start_ios = self.machine.stats.total
        self.rebuild_count += 1
        if obs.ENABLED:
            _EM_REFILLS.inc()
        rng = self._rng if rng is None else rng
        n = len(self._data)

        if self._pool is not None:
            self._pool.free()

        # Stream out (random_index, slot) pairs.
        writer = ExternalWriter(self.machine)
        for slot in range(self._pool_size):
            writer.append((int(rng.random() * n) % n, slot))
        pairs = writer.finish()

        # Sort by random index so the data array can be walked sequentially.
        by_index = external_merge_sort(self.machine, pairs, free_input=True)

        # Merge-scan: attach the data value to every pair.
        valued_writer = ExternalWriter(self.machine)
        data_iter = enumerate(self._data.scan())
        current_index, current_value = next(data_iter)
        for index, slot in by_index.scan():
            while current_index < index:
                current_index, current_value = next(data_iter)
            valued_writer.append((slot, current_value))
        by_index.free()
        valued = valued_writer.finish()

        # Sort back by slot: slots were generated in order, so this
        # restores the iid generation order — a shuffled sample stream.
        by_slot = external_merge_sort(self.machine, valued, free_input=True)

        # Strip the slot tags into the final pool array.
        pool_writer = ExternalWriter(self.machine)
        for _, value in by_slot.scan():
            pool_writer.append(value)
        by_slot.free()
        self._pool = pool_writer.finish()
        self._cursor = 0
        self.rebuild_ios += self.machine.stats.total - start_ios

    def query(self, s: int, *, rng: RNGLike = None) -> List:
        """``s`` WR samples by consuming the pool sequentially.

        Marks the returned entries dirty (never reused); rebuilds the pool
        whenever it runs out mid-query, exactly as §8 prescribes, drawing
        the refill from ``rng`` (the instance stream when ``None``).
        """
        validate_sample_size(s)
        if obs.ENABLED:
            _EM_QUERIES.inc()
        assert self._pool is not None
        result: List = []
        while len(result) < s:
            available = self._pool_size - self._cursor
            if available == 0:
                self._rebuild_pool(rng)
                available = self._pool_size
            take = min(s - len(result), available)
            result.extend(self._pool.read_range(self._cursor, self._cursor + take))
            self._cursor += take
        return result
