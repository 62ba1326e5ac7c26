"""First-class query planning: ``QueryPlan`` values and the ``PlanStore``.

Every range-sampling structure in the paper answers a query in the same
two phases: *plan* — compute a canonical decomposition of the range
(O(log n) cover nodes / urns / chunks, §3–§4) — then *execute* — draw
``s`` samples from the decomposition. Planning is a pure function of the
structure and the span and consumes **no randomness**; execution is
where every bit of randomness is spent. This module makes that split
explicit:

``QueryPlan``
    An immutable value describing one query's decomposition: the
    canonical cover spans, the per-span weights (the budget hints a
    multinomial split consumes), a sampler-kind tag, the cache key, and
    an opaque sampler-specific payload holding resolved draw state
    (alias tables, node entries, the prepared part split, and for a
    Theorem-3 plan the T_chunk sub-plan of its chunk-aligned middle).
    The payload is the whole draw state, so a query makes one store
    lookup and a span takes one store entry; state that only a draw
    needs is filled into one-slot memos on the first execute. A plan
    stays in the process that built it: a shard is planned by whichever
    process draws from it, through that process's own store.

``PlanStore``
    A bounded LRU shared by *many* samplers, keyed by structure
    fingerprint × plan kind × canonical range. The fingerprint keeps
    plans from unrelated structures apart; the LRU bound and the
    ``REPRO_PLAN_CACHE_SIZE`` environment knob are unchanged from the
    per-instance cache this store replaces.

``PlanScope``
    One sampler's view of a store: the sampler-facing ``plan_cache``
    attribute. It carries the fingerprint, looks plans up without a
    lock, delegates ``put``, and reports per-instance
    hit/miss/eviction tallies.

Because a plan is deterministic, caching plans, or building them in
another process, cannot change any query's output — only its latency.
Byte-identity of the sample streams is pinned by
``tests/engine/test_golden_streams.py``.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from collections import OrderedDict
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro import obs
from repro.substrates.env import env_int

# ----------------------------------------------------------------------
# Registry-backed counters (repro.obs), aggregated across every store in
# the process. Per-kind twins (``plan_cache.<kind>.hits`` / ``.misses``)
# are created lazily the first time a kind is seen, so the metric
# namespace only contains kinds the workload actually planned.
# ----------------------------------------------------------------------
_HITS = obs.counter("plan_cache.hits", "Query-plan cache hits (all stores)")
_MISSES = obs.counter("plan_cache.misses", "Query-plan cache misses (all stores)")
_EVICTIONS = obs.counter("plan_cache.evictions", "Query-plan cache LRU evictions")

_KIND_COUNTERS: Dict[Tuple[str, str], Any] = {}
_KIND_LOCK = threading.Lock()

#: Plans kept per store when neither the constructor argument nor the
#: environment variable overrides it. Sized for a hot-range working set:
#: each plan is O(log n) ids and floats, so a full store is kilobytes.
DEFAULT_CAPACITY = 256

#: Environment variable consulted when no capacity argument is given.
ENV_CAPACITY = "REPRO_PLAN_CACHE_SIZE"

_MISSING = object()

_FINGERPRINTS = itertools.count(1)


def next_fingerprint() -> int:
    """A process-unique structure fingerprint.

    Issued once per planful sampler instance; keying store entries by
    fingerprint is what lets one store serve many samplers without a
    structure ever seeing another structure's plans.
    """
    return next(_FINGERPRINTS)


def _kind_counter(kind: str, event: str):
    counter = _KIND_COUNTERS.get((kind, event))
    if counter is None:
        with _KIND_LOCK:
            counter = _KIND_COUNTERS.get((kind, event))
            if counter is None:
                counter = obs.counter(
                    f"plan_cache.{kind}.{event}",
                    f"Query-plan cache {event} ({kind} plans)",
                )
                _KIND_COUNTERS[(kind, event)] = counter
    return counter


def resolve_capacity(capacity: Optional[int] = None) -> int:
    """Resolve a store capacity from the argument or the environment."""
    if capacity is None:
        capacity = env_int(ENV_CAPACITY, DEFAULT_CAPACITY)
    if capacity < 0:
        raise ValueError(f"plan cache capacity must be >= 0, got {capacity}")
    return capacity


class QueryPlan:
    """One query's canonical decomposition, ready to execute.

    Parameters
    ----------
    kind:
        The planning sampler's kind tag (``"treewalk"``, ``"lemma2"``,
        ``"chunked"``, ``"coverage"``, ``"sharded"``, ...).
    key:
        The canonical cache key — a ``(lo, hi)`` index span for the
        range structures, the query object for coverage sampling.
    spans:
        Canonical cover spans as ``(lo, hi)`` pairs (``None`` for plans
        whose decomposition has no positional spans, e.g. the dynamic
        treap's subtree cover).
    weights:
        Per-part weights — the budget hints a multinomial split of the
        sample budget ``s`` consumes at execution time.
    payload:
        Sampler-specific resolved draw state (alias tables, node
        entries, prepared splits, nested sub-plans, fan-out rows).
        Opaque to everything but the owning sampler's ``execute_plan``;
        may hold live object references and is therefore never shipped
        across processes. Memo slots inside it are filled by assigning
        values that depend only on the structure and the span, so a
        cached plan is safe to execute from many threads.
    """

    __slots__ = ("kind", "key", "spans", "weights", "payload")

    def __init__(
        self,
        kind: str,
        key: Hashable,
        spans: Optional[Tuple[Tuple[int, int], ...]],
        weights: Tuple[float, ...],
        payload: Any = None,
    ):
        self.kind = kind
        self.key = key
        self.spans = spans
        self.weights = weights
        self.payload = payload

    @property
    def cover_size(self) -> int:
        """Number of canonical parts (cover nodes / Figure-2 parts)."""
        return len(self.weights)

    @property
    def total_weight(self) -> float:
        return float(sum(self.weights))

    def describe(self) -> Dict[str, Any]:
        """Human-oriented summary (the ``--explain`` payload)."""
        info: Dict[str, Any] = {
            "kind": self.kind,
            "key": self.key,
            "cover_spans": self.cover_size,
            "total_weight": self.total_weight,
        }
        if self.spans is not None:
            info["spans"] = list(self.spans)
        info["weights"] = list(self.weights)
        return info

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"QueryPlan(kind={self.kind!r}, key={self.key!r}, "
            f"cover_spans={self.cover_size})"
        )


def _fold_ended(
    live: List[Tuple[Any, Dict[int, List[int]]]], retired: Dict[int, List[int]]
) -> None:
    """Fold the tallies of threads that have ended into ``retired``
    (the caller holds the store's lock)."""
    running = []
    for thread_ref, counts in live:
        thread = thread_ref()
        if thread is not None and thread.is_alive():
            running.append((thread_ref, counts))
            continue
        for fingerprint, (hits, misses) in counts.items():
            totals = retired.setdefault(fingerprint, [0, 0])
            totals[0] += hits
            totals[1] += misses
    live[:] = running


class _Tallies(threading.local):
    """One thread's ``fingerprint -> [hits, misses]`` for one store.

    Only its own thread writes it, so a lookup counts without a lock.
    The store sums the running threads' dicts on read, and folds the
    dicts of threads that ended into its retired totals whenever it
    reads or a new thread registers, so thread churn does not grow it.
    """

    def __init__(
        self,
        live: List[Tuple[Any, Dict[int, List[int]]]],
        retired: Dict[int, List[int]],
        lock: Any,
    ) -> None:
        self.counts: Dict[int, List[int]] = {}
        with lock:
            _fold_ended(live, retired)
            live.append((weakref.ref(threading.current_thread()), self.counts))


class PlanStore:
    """Bounded LRU of query plans, shared across samplers.

    Entries are keyed ``(fingerprint, kind, key)``; per-fingerprint
    hit/miss/eviction tallies are kept so each sampler's
    :class:`PlanScope` can report its own numbers even though the
    storage (and the LRU pressure) is shared. Lookups go through a
    scope (:meth:`PlanScope.get`) and take no lock; writers do.

    Capacity ``None`` defers to ``REPRO_PLAN_CACHE_SIZE`` then
    :data:`DEFAULT_CAPACITY`; ``0`` disables the store outright (every
    lookup is a bypass; counters stay at zero).
    """

    __slots__ = (
        "_capacity",
        "_entries",
        "_lock",
        "_evictions",
        "_live",
        "_retired",
        "_tallies",
    )

    def __init__(self, capacity: Optional[int] = None):
        self._capacity = resolve_capacity(capacity)
        self._entries: "OrderedDict[Tuple[int, str, Hashable], Any]" = OrderedDict()
        # Writers (put, clears, tally bookkeeping) take the lock. A
        # lookup does not: each OrderedDict call it makes is one atomic
        # step, and it counts in its own thread's tallies.
        self._lock = threading.Lock()
        self._evictions: Dict[int, int] = {}
        # Hit/miss tallies: one dict per running thread (with a weak
        # reference to the thread), plus the totals of threads that ended.
        self._live: List[Tuple[Any, Dict[int, List[int]]]] = []
        self._retired: Dict[int, List[int]] = {}
        self._tallies = _Tallies(self._live, self._retired, self._lock)

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def enabled(self) -> bool:
        return self._capacity > 0

    def __len__(self) -> int:
        return len(self._entries)

    def scope_counts(self, fingerprint: int) -> Tuple[int, int, int]:
        """``(hits, misses, evictions)`` attributed to one fingerprint."""
        hits = misses = 0
        with self._lock:
            _fold_ended(self._live, self._retired)
            for counts in (*(counts for _, counts in self._live), self._retired):
                stats = counts.get(fingerprint)
                if stats is not None:
                    hits += stats[0]
                    misses += stats[1]
            return hits, misses, self._evictions.get(fingerprint, 0)

    def scope_size(self, fingerprint: int) -> int:
        """Entries currently held for one fingerprint (O(store) scan —
        a diagnostics accessor, not a hot path)."""
        # list() copies the keys in one step, so a concurrent lookup's
        # move_to_end cannot interrupt the scan.
        return sum(1 for fp, _, _ in list(self._entries) if fp == fingerprint)

    def put(self, fingerprint: int, kind: str, key: Hashable, plan: Any) -> None:
        """Insert (or refresh) a plan, evicting the LRU entry if full."""
        if self._capacity == 0:
            return
        full_key = (fingerprint, kind, key)
        evicted = None
        with self._lock:
            entries = self._entries
            if full_key in entries:
                entries.move_to_end(full_key)
            entries[full_key] = plan
            if len(entries) > self._capacity:
                evicted = entries.popitem(last=False)[0]
                self._evictions[evicted[0]] = self._evictions.get(evicted[0], 0) + 1
        if evicted is not None and obs.ENABLED:
            _EVICTIONS.inc()
            _kind_counter(evicted[1], "evictions").inc()

    def clear_scope(self, fingerprint: int) -> None:
        """Drop one fingerprint's plans; its counters are preserved."""
        with self._lock:
            # list(): a concurrent lookup's move_to_end would break a
            # live iteration.
            stale = [k for k in list(self._entries) if k[0] == fingerprint]
            for k in stale:
                del self._entries[k]

    def clear(self) -> None:
        """Drop all plans; counters are preserved."""
        with self._lock:
            self._entries.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PlanStore(capacity={self._capacity}, size={len(self._entries)})"


class PlanScope:
    """One sampler's view of a :class:`PlanStore`.

    This is what planful samplers expose as ``sampler.plan_cache``. It
    binds the structure fingerprint and plan kind, so the sampler-side
    call sites stay the two-liner they always were::

        plan = self.plan_cache.get((lo, hi))
        ...
        self.plan_cache.put((lo, hi), plan)

    The per-instance ``hits``/``misses``/``evictions`` tallies record
    regardless of the metrics switch; the process-wide aggregates live
    in the obs registry.
    """

    __slots__ = ("_store", "kind", "fingerprint")

    def __init__(
        self, store: PlanStore, kind: str, fingerprint: Optional[int] = None
    ):
        self._store = store
        self.kind = kind
        self.fingerprint = next_fingerprint() if fingerprint is None else fingerprint

    @property
    def store(self) -> PlanStore:
        return self._store

    def get(self, key: Hashable) -> Any:
        """The cached plan, or ``None`` (recorded as a miss).

        The hit path takes no lock: the read and the LRU touch are one
        atomic OrderedDict call each, and the tally is this thread's
        own. A plan evicted by a concurrent ``put`` between the two is
        still returned (plans are immutable values).
        """
        store = self._store
        if store._capacity == 0:
            return None
        full_key = (self.fingerprint, self.kind, key)
        plan = store._entries.get(full_key, _MISSING)
        counts = store._tallies.counts
        stats = counts.get(self.fingerprint)
        if stats is None:
            stats = counts[self.fingerprint] = [0, 0]
        if plan is _MISSING:
            stats[1] += 1
            if obs.ENABLED:
                _MISSES.inc()
                _kind_counter(self.kind, "misses").inc()
            return None
        stats[0] += 1
        try:
            store._entries.move_to_end(full_key)
        except KeyError:  # evicted since the read
            pass
        if obs.ENABLED:
            _HITS.inc()
            _kind_counter(self.kind, "hits").inc()
        return plan

    def put(self, key: Hashable, plan: Any) -> None:
        self._store.put(self.fingerprint, self.kind, key, plan)

    @property
    def hits(self) -> int:
        return self._store.scope_counts(self.fingerprint)[0]

    @property
    def misses(self) -> int:
        return self._store.scope_counts(self.fingerprint)[1]

    @property
    def evictions(self) -> int:
        return self._store.scope_counts(self.fingerprint)[2]

    @property
    def capacity(self) -> int:
        return self._store.capacity

    @property
    def enabled(self) -> bool:
        return self._store.enabled

    def __len__(self) -> int:
        return self._store.scope_size(self.fingerprint)

    def clear(self) -> None:
        self._store.clear_scope(self.fingerprint)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PlanScope(kind={self.kind!r}, fingerprint={self.fingerprint}, "
            f"capacity={self.capacity})"
        )


# ----------------------------------------------------------------------
# Engine-scoped shared stores. One store per resolved capacity: all
# samplers built without an explicit ``plan_cache_size`` share it, which
# is what makes the LRU bound a process budget instead of a per-sampler
# one. Re-resolving the environment on every call keeps the
# ``REPRO_PLAN_CACHE_SIZE`` knob live for samplers built later.
# ----------------------------------------------------------------------
_SHARED: Dict[int, PlanStore] = {}
_SHARED_LOCK = threading.Lock()


def shared_store() -> PlanStore:
    """The process-wide store for the currently resolved capacity."""
    capacity = resolve_capacity(None)
    store = _SHARED.get(capacity)
    if store is None:
        with _SHARED_LOCK:
            store = _SHARED.get(capacity)
            if store is None:
                store = PlanStore(capacity)
                _SHARED[capacity] = store
    return store


def plan_scope(kind: str, capacity: Optional[int] = None) -> PlanScope:
    """A fresh scope for one sampler instance.

    ``capacity=None`` joins the shared engine-scoped store (resolving
    the environment knob); an explicit capacity gets a private store of
    exactly that size — which keeps sizing/eviction tests exact and
    preserves the old per-instance ``plan_cache_size`` semantics.
    """
    store = shared_store() if capacity is None else PlanStore(capacity)
    return PlanScope(store, kind)


__all__ = [
    "QueryPlan",
    "PlanStore",
    "PlanScope",
    "plan_scope",
    "shared_store",
    "next_fingerprint",
    "resolve_capacity",
    "DEFAULT_CAPACITY",
    "ENV_CAPACITY",
]
