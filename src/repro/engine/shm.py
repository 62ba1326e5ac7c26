"""Zero-copy structure sharing for the process backend.

The ``"process"`` backend ships *build tokens* to its workers, and each
worker rebuilds the sampler once (``engine.worker_rebuilds``). For a big
structure that residency cost is a full O(n log n) construction **per
worker** — the arrays already sitting in the parent are rebuilt K times.

This module exports a built structure's flat buffers — alias prob/alias
tables, BST node arrays, prefix data — into named
:class:`multiprocessing.shared_memory.SharedMemory` blocks, and rebuilds
an equivalent sampler *around* those blocks on the worker side. Export
copies each buffer as the structure stores it, and attach installs the
segments through the adopt steps the builders end in (``_adopt``,
``_adopt_urns``, ``_adopt_chunks``, ``_adopt_tables``), so an attached
structure binds the same memoryviews as a built one. The
``("shm", manifest)`` token (see :mod:`repro.engine.worker`) carries only
segment names, dtypes, shapes, and O(log n) metadata — a few hundred
bytes regardless of ``n`` — so "rebuilding" in a worker becomes an mmap
attach: no structure arrays are ever pickled, and no O(n) work runs in
the worker (asserted via the ``engine.serialized_bytes`` counter and the
``engine.shm_attach_us`` histogram in ``tests/engine/test_shm.py``).

Lifecycle
---------
Segments are created by :meth:`SamplingEngine.share` and **owned by the
parent**: ``SamplingEngine.close()`` unlinks them. Workers attach
read-only and keep their handles in a process-lifetime registry
(:data:`_ATTACHED`) — they never close or unlink, so a worker crash
cannot leak a segment (POSIX shm lives until *unlink* + last unmap; the
parent always unlinks, and dead workers' mappings vanish with them).
Attaching is done untracked (``track=False`` on Python 3.13+, the
``resource_tracker.unregister`` recipe below it) so a worker exiting
cannot prematurely unlink segments other workers still use.

Name-based attach is start-method agnostic: the same token works under
``fork`` and ``spawn`` (asserted in the spawn test).

Supported structures: :class:`~repro.core.alias.AliasSampler`,
:class:`~repro.core.range_sampler.TreeWalkRangeSampler`,
:class:`~repro.core.range_sampler.AliasAugmentedRangeSampler` (the
Lemma-2 structure's flat urn tables, whichever builder made them),
:class:`~repro.core.range_sampler.ChunkedRangeSampler` (Theorem 3 —
padded flat chunk tables, Fenwick array, and the nested ``T_chunk`` ride along
under a ``tchunk.`` prefix), and
:class:`~repro.core.coverage.CoverageSampler` over a ``BSTIndex``
(uniform/chunked backends; the nested chunked structure nests under a
``cov.`` prefix). Sharing anything else raises :class:`ShmShareError`
with a pointer back to the spec-token path.
"""

from __future__ import annotations

from multiprocessing.shared_memory import SharedMemory
from time import perf_counter
from typing import Any, Dict, List, Tuple

import numpy as np

from repro import obs
from repro.substrates.rng import DEFAULT_SEED, ensure_rng

__all__ = [
    "ShmShareError",
    "export_sampler",
    "attach_sampler",
    "shm_token",
    "manifest_nbytes",
    "unlink_segments",
]

_ATTACH_US = obs.histogram(
    "engine.shm_attach_us",
    "Microseconds to attach a shared-memory structure in a worker",
)

#: Process-lifetime keepalive: segment name -> open handle. A worker that
#: attached a structure must keep the mapping alive as long as the
#: resident sampler lives (forever, for an engine worker); re-attaching the
#: same segment reuses the handle.
_ATTACHED: Dict[str, SharedMemory] = {}


class ShmShareError(TypeError):
    """The sampler's structure cannot be exported to shared memory."""


def shm_token(manifest: Dict[str, Any]) -> Tuple[str, Dict[str, Any]]:
    """The process-backend build token for an exported structure."""
    return ("shm", manifest)


def manifest_nbytes(manifest: Dict[str, Any]) -> int:
    """Total bytes of shared array payload the manifest references."""
    total = 0
    for _, dtype, shape in manifest["arrays"].values():
        n = 1
        for dim in shape:
            n *= dim
        total += n * np.dtype(dtype).itemsize
    return total


# ----------------------------------------------------------------------
# segment plumbing
# ----------------------------------------------------------------------


def _untracked_attach(name: str) -> SharedMemory:
    """Attach to an existing segment without resource-tracker ownership.

    CPython's resource tracker registers *attaches* too (bpo-39959), so a
    worker exiting would unlink segments the parent and its siblings
    still use. Python 3.13 grew ``track=False``; older versions need the
    standard unregister recipe.
    """
    try:
        return SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:  # pragma: no cover - depends on interpreter version
        pass
    shm = SharedMemory(name=name)
    try:  # pragma: no cover - CPython implementation detail
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass
    return shm


def unlink_segments(segments: List[SharedMemory]) -> None:
    """Close and unlink segments, tolerating already-gone names.

    Under the ``fork`` start method workers share the parent's resource
    tracker, so a worker's attach-side ``unregister`` (see
    :func:`_untracked_attach`) may have dropped the name the parent's
    ``unlink()`` is about to unregister — re-registering first keeps the
    tracker's books balanced instead of spraying ``KeyError`` tracebacks
    from its daemon.
    """
    for segment in segments:
        try:
            segment.close()
        except Exception:  # pragma: no cover - buffer already released
            pass
        try:
            from multiprocessing import resource_tracker

            resource_tracker.register(segment._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker gone at shutdown
            pass
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


def _export_arrays(
    arrays: Dict[str, Any],
) -> Tuple[Dict[str, Tuple[str, str, Tuple[int, ...]]], List[SharedMemory]]:
    """Copy each array into its own named segment; return (entries, segments)."""
    entries: Dict[str, Tuple[str, str, Tuple[int, ...]]] = {}
    segments: List[SharedMemory] = []
    try:
        for name, array in arrays.items():
            arr = np.ascontiguousarray(array)
            seg = SharedMemory(create=True, size=max(1, arr.nbytes))
            segments.append(seg)
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
            view[...] = arr
            entries[name] = (seg.name, arr.dtype.str, tuple(arr.shape))
    except Exception:
        unlink_segments(segments)
        raise
    return entries, segments


def _attach_array(entry: Tuple[str, str, Tuple[int, ...]]) -> Any:
    """Read-only array view over a (possibly already attached) segment."""
    name, dtype, shape = entry
    seg = _ATTACHED.get(name)
    if seg is None:
        seg = _untracked_attach(name)
        _ATTACHED[name] = seg
    view = np.ndarray(tuple(shape), dtype=np.dtype(dtype), buffer=seg.buf)
    view.setflags(write=False)
    return view


class _SharedSeq:
    """Zero-copy list facade over a shared numeric array.

    ``AliasSampler._items`` and ``RangeSamplerBase.keys`` are
    contractually Python lists whose elements flow straight into query
    results, so an attached sampler must not hand numpy scalars back to
    callers (``json`` can't serialize them, and types would differ from
    a rebuilt sampler's). Elements convert on access instead of copying
    the array into every worker.
    """

    __slots__ = ("_arr",)

    def __init__(self, arr: Any) -> None:
        self._arr = arr

    def __len__(self) -> int:
        return len(self._arr)

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return self._arr[index].tolist()
        return self._arr[index].item()

    def __iter__(self) -> Any:
        return iter(self._arr.tolist())


def _numeric_array(values: Any, context: str) -> Any:
    """Coerce to a shareable numeric array, keeping the native dtype.

    Int items must round-trip as ints (``_SharedSeq`` converts back with
    ``.item()``), so the dtype is inferred rather than forced to float64.
    """
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise ShmShareError(
            f"{context} must be numeric to share via shared memory; "
            "use a spec token for object-keyed structures"
        )
    return arr


# ----------------------------------------------------------------------
# per-structure exporters / attachers
# ----------------------------------------------------------------------


# Segment names of each structure's buffers, in its adopt step's order.
_ALIAS_BUFFERS = ("prob", "alias")
_URN_BUFFERS = ("urn.prob", "urn.alias", "urn.offset")
_CHUNK_BUFFERS = ("chunk.prob", "chunk.alias", "chunk.lengths", "chunk.starts")


def _export_alias(sampler: Any) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    arrays = {
        "items": _numeric_array(sampler._items, "AliasSampler items"),
        "weights": np.asarray(sampler._weights, dtype=np.float64),
    }
    arrays.update(zip(_ALIAS_BUFFERS, sampler._tables))
    meta = {"total_weight": sampler._total_weight}
    return arrays, meta


def _attach_alias(arrays: Dict[str, Any], meta: Dict[str, Any]) -> Any:
    from repro.core.alias import AliasSampler

    sampler = object.__new__(AliasSampler)
    items = _SharedSeq(arrays["items"])
    sampler._items = items
    sampler._items_view = items
    sampler._weights = arrays["weights"]
    sampler._adopt_tables(*(arrays[name] for name in _ALIAS_BUFFERS))
    sampler._total_weight = meta["total_weight"]
    sampler._rng = ensure_rng(meta["rng_seed"])
    return sampler


def _export_tree(tree: Any) -> Dict[str, Any]:
    """The StaticBST buffers and node keys, keyed with a ``tree.`` prefix
    (the owning sampler's ``weights`` attach to ``tree.leaf_weight``)."""
    arrays = {f"tree.{name}": buffer for name, buffer in tree.numpy_arrays().items()}
    arrays["tree.node_key"] = _numeric_array(tree._node_key, "StaticBST node keys")
    return arrays


def _attach_tree(arrays: Dict[str, Any], meta: Dict[str, Any], keys: Any) -> Any:
    from repro.substrates.bst import NODE_BUFFERS, StaticBST

    tree = object.__new__(StaticBST)
    tree.keys = keys
    tree._adopt(
        arrays["tree.node_key"],
        [tuple(b) for b in meta["level_bounds"]],
        [arrays[f"tree.{name}"] for name in NODE_BUFFERS],
    )
    return tree


def _export_range_common(sampler: Any) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    arrays = {"keys": _numeric_array(sampler.keys, f"{type(sampler).__name__} keys")}
    arrays.update(_export_tree(sampler._tree))
    meta = {
        "all_weights_equal": sampler._all_weights_equal,
        "level_bounds": [tuple(b) for b in sampler._tree.level_bounds()],
        "plan_cache_size": sampler.plan_cache.capacity,
    }
    return arrays, meta


def _attach_range_common(sampler: Any, arrays: Dict[str, Any], meta: Dict[str, Any]) -> None:
    from repro.core.planner import plan_scope

    sampler.keys = _SharedSeq(arrays["keys"])
    sampler.weights = arrays["tree.leaf_weight"]
    sampler._all_weights_equal = meta["all_weights_equal"]
    sampler._tree = _attach_tree(arrays, meta, arrays["keys"])
    sampler._rng = ensure_rng(meta["rng_seed"])
    sampler.plan_cache = plan_scope(sampler.plan_kind, meta["plan_cache_size"])


def _attach_treewalk(arrays: Dict[str, Any], meta: Dict[str, Any]) -> Any:
    from repro.core.range_sampler import TreeWalkRangeSampler

    sampler = object.__new__(TreeWalkRangeSampler)
    _attach_range_common(sampler, arrays, meta)
    return sampler


def _export_lemma2(sampler: Any) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    arrays, meta = _export_range_common(sampler)
    arrays.update(zip(_URN_BUFFERS, sampler._urns))
    return arrays, meta


def _attach_lemma2(arrays: Dict[str, Any], meta: Dict[str, Any]) -> Any:
    from repro.core.range_sampler import AliasAugmentedRangeSampler

    sampler = object.__new__(AliasAugmentedRangeSampler)
    _attach_range_common(sampler, arrays, meta)
    sampler._adopt_urns(*(arrays[name] for name in _URN_BUFFERS))
    return sampler


def _sub_manifest(
    arrays: Dict[str, Any], meta: Dict[str, Any], prefix: str, key: str
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Strip a nested export's ``prefix.`` arrays and rehydrate its meta.

    ``rng_seed`` is stamped top-level by :func:`export_sampler` only, so
    nested sub-metas inherit the outer seed here (the nested structure's
    instance stream is a fallback anyway — engine draws always carry an
    explicit per-task rng).
    """
    sub_arrays = {
        name[len(prefix) :]: arr
        for name, arr in arrays.items()
        if name.startswith(prefix)
    }
    sub_meta = dict(meta[key])
    sub_meta["rng_seed"] = meta["rng_seed"]
    return sub_arrays, sub_meta


def _export_chunked(sampler: Any) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    arrays = {
        "keys": _numeric_array(sampler.keys, "ChunkedRangeSampler keys"),
        "weights": np.asarray(sampler.weights, dtype=np.float64),
        "chunk.weights": np.asarray(sampler._chunk_weights, dtype=np.float64),
        "fenwick": np.asarray(sampler._chunk_sums._tree, dtype=np.float64),
    }
    arrays.update(zip(_CHUNK_BUFFERS, sampler._chunks))
    t_arrays, t_meta = _export_lemma2(sampler._t_chunk)
    arrays.update({f"tchunk.{name}": arr for name, arr in t_arrays.items()})
    meta = {
        "all_weights_equal": sampler._all_weights_equal,
        "chunk_size": sampler._chunk_size,
        "num_chunks": sampler._num_chunks,
        "plan_cache_size": sampler.plan_cache.capacity,
        "tchunk": t_meta,
    }
    return arrays, meta


def _attach_chunked(arrays: Dict[str, Any], meta: Dict[str, Any]) -> Any:
    from repro.core.planner import plan_scope
    from repro.core.range_sampler import ChunkedRangeSampler
    from repro.substrates.fenwick import FenwickTree

    sampler = object.__new__(ChunkedRangeSampler)
    sampler.keys = _SharedSeq(arrays["keys"])
    sampler.weights = arrays["weights"]
    sampler._all_weights_equal = meta["all_weights_equal"]
    sampler._rng = ensure_rng(meta["rng_seed"])
    sampler._chunk_size = meta["chunk_size"]
    sampler._num_chunks = meta["num_chunks"]
    sampler._adopt_chunks(*(arrays[name] for name in _CHUNK_BUFFERS))
    sampler._chunk_weights = _SharedSeq(arrays["chunk.weights"])
    # The Fenwick tree's query side only reads _tree[i]; a _SharedSeq
    # facade keeps prefix sums in native floats, matching the rebuilt
    # structure's arithmetic bit for bit.
    fenwick = object.__new__(FenwickTree)
    fenwick._tree = _SharedSeq(arrays["fenwick"])
    fenwick._size = meta["num_chunks"]
    sampler._chunk_sums = fenwick
    sampler._t_chunk = _attach_lemma2(*_sub_manifest(arrays, meta, "tchunk.", "tchunk"))
    sampler.plan_cache = plan_scope(sampler.plan_kind, meta["plan_cache_size"])
    return sampler


def _export_coverage(sampler: Any) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    index = sampler._index
    if type(index).__name__ != "BSTIndex":
        raise ShmShareError(
            f"CoverageSampler over a {type(index).__name__} index cannot be "
            "shared (only the BSTIndex adapter exposes flat node arrays); "
            "use a spec token instead"
        )
    if sampler._backend == "alias":
        raise ShmShareError(
            'CoverageSampler backend="alias" holds ragged per-subtree '
            "tables; share the uniform or chunked backend, or use a spec "
            "token instead"
        )
    tree = index._tree
    arrays = {
        "keys": _numeric_array(tree.keys, "BSTIndex keys"),
        "prefix": np.asarray(sampler._prefix, dtype=np.float64),
    }
    arrays.update(_export_tree(tree))
    meta = {
        "backend": sampler._backend,
        "level_bounds": [tuple(b) for b in tree.level_bounds()],
        "plan_cache_size": sampler.plan_cache.capacity,
    }
    if sampler._chunked is not None:
        c_arrays, c_meta = _export_chunked(sampler._chunked)
        arrays.update({f"cov.{name}": arr for name, arr in c_arrays.items()})
        meta["chunked"] = c_meta
    return arrays, meta


def _attach_coverage(arrays: Dict[str, Any], meta: Dict[str, Any]) -> Any:
    from repro.core.coverage import BSTIndex, CoverageSampler
    from repro.core.planner import plan_scope

    index = object.__new__(BSTIndex)
    index._tree = _attach_tree(arrays, meta, _SharedSeq(arrays["keys"]))
    sampler = object.__new__(CoverageSampler)
    sampler._index = index
    sampler._rng = ensure_rng(meta["rng_seed"])
    sampler._weights = _SharedSeq(arrays["tree.leaf_weight"])
    sampler._prefix = arrays["prefix"]
    sampler._backend = meta["backend"]
    sampler._span_tables = {}
    sampler._chunked = None
    if "chunked" in meta:
        sampler._chunked = _attach_chunked(
            *_sub_manifest(arrays, meta, "cov.", "chunked")
        )
    sampler.plan_cache = plan_scope(
        sampler.plan_kind, meta.get("plan_cache_size")
    )
    return sampler


_EXPORTERS = {
    "AliasSampler": ("alias", _export_alias),
    "TreeWalkRangeSampler": ("treewalk", _export_range_common),
    "AliasAugmentedRangeSampler": ("lemma2", _export_lemma2),
    "ChunkedRangeSampler": ("chunked", _export_chunked),
    "CoverageSampler": ("coverage", _export_coverage),
}

_ATTACHERS = {
    "alias": _attach_alias,
    "treewalk": _attach_treewalk,
    "lemma2": _attach_lemma2,
    "chunked": _attach_chunked,
    "coverage": _attach_coverage,
}


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------


def export_sampler(
    sampler: Any, rng_seed: int = DEFAULT_SEED
) -> Tuple[Dict[str, Any], List[SharedMemory]]:
    """Export ``sampler``'s structure arrays into shared-memory segments.

    Returns ``(manifest, segments)``. The manifest is small (segment
    names + O(log n) metadata) and picklable — wrap it with
    :func:`shm_token` to run it on the process backend. The caller owns
    the returned segments and must eventually ``close()`` + ``unlink()``
    them (:meth:`SamplingEngine.close` does this for segments created
    through :meth:`SamplingEngine.share`).

    ``rng_seed`` seeds the attached sampler's *instance* stream; batched
    engine runs normally override it per request with spawned seeds, so
    it only matters under ``seed=False`` engines.
    """
    entry = _EXPORTERS.get(type(sampler).__name__)
    if entry is None:
        supported = ", ".join(sorted(_EXPORTERS))
        raise ShmShareError(
            f"cannot share a {type(sampler).__name__} via shared memory "
            f"(supported: {supported}); use a spec token instead"
        )
    kind, export = entry
    arrays, meta = export(sampler)
    meta["rng_seed"] = int(rng_seed)
    entries, segments = _export_arrays(arrays)
    manifest = {"kind": kind, "meta": meta, "arrays": entries}
    return manifest, segments


def attach_sampler(manifest: Dict[str, Any]) -> Any:
    """Rebuild a sampler around the manifest's shared segments (read-only).

    O(arrays) mmap attaches plus O(log n) metadata work — no structure
    array is copied or pickled. Handles are kept alive for the life of
    the process (:data:`_ATTACHED`); the exporting parent owns unlink.
    Records the attach latency in the ``engine.shm_attach_us`` histogram.
    """
    start = perf_counter()
    kind = manifest["kind"]
    attach = _ATTACHERS.get(kind)
    if attach is None:
        raise ValueError(f"unknown shm manifest kind {kind!r}")
    arrays = {name: _attach_array(entry) for name, entry in manifest["arrays"].items()}
    sampler = attach(arrays, manifest["meta"])
    if obs.ENABLED:
        duration_us = (perf_counter() - start) * 1e6
        _ATTACH_US.observe(duration_us)
        # Also leave a trace-tagged span: attaches happen inside
        # process-backend workers mid-request, so the executing request's
        # trace ID (current-trace context) ties the attach cost into that
        # request's timeline once the delta is harvested home.
        attrs = {"kind": kind}
        trace = obs.current_trace()
        if trace is not None:
            attrs["trace"] = trace
        obs.REGISTRY.record_span("engine.shm_attach", duration_us, attrs)
    return sampler
