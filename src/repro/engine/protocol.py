"""The uniform sampler protocol: typed requests, results, and dispatch.

The paper's structures answer differently-shaped queries — ``(x, y, s)``
intervals, subtree ids, set groups, near-neighbor balls — but a serving
system needs one entry point per sampler. :class:`QueryRequest` carries
the structure-specific arguments as an opaque ``args`` tuple plus the
common parts (operation name, sample count ``s``, optional per-request
seed); :class:`EngineSampler` is the mixin that turns a declarative op
table (:data:`EngineSampler.engine_ops`) into the uniform
``execute(request)`` entry the :class:`~repro.engine.executor.SamplingEngine`
drives batches through.

Request validation is centralised here (one ``ValueError``/``TypeError``
contract for every structure): a non-int ``s`` is a :class:`TypeError`,
``s < 1`` is a :class:`ValueError`, and an inverted interval raises
:class:`~repro.errors.EmptyQueryError` — itself a :class:`ValueError` —
exactly as the native ``sample(x, y, s)`` paths do.

RNG override semantics: every op method takes a keyword-only ``rng``
(``None`` means the sampler's instance stream) and threads it into every
draw it makes, embedded samplers and query-time refills included. A
seeded request therefore runs one way on every structure,
``method(*args, rng=...)``, on its own generator: the paper's eq. 1
needs nothing more than that each query's output depend on its own
randomness alone. An op's :attr:`EngineOp.spawn` bit only chooses which
generator that is (see :class:`EngineOp`). Structures whose queries
mutate instance state (pool cursors, rebuild epochs, counters) declare
``engine_thread_safe = False``; their requests then run under a
per-instance lock, so requests on one such sampler serialize while
requests on different samplers still run concurrently.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import (
    Any,
    ClassVar,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from repro.errors import EmptyQueryError
from repro.substrates.rng import ensure_rng, release_stream, spawn_rng

__all__ = [
    "EngineOp",
    "EngineSampler",
    "QueryRequest",
    "QueryResult",
    "Sampler",
    "ShardTask",
]


@dataclass(frozen=True)
class QueryRequest:
    """One sampling query, structure-agnostic.

    Parameters
    ----------
    op:
        Operation name, resolved against the sampler's op table
        (``"sample"`` everywhere; range structures add
        ``"sample_indices"`` and ``"sample_wor"``, coverage samplers add
        ``"sample_indices"``, ...).
    args:
        The structure-specific query arguments, e.g. ``(x, y)`` for a
        range sampler, ``(query_point,)`` for fair-NN, ``(group,)`` for
        set-union. Empty for whole-set samplers.
    s:
        Number of independent samples to draw (``>= 1``).
    seed:
        Optional per-request seed. ``None`` means: inside an engine
        batch, a seed spawned from the engine seed; standalone, the
        sampler's own instance stream.
    tag:
        Opaque caller correlation value, echoed on the result.
    trace_id:
        Correlation ID for observability. ``None`` (the default) lets
        the engine assign a deterministic one derived from the batch
        seed stream (:func:`repro.obs.trace_id_for` — a stateless hash,
        so sample streams stay byte-identical); set it explicitly to
        thread an upstream trace through. Echoed on the result and
        attached to every span and flight-recorder entry the request
        produces, across all backends.
    """

    op: str = "sample"
    args: Tuple[Any, ...] = ()
    s: int = 1
    seed: Optional[int] = None
    tag: Any = None
    trace_id: Optional[str] = None

    def validate(self) -> "QueryRequest":
        """Check the request's common fields; return it for chaining.

        Mirrors :func:`repro.validation.validate_sample_size` so the
        protocol path and the native ``sample(...)`` paths raise
        identically shaped errors.
        """
        if not isinstance(self.op, str) or not self.op:
            raise ValueError(f"request op must be a non-empty string, got {self.op!r}")
        if not isinstance(self.s, int) or isinstance(self.s, bool):
            raise TypeError(f"sample size must be an int, got {type(self.s)!r}")
        if self.s < 1:
            raise ValueError(f"sample size must be >= 1, got {self.s}")
        if self.seed is not None and (
            not isinstance(self.seed, int) or isinstance(self.seed, bool)
        ):
            raise TypeError(f"request seed must be an int or None, got {type(self.seed)!r}")
        if not isinstance(self.args, tuple):
            raise TypeError(f"request args must be a tuple, got {type(self.args)!r}")
        if self.trace_id is not None and not isinstance(self.trace_id, str):
            raise TypeError(
                f"request trace_id must be a str or None, got {type(self.trace_id)!r}"
            )
        return self


@dataclass
class QueryResult:
    """The outcome of one :class:`QueryRequest`.

    ``values`` holds the samples on success and ``None`` on failure;
    ``error`` holds the captured exception when the executing engine ran
    with error capture (standalone ``execute`` raises instead). ``seed``
    records the effective per-request seed (``None`` when the request
    consumed the sampler's instance stream).
    """

    request: QueryRequest
    values: Optional[List[Any]] = None
    seed: Optional[int] = None
    elapsed_s: float = 0.0
    error: Optional[Exception] = None
    trace_id: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def unwrap(self) -> List[Any]:
        """The sampled values, re-raising the captured error if any."""
        if self.error is not None:
            raise self.error
        return self.values if self.values is not None else []


class ShardTask(NamedTuple):
    """One shard's slice of a placement-planned request (§4.1).

    ``shard`` identifies the contiguous key-space piece, ``lo``/``hi``
    are the query span translated into the shard's *local* sorted-index
    coordinates, ``quota`` is that shard's multinomially assigned share
    of the request budget ``s``, and ``seed`` is the shard's stateless
    draw stream (``derive_seed(base, 1 + shard)``) — everything an
    execution backend needs to run the sub-draw anywhere: inline, on a
    thread, or in a resident worker process. Plain ints throughout, so a
    task pickles in O(1) bytes regardless of structure size.
    """

    shard: int
    lo: int
    hi: int
    quota: int
    seed: int


class EngineOp(NamedTuple):
    """One entry of a sampler's op table.

    ``method`` names the bound method implementing the op. Its call shape
    is ``method(*request.args, request.s)`` when ``takes_s`` (the common
    case), else ``method(*request.args)``; a seeded request adds the
    keyword ``rng``, which every op method accepts.

    ``spawn`` selects only *which* stream a seeded request's op draws
    from, never how the op executes: ``False`` hands it the request's
    generator itself, ``True`` a child generator seeded from 64 bits of
    it (:func:`~repro.substrates.rng.spawn_rng`). The two give different
    streams for the same seed, and the committed golden streams pin each
    op's choice, so the bit stays per op.
    """

    method: str
    takes_s: bool = True
    spawn: bool = False


@runtime_checkable
class Sampler(Protocol):
    """Structural protocol every engine-registered structure satisfies.

    ``build`` constructs from keyword params (the registry calls it);
    ``sample`` / ``sample_many`` are the family's native draw entry
    points (signatures vary by problem — the uniform, request-shaped
    entry is :meth:`execute`); ``describe`` reports identity and
    capabilities.
    """

    def sample(self, *args: Any, **kwargs: Any) -> Any: ...

    def sample_many(self, *args: Any, **kwargs: Any) -> Any: ...

    def describe(self) -> Dict[str, Any]: ...

    def execute(self, request: QueryRequest, *, rng: Any = None) -> QueryResult: ...


class EngineSampler:
    """Mixin implementing the engine protocol over a declarative op table.

    Subclasses set :data:`engine_ops` (op name → :class:`EngineOp`) and
    optionally :data:`engine_spec` (their registry key, stamped at
    registration time) and :data:`engine_thread_safe`: ``True`` when a
    query mutates no instance state, so the engine's thread backend may
    run requests on one instance in parallel; ``False`` makes
    :meth:`execute` hold a per-instance lock around the op (created on
    first use in the instance ``__dict__``, so such subclasses must not
    be slotted).
    """

    __slots__ = ()  # keep slotted subclasses (e.g. AliasSampler) slotted

    #: Registry key, filled in by :class:`~repro.engine.registry.SamplerRegistry`.
    engine_spec: ClassVar[Optional[str]] = None
    #: Op name -> EngineOp. Subclasses must override.
    engine_ops: ClassVar[Mapping[str, EngineOp]] = {}
    #: Whether concurrent execute() calls on one instance are safe; when
    #: ``False`` they serialize on a per-instance lock.
    engine_thread_safe: ClassVar[bool] = False

    @classmethod
    def build(cls, **params: Any) -> "EngineSampler":
        """Construct from keyword parameters (the registry factory hook).

        The default forwards to the constructor; structures needing
        composite setup (e.g. the EM sampler's machine) override this.
        """
        return cls(**params)

    def sample_many(self, *args: Any, **kwargs: Any) -> Any:
        """Default bulk-draw entry.

        Structures whose native ``sample`` already takes the count ``s``
        (the range/coverage families) inherit this alias; structures with
        a distinct one-draw ``sample()`` (alias, dynamic, set-union,
        fair-NN) override it with their native bulk method.
        """
        return self.sample(*args, **kwargs)

    def describe(self) -> Dict[str, Any]:
        """Identity, capabilities, and size — the ``engine list`` row."""
        try:
            size: Optional[int] = len(self)  # type: ignore[arg-type]
        except TypeError:
            size = None
        return {
            "spec": self.engine_spec,
            "type": type(self).__name__,
            "ops": sorted(self.engine_ops),
            "size": size,
            "thread_safe": self.engine_thread_safe,
        }

    def validate_request(self, request: QueryRequest) -> None:
        """Common request validation; subclasses extend (never replace)."""
        request.validate()
        if request.op not in self.engine_ops:
            raise ValueError(
                f"{type(self).__name__} does not support op {request.op!r}; "
                f"available: {sorted(self.engine_ops)}"
            )

    def execute(self, request: QueryRequest, *, rng: Any = None) -> QueryResult:
        """Run one request and return a timed :class:`QueryResult`.

        ``rng`` overrides the stream for this request (seed, ``Random``,
        or ``None``); when ``None``, ``request.seed`` is consulted, and
        failing that the sampler's instance stream is consumed. A seed
        builds a generator private to this request; a ``Random`` is
        used (or, for ``spawn`` ops, advanced by 64 bits) as given. A
        generator this call builds returns its numpy generator to the
        thread's free list when the op ends
        (:func:`~repro.substrates.rng.release_stream`).
        Errors propagate — batch-level capture is the engine's job.
        """
        self.validate_request(request)
        seed = request.seed
        if rng is None:
            rng = seed
        started = time.perf_counter()
        values = self._execute_op(request, rng)
        elapsed = time.perf_counter() - started
        return QueryResult(
            request=request,
            values=values,
            seed=seed,
            elapsed_s=elapsed,
            trace_id=request.trace_id,
        )

    def execute_many(
        self, requests: Iterable[QueryRequest], *, rng: Any = None
    ) -> List[QueryResult]:
        """Serially execute a batch of requests (one shared override rng)."""
        return [self.execute(request, rng=rng) for request in requests]

    # ------------------------------------------------------------------

    def _execute_op(self, request: QueryRequest, rng: Any) -> List[Any]:
        op = self.engine_ops[request.op]
        method = getattr(self, op.method)
        call_args = (*request.args, request.s) if op.takes_s else request.args
        # ``own`` is a generator built for this call alone; it dies with
        # the call, so its numpy generator goes back to the free list.
        own = None
        if rng is None:
            kwargs = {}
        elif isinstance(rng, random.Random):
            if op.spawn:
                rng = own = spawn_rng(rng)
            kwargs = {"rng": rng}
        else:
            own = ensure_rng(rng)
            if op.spawn:
                # A seed: re-seed this call's own generator in place to
                # the state spawn_rng would give.
                own.seed(own.getrandbits(64))
            kwargs = {"rng": own}
        try:
            if self.engine_thread_safe:
                return method(*call_args, **kwargs)
            lock = self.__dict__.get("_execute_lock")
            if lock is None:  # setdefault: racing first requests share one lock
                lock = self.__dict__.setdefault("_execute_lock", threading.Lock())
            with lock:
                return method(*call_args, **kwargs)
        finally:
            if own is not None:
                release_stream(own)


class RangeQueryMixin(EngineSampler):
    """Engine plumbing shared by every interval sampler (P3 and kin).

    Adds the interval sanity check to request validation so an inverted
    ``[x, y]`` fails identically across TreeWalk, Lemma-2, Theorem-3, the
    integer/dynamic/EM variants, and the naive baselines — the same
    :class:`~repro.errors.EmptyQueryError` (a :class:`ValueError`) the
    native paths raise.
    """

    __slots__ = ()

    engine_ops: ClassVar[Mapping[str, EngineOp]] = {
        "sample": EngineOp("sample"),
        "sample_indices": EngineOp("sample_indices"),
        "sample_wor": EngineOp("sample_without_replacement"),
    }
    engine_thread_safe: ClassVar[bool] = True

    def validate_request(self, request: QueryRequest) -> None:
        super().validate_request(request)
        if len(request.args) != 2:
            raise ValueError(
                f"range request args must be (x, y), got {request.args!r}"
            )
        x, y = request.args
        if x > y:
            raise EmptyQueryError(f"invalid query interval: x={x!r} > y={y!r}")
