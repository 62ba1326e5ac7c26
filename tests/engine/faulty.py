"""Fault-injection sampler for the process-backend tests.

Lives in its own importable module (not a ``test_*`` file) because the
process backend's workers import it by dotted path through a
``("call", "tests.engine.faulty:build_faulty", ...)`` build token.
"""

import os
from typing import Any, ClassVar, List, Mapping, Optional, Sequence

from repro import obs
from repro.core.range_sampler import RangeSamplerBase
from repro.engine.protocol import EngineOp, EngineSampler
from repro.substrates.rng import ensure_rng

#: Environment variable naming a marker file. When it is set, a fault
#: that would kill its worker does so only if the file does not exist
#: yet, creating it first: the first attempt dies and any retry
#: succeeds. Workers see it if it is set before they start.
DIE_ONCE = "REPRO_TEST_DIE_ONCE"


def die() -> None:
    """Hard-kill this process (``os._exit``), once only under DIE_ONCE."""
    marker = os.environ.get(DIE_ONCE)
    if marker is not None:
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return
    os._exit(17)


class FaultySampler(EngineSampler):
    """Engine sampler whose behaviour is chosen per request.

    Request args are ``(behavior,)``:

    * ``"ok"`` — return ``s`` deterministic floats from the request rng.
    * ``"raise"`` — raise ``RuntimeError`` inside the worker.
    * ``"die"`` — hard-kill the worker process (:func:`die`), simulating
      a segfault/OOM kill: no exception propagates, the worker is just
      gone. A draw that survives :func:`die` continues as ``"ok"``.

    With metrics enabled, every completed ``"ok"`` draw increments the
    ``faulty.draws`` counter — a metric that exists only in worker
    processes (the parent never executes this sampler under the process
    backend), so the harvest tests can assert the parent learned it
    exclusively through :meth:`repro.obs.registry.MetricsRegistry.merge`
    auto-registration, counted exactly once per executed request even
    when crashed batchmates force phase-2 retries.
    """

    engine_ops: ClassVar[Mapping[str, EngineOp]] = {
        "sample": EngineOp("draw", takes_s=True),
    }
    engine_thread_safe: ClassVar[bool] = True

    def draw(self, behavior: str, s: int, *, rng: Any = None) -> List[float]:
        if behavior == "raise":
            raise RuntimeError("injected worker failure")
        if behavior == "die":
            die()
        base = rng.random() if rng is not None else 0.5
        if obs.ENABLED:
            obs.counter(
                "faulty.draws", "Completed FaultySampler ok-draws"
            ).inc()
        return [base + index for index in range(s)]

    def sample(self, *args: Any, **kwargs: Any) -> List[float]:
        return self.draw(*args, **kwargs)


def build_faulty(**params: Any) -> FaultySampler:
    return FaultySampler()


class FaultyRangeSampler(RangeSamplerBase):
    """Range structure whose shard hard-dies over poisoned keys.

    Keys below :data:`DIE_BELOW` are poisoned: a draw (the
    ``_draw_span`` hook, which ``sample_span`` and every shard task run)
    over a span that starts on a poisoned key calls :func:`die`. Under the
    composed ``sharded × process`` backend only the shard *owning* those
    keys has a dying resident worker, so the crash-isolation test can
    assert that requests touching that shard fail with
    ``WorkerCrashedError`` while requests confined to sibling shards
    keep succeeding on their intact residents. The class is importable
    by dotted path (this module, not a ``test_*`` file) because the
    runner's fallback ``("call", ...)`` token rebuilds it worker-side.
    """

    DIE_BELOW = 10.0

    def __init__(
        self,
        keys: Sequence[float],
        weights: Optional[Sequence[float]] = None,
        rng: Any = None,
    ):
        super().__init__(keys, weights)
        self._rng = ensure_rng(rng)

    def _draw_span(self, lo: int, hi: int, s: int, rng: Any) -> List[int]:
        if self.keys[lo] < self.DIE_BELOW:
            die()
        rng = self._rng if rng is None else rng
        width = hi - lo
        return [
            lo + min(int(rng.random() * width), width - 1) for _ in range(s)
        ]
