"""``worker.serve`` over one pipe: a failed build is retried from the
token's bytes on the next message, and a built token is never rebuilt."""

import pickle
import threading
from multiprocessing import Pipe

from repro.engine import QueryRequest, worker

KEYS = tuple(float(i) for i in range(32))
#: A shard recipe, in the shape ``_Shards.token`` sends it.
TOKEN = (
    "call",
    "repro.core.range_sampler:ChunkedRangeSampler",
    (("keys", KEYS), ("rng", 0), ("weights", tuple(1.0 + i % 3 for i in range(32)))),
)


def test_failed_build_is_retried_then_kept(monkeypatch):
    monkeypatch.setattr(worker, "_RESIDENT", {})
    builds = []
    build = worker.build_from_token

    def build_fails_once(token):
        builds.append(token)
        if len(builds) == 1:
            raise RuntimeError("injected build failure")
        return build(token)

    monkeypatch.setattr(worker, "build_from_token", build_fails_once)
    parent, child = Pipe()
    serving = threading.Thread(target=worker.serve, args=(child,), daemon=True)
    serving.start()
    envelopes = []
    try:
        parent.send_bytes(pickle.dumps(("token", 0, pickle.dumps(TOKEN))))
        for _ in range(3):
            job = (QueryRequest(op="sample", args=(2.0, 20.0), s=5), 7)
            parent.send_bytes(pickle.dumps(("chunk", 0, [job], False)))
            envelopes.append(parent.recv())
    finally:
        parent.send_bytes(pickle.dumps(None))
        serving.join(10)
    assert not serving.is_alive()
    (first_rebuilds, [first], _), (second_rebuilds, [second], _), (
        third_rebuilds, [third], _
    ) = envelopes
    assert first_rebuilds == 0
    assert isinstance(first.error, RuntimeError)
    assert "injected build failure" in str(first.error)
    assert second_rebuilds == 1 and second.ok
    assert third_rebuilds == 0 and third.ok
    assert third.values == second.values
    assert len(builds) == 2
