"""Key materialization of ``range.lemma2`` samples.

On the numpy rung the Lemma-2 draw keeps its indices in an ``intp``
array and ``sample`` gathers the keys from a cached numpy view of
``keys``. The output must be exactly what indexing ``keys`` with the
same draws gives — equal values of the same Python types — and keys
whose numpy view would change a type (mixed int/float) must keep the
plain list path.
"""

import pytest

from repro.core import kernels
from repro.engine import QueryRequest, SamplingEngine, build
from repro.substrates.rng import ensure_rng

N = 2048
WEIGHTS = [1.0 + (i % 9) for i in range(N)]

KEY_SETS = {
    "float": [0.5 * i + 0.25 for i in range(N)],
    "int": [3 * i - 1000 for i in range(N)],
    "mixed": [i if i % 2 else float(i) for i in range(N)],
}


def lemma2(keys, seed=5):
    return build("range.lemma2", keys=keys, weights=WEIGHTS, rng=seed)


@pytest.mark.parametrize("kind", sorted(KEY_SETS))
@pytest.mark.parametrize("s", [1, 15, 4096])
def test_sample_equals_indexed_keys(kind, s):
    keys = KEY_SETS[kind]
    sampler = lemma2(keys)
    x, y = keys[37], keys[1900]
    got = sampler.sample(x, y, s, rng=ensure_rng(11))
    indices = sampler.sample_indices(x, y, s, rng=ensure_rng(11))
    want = [keys[i] for i in indices]
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]
    assert all(x <= v <= y for v in got)


@pytest.mark.parametrize("kind, gathered", [("float", True), ("int", True), ("mixed", False)])
def test_key_view_only_when_it_round_trips(kind, gathered):
    sampler = lemma2(KEY_SETS[kind])
    view = sampler._key_view() if kernels.HAVE_NUMPY else None
    assert (view is not None) == (gathered and kernels.HAVE_NUMPY)


def test_mixed_keys_take_the_list_path():
    keys = KEY_SETS["mixed"]
    sampler = lemma2(keys)
    values = sampler.sample(keys[0], keys[-1], 4096, rng=ensure_rng(2))
    assert {type(v) for v in values} == {int, float}
    assert all(type(v) is type(keys[round(v)]) for v in values)


def test_cold_bulk_batch_identical_under_serial_and_thread():
    keys = KEY_SETS["float"]
    requests = [
        QueryRequest("sample", (keys[lo], keys[lo + width]), 4096)
        for lo, width in ((0, 2047), (100, 900), (512, 1024), (1500, 400))
    ]
    serial = SamplingEngine("serial", seed=9).run(lemma2(keys), requests)
    with SamplingEngine("thread", seed=9, max_workers=2) as engine:
        threaded = engine.run(lemma2(keys), requests)
    assert all(result.ok for result in serial + threaded)
    assert [r.values for r in serial] == [r.values for r in threaded]
    assert [[type(v) for v in r.values] for r in serial] == [
        [type(v) for v in r.values] for r in threaded
    ]
