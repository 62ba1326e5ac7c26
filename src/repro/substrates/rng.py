"""Seeded random-number-generator plumbing shared by every sampler.

All structures in this package accept either an integer seed or an existing
:class:`random.Random` instance. Centralising the coercion here keeps each
sampler deterministic under a fixed seed (required for reproducible tests
and benchmarks) while allowing several structures to share one generator —
the setting in which the paper's cross-query independence guarantee (§1,
eq. 1) is actually interesting.

Default-seed policy (the single place it is documented):

* ``rng=None`` (the default everywhere) seeds a fresh generator with
  :data:`DEFAULT_SEED`, so out-of-the-box library behaviour is
  reproducible — two identically-built samplers produce identical
  streams. Pass ``random.Random()`` explicitly for OS-entropy seeding.
* ``rng=<int>`` seeds a fresh generator with that integer.
* ``rng=<random.Random>`` is used as-is (shared, stateful). Composite
  structures hand the *same* object to their sub-structures so the whole
  index is a pure function of one seed.
* Batch kernels derive a NumPy generator from the ``random.Random``
  stream exactly once (``repro.core.kernels.batch_generator``), so the
  scalar and vectorized paths stay jointly determined by the same seed.
* The engine layer (:mod:`repro.engine`) gives every request in a batch
  its own independent stream by *seed-spawning*: request ``i`` of an
  engine seeded with ``seed`` uses :func:`derive_seed`\\ ``(seed, i)``
  unless the request carries an explicit per-request seed.

No sampler may fall back to the global :mod:`random` module or construct
``random.Random()`` locally; everything funnels through
:func:`ensure_rng`.
"""

from __future__ import annotations

from contextlib import contextmanager
import random
from typing import Iterator, List, Optional, Union

RNGLike = Union[int, random.Random, None]

#: Fixed default seed used when ``rng=None`` — see the module docstring
#: for the full policy.
DEFAULT_SEED = 0x51_AB_5E_ED

_MASK64 = (1 << 64) - 1


def ensure_rng(rng: RNGLike = None) -> random.Random:
    """Coerce ``rng`` into a :class:`random.Random`.

    ``None`` yields a generator seeded with :data:`DEFAULT_SEED` so that
    library behaviour is reproducible out of the box; pass
    ``random.Random()`` explicitly for OS-entropy seeding.
    """
    if rng is None:
        return random.Random(DEFAULT_SEED)
    if isinstance(rng, random.Random):
        return rng
    if isinstance(rng, int):
        return random.Random(rng)
    raise TypeError(f"expected int seed or random.Random, got {type(rng)!r}")


def spawn_rng(rng: random.Random, salt: Optional[int] = None) -> random.Random:
    """Derive an independent child generator from ``rng``.

    Used when a composite structure (e.g. the chunked sampler of Theorem 3)
    wants sub-structures with their own streams while remaining fully
    determined by the parent seed.
    """
    seed = rng.getrandbits(64)
    if salt is not None:
        seed ^= salt
    return random.Random(seed)


def derive_seed(master_seed: int, index: int) -> int:
    """Statelessly derive the seed for stream ``index`` of ``master_seed``.

    A SplitMix64-style avalanche over ``master_seed + index`` — cheap,
    stateless (unlike :func:`spawn_rng` it consumes no generator state, so
    request ``i``'s seed does not depend on requests ``0..i-1``), and
    well-spread even for consecutive indexes. This is how the
    :class:`~repro.engine.SamplingEngine` gives every request in a batch
    an independent stream while the whole batch remains a pure function
    of the engine seed.
    """
    z = (master_seed + 0x9E3779B97F4A7C15 * (index + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def spawn_seeds(master_seed: int, count: int) -> List[int]:
    """``count`` independent per-stream seeds derived from ``master_seed``."""
    return [derive_seed(master_seed, index) for index in range(count)]


@contextmanager
def temporary_seed(rng: random.Random, seed: int) -> Iterator[random.Random]:
    """Run a block with ``rng`` re-seeded to ``seed``, then restore it.

    Swaps the generator's *internal state* (not the attribute holding it),
    so every structure sharing the object — e.g. a fair-NN index and its
    embedded set-union sampler — sees the temporary stream. The cached
    NumPy batch generator that :func:`repro.core.kernels.batch_generator`
    hangs off the object is stashed and re-derived for the same reason.
    Used by the engine protocol for samplers whose hot paths do not accept
    a per-call ``rng`` override.
    """
    from repro.core import kernels  # deferred: kernels imports repro.obs only

    saved_state = rng.getstate()
    saved_generator = getattr(rng, kernels.GENERATOR_ATTR, None)
    if saved_generator is not None:
        delattr(rng, kernels.GENERATOR_ATTR)
    rng.seed(seed)
    try:
        yield rng
    finally:
        rng.setstate(saved_state)
        if saved_generator is not None:
            setattr(rng, kernels.GENERATOR_ATTR, saved_generator)
        elif hasattr(rng, kernels.GENERATOR_ATTR):
            delattr(rng, kernels.GENERATOR_ATTR)
