"""Sampling-scheme conversions: WR, WoR, and sample-count splitting (§1–§2).

The paper treats three schemes — sampling with replacement (WR), without
replacement (WoR), and weighted sampling — and uses two folklore
conversions:

* a WoR sample of size ``s`` converts to a WR sample of size ``s`` in
  ``O(s)`` time (§2, citing [19]): :func:`wr_from_wor`;
* ``s`` draws split across ``t`` disjoint parts by drawing ``s`` weighted
  part indices (the "determine how many samples to take from each S(u_i)"
  step of §4.1): :class:`PreparedSplit`, one split routine whose
  per-weights state (validated weights, normalized numpy probabilities,
  scalar-tier part alias tables) is resolved once and kept. Query plans
  hold one for their cover, so a repeated span splits without redoing
  that work; :func:`multinomial_split` is the same routine applied to
  fresh weights.

Also provided: Floyd's algorithm for uniform WoR index sampling, and
:func:`sample_without_replacement`, the one duplicate-rejection WoR
routine, which draws from any batch WR drawer in shuffled rounds.
"""

from __future__ import annotations

import random
from typing import Callable, Hashable, List, Optional, Sequence, Set, TypeVar

from repro import obs
from repro.core import kernels
from repro.core.alias import AliasTables, build_alias_tables
from repro.errors import BuildError, EmptyQueryError, SampleBudgetExceededError
from repro.substrates.rng import RNGLike, ensure_rng
from repro.validation import validate_sample_size, validate_weights

T = TypeVar("T", bound=Hashable)


#: The split's scalar part draws are Theorem-1 alias draws.
_ALIAS_DRAWS = obs.counter("alias.draws")
_WOR_DRAWS = obs.counter("wor.draws", "Without-replacement samples delivered")
_WOR_REJECTIONS = obs.counter(
    "wor.rejections",
    "Duplicate rejections in the WoR loop (expected O(1)/draw for s <= |S_q|/2)",
)


class PreparedSplit:
    """The §4.1 split of ``s`` draws over fixed part weights.

    :meth:`counts` returns ``s_1..s_t`` with ``sum(s_i) == s``, where each
    of the ``s`` draws independently lands in part ``i`` with probability
    ``w_i / sum(w)``: the paper's alias structure over the parts, built
    in ``O(t)``, then ``s`` part draws in ``O(s)``. Above the batch
    cutoff the numpy tier draws the same counts in one multinomial call.

    Each tier's state is resolved on its first use and kept: the numpy
    tier's normalized probabilities, the scalar tier's part alias tables
    (built the way :class:`~repro.core.alias.AliasSampler` builds its
    tables, so the draws are the ones an ``AliasSampler`` over the parts
    makes). Invalid or empty weights raise on the first split, before
    any randomness is consumed. A state slot is filled by one assignment
    of a value that depends only on the weights, so threads racing a
    first split build equal values and need no lock.
    """

    __slots__ = ("weights", "_prob", "_tables")

    def __init__(self, weights: Sequence[float]):
        self.weights = weights
        self._prob = None
        self._tables: Optional[AliasTables] = None

    def counts(self, s: int, rng: random.Random) -> List[int]:
        """Split ``s >= 1`` draws, consuming randomness from ``rng``."""
        weights = self.weights
        if kernels.use_batch(s) and len(weights) > 0:
            prob = self._prob
            if prob is None:
                cleaned = validate_weights(weights, context="multinomial_split")
                w = kernels.np.asarray(cleaned, dtype=kernels.np.float64)
                prob = self._prob = w / w.sum()
            return kernels.multinomial_counts(prob, s, kernels.batch_generator(rng))
        tables = self._tables
        if tables is None:
            tables = self._tables = _part_tables(weights)
        if obs.ENABLED:
            _ALIAS_DRAWS.add(s)
        prob, alias = tables
        n = len(prob)
        counts = [0] * n
        draw = rng.random
        for _ in range(s):
            # alias_draw, inlined: the same two random() calls per draw.
            urn = int(draw() * n)
            if urn == n:
                urn = n - 1
            counts[urn if draw() < prob[urn] else alias[urn]] += 1
        return counts


def _part_tables(weights: Sequence[float]) -> AliasTables:
    """Scalar-tier part tables, with ``AliasSampler``'s checks and builder."""
    if len(weights) == 0:
        raise BuildError("AliasSampler requires a non-empty item set")
    cleaned = validate_weights(weights, context="AliasSampler")
    if kernels.use_batch_build(len(cleaned)):
        np_prob, np_alias = kernels.build_alias_tables_batch(cleaned)
        return np_prob.tolist(), np_alias.tolist()
    return build_alias_tables(cleaned)


def multinomial_split(weights: Sequence[float], s: int, rng: RNGLike = None) -> List[int]:
    """Split ``s`` draws across parts with the given weights.

    Returns counts ``s_1..s_t`` with ``sum(s_i) == s``, each draw landing
    in part ``i`` with probability ``w_i / sum(w)``: a
    :class:`PreparedSplit` over fresh weights, used once.
    """
    validate_sample_size(s)
    generator = ensure_rng(rng)
    return PreparedSplit(weights).counts(s, generator)


def uniform_indices_without_replacement(
    lo: int, hi: int, s: int, rng: RNGLike = None
) -> List[int]:
    """Draw ``s`` distinct uniform indices from ``[lo, hi)`` in O(s).

    Implements Robert Floyd's algorithm; the output order is randomised so
    the result is a uniformly random *sequence* of distinct indices.
    Counted under ``wor.draws``, with no rejections by design.
    """
    validate_sample_size(s)
    population = hi - lo
    if s > population:
        raise EmptyQueryError(
            f"cannot draw {s} distinct indices from a range of size {population}"
        )
    generator = ensure_rng(rng)
    chosen: Set[int] = set()
    for j in range(population - s, population):
        candidate = lo + generator.randint(0, j)
        if candidate in chosen:
            chosen.add(lo + j)
        else:
            chosen.add(candidate)
    result = list(chosen)
    generator.shuffle(result)
    if obs.ENABLED:
        _WOR_DRAWS.add(s)
    return result


def sample_without_replacement(
    draw: Callable[[int], List[T]],
    s: int,
    population_size: int,
    rng: RNGLike = None,
) -> List[T]:
    """A WoR sample of ``s`` distinct values from a WR drawer (§1).

    ``draw(k)`` returns a new list of ``k`` independent WR draws in any
    order (range draws come back grouped by cover part, and by shard
    after the §4.1 merge). Each round draws twice the shortfall,
    shuffles the batch on ``rng`` and keeps first occurrences until
    ``s`` values are held. A uniformly shuffled multiset of iid draws is
    an iid sequence, so the result is the first ``s`` distinct values of
    one iid WR sequence, order included: uniform WoR for a uniform
    ``draw``, successive sampling (draws conditioned on distinctness)
    for a weighted one. Expected ``O(s)`` draws while
    ``s <= population_size / 2``.

    ``rng=None`` shuffles with the ``DEFAULT_SEED`` generator, the same
    permutation on every call: exact only for a ``draw`` that already
    returns iid order.

    Raises :class:`EmptyQueryError` when ``s > population_size`` and
    :class:`SampleBudgetExceededError` when ``64·s + 16·population_size``
    draws hold fewer than ``s`` distinct values. Attempts count the
    draws walked up to the one completing the sample, so
    ``wor.rejections`` (attempts − s) and the failure event are those of
    a one-draw-at-a-time loop.
    """
    validate_sample_size(s)
    if s > population_size:
        raise EmptyQueryError(
            f"cannot draw {s} distinct elements from a population of {population_size}"
        )
    generator = ensure_rng(rng)
    budget = 64 * s + 16 * population_size
    seen: Set[T] = set()
    ordered: List[T] = []
    attempts = 0
    while True:
        k = min(2 * (s - len(ordered)), budget - attempts)
        if k <= 0:
            raise SampleBudgetExceededError(
                f"WoR rejection loop exceeded {budget} attempts "
                f"(s={s}, population={population_size})"
            )
        batch = draw(k)
        generator.shuffle(batch)
        for walked, value in enumerate(batch, 1):
            if value not in seen:
                seen.add(value)
                ordered.append(value)
                if len(ordered) == s:
                    if obs.ENABLED:
                        _WOR_DRAWS.add(s)
                        _WOR_REJECTIONS.add(attempts + walked - s)
                    return ordered
        attempts += k


def wr_from_wor(
    wor_sample: Sequence[T],
    population_size: int,
    rng: RNGLike = None,
    size: Optional[int] = None,
) -> List[T]:
    """Convert a WoR sample into a WR sample of size ``size`` in O(s) (§2).

    ``size`` defaults to ``len(wor_sample)``; it may exceed the WoR sample
    length only when the WoR sample exhausts the population (then extra WR
    slots simply repeat population elements).

    A WR sample of size ``s`` from a population of ``N`` elements is
    distributed as: first draw the *pattern* of coincidences among the
    ``s`` slots (by drawing ``s`` iid slots-to-distinct-value labels), then
    bind the distinct labels to distinct population elements — which is
    exactly what a WoR sample provides. Requires
    ``len(wor_sample) >= number of distinct labels``, which holds since a
    WR sample of size ``s`` has at most ``s`` distinct values.

    Correctness requires ``wor_sample`` to be in *uniformly random order*
    (true of any genuine WoR sample, including rank-ordered ones drawn
    from a random permutation); a deterministically ordered input would
    bias the element-to-label binding.
    """
    generator = ensure_rng(rng)
    s = len(wor_sample) if size is None else size
    if s == 0:
        return []
    if population_size < len(wor_sample):
        raise ValueError("population_size must be at least the WoR sample size")
    if len(wor_sample) < min(s, population_size):
        raise ValueError(
            "WoR sample too small: a WR sample of size "
            f"{s} may contain up to {min(s, population_size)} distinct values"
        )
    # Simulate which of the s iid draws coincide, using a uniform birthday
    # process over `population_size` abstract slots.
    label_of_slot: dict = {}
    labels: List[int] = []
    for _ in range(s):
        slot = generator.randint(0, population_size - 1)
        if slot not in label_of_slot:
            label_of_slot[slot] = len(label_of_slot)
        labels.append(label_of_slot[slot])
    # Bind distinct labels to the first `len(label_of_slot)` WoR elements —
    # a uniformly random distinct assignment because the WoR sample is one.
    return [wor_sample[label] for label in labels]


__all__ = [
    "PreparedSplit",
    "multinomial_split",
    "uniform_indices_without_replacement",
    "sample_without_replacement",
    "wr_from_wor",
]
