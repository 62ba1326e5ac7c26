"""Representative / diverse query answers (paper §2, Benefit 3).

When a query's result is too large to display, returning ``s`` *random*
elements is a metric-free way to exhibit its diversity, and cross-query
independence means repeated queries keep revealing fresh parts of the
result. Helpers here quantify that: a WoR representative set per query,
a diversity metric, and the cumulative coverage achieved by repeating a
query — which plateaus immediately for a dependent sampler but keeps
growing under IQS.
"""

from __future__ import annotations

import math
from typing import Callable, List, Sequence, Set, Tuple

from repro.core.schemes import sample_without_replacement
from repro.validation import validate_sample_size


def representatives(
    draw: Callable[[], object],
    s: int,
    population_size: int,
) -> List[object]:
    """``s`` distinct representatives via WoR rejection over a WR drawer.

    ``draw`` must produce one uniform sample of the query result (e.g. a
    closure over an IQS sampler's query). Successive calls are already
    in iid order, so the routine's fixed default shuffle keeps the law.
    """
    return sample_without_replacement(
        lambda k: [draw() for _ in range(k)], s, population_size
    )


def min_pairwise_distance(points: Sequence[Tuple[float, ...]]) -> float:
    """Smallest pairwise Euclidean distance — a simple diversity score."""
    if len(points) < 2:
        return float("inf")
    best = float("inf")
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            distance = math.sqrt(
                sum((a - b) ** 2 for a, b in zip(points[i], points[j]))
            )
            best = min(best, distance)
    return best


def coverage_over_time(
    draw_batch: Callable[[int], Sequence],
    s: int,
    rounds: int,
) -> List[int]:
    """Distinct elements seen after each of ``rounds`` repeated queries.

    Under IQS the curve keeps climbing toward the full result (the
    "increasingly clear picture of the diversity" of §2); a dependent
    sampler's curve flat-lines after round one.
    """
    validate_sample_size(s)
    validate_sample_size(rounds)
    seen: Set = set()
    curve: List[int] = []
    for _ in range(rounds):
        seen.update(draw_batch(s))
        curve.append(len(seen))
    return curve
