"""ε-approximate IQS (paper §9, Direction 4).

Direction 4 asks how relaxing the sampling distribution — each outcome's
probability may deviate from its target by a ``(1 ± ε)`` factor — changes
the space/query/update complexity. This module implements the canonical
positive answer for *weighted set sampling*: quantize every weight to the
nearest power of ``(1 + ε)`` and sample exactly from the quantized
distribution. Consequences:

* every element's probability is within ``(1 ± ε)`` of its true value;
* all elements in a class are interchangeable, so a class is just an
  (unordered) array — insert/delete become O(1) swap operations, solving
  the Direction-1 dynamization problem *for free* in the approximate
  setting;
* the number of classes is ``O(log_{1+ε}(w_max/w_min)) = O((1/ε)·log W)``,
  so class selection is a small linear scan (kept exact, so outputs stay
  mutually independent across queries).
"""

from __future__ import annotations

import math
from typing import Dict, Generic, List, Tuple, TypeVar

from repro.engine.protocol import EngineOp, EngineSampler
from repro.errors import BuildError, EmptyQueryError, InvalidWeightError
from repro.substrates.rng import RNGLike, ensure_rng
from repro.validation import validate_sample_size

T = TypeVar("T")


class ApproximateDynamicSampler(EngineSampler, Generic[T]):
    """ε-approximate weighted set sampling with O(1) updates (Direction 4)."""

    engine_ops = {
        "sample": EngineOp("sample_many", takes_s=True, spawn=True),
    }
    engine_thread_safe = True  # queries only read the weight classes

    def __init__(self, epsilon: float = 0.1, rng: RNGLike = None):
        if not 0 < epsilon < 1:
            raise BuildError(f"epsilon must be in (0, 1), got {epsilon}")
        self.epsilon = epsilon
        self._log_base = math.log1p(epsilon)
        self._rng = ensure_rng(rng)
        # class exponent k -> list of items; class weight = (1+ε)^k
        self._class_items: Dict[int, List[object]] = {}
        self._class_unit: Dict[int, float] = {}  # k -> (1+ε)^k, cached
        self._locator: Dict[int, Tuple[int, int]] = {}  # handle -> (class, index)
        self._handle_at: Dict[Tuple[int, int], int] = {}
        self._true_weight: Dict[int, float] = {}
        self._total_mass = 0.0  # Σ |class|·(1+ε)^k, maintained incrementally
        self._next_handle = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def class_count(self) -> int:
        return len(self._class_items)

    def _class_of(self, weight: float) -> int:
        return round(math.log(weight) / self._log_base)

    def quantized_weight(self, handle: int) -> float:
        """The (1+ε)^k weight actually used for the element's class."""
        klass, _ = self._locator[handle]
        return math.exp(klass * self._log_base)

    def true_weight(self, handle: int) -> float:
        return self._true_weight[handle]

    def insert(self, item: T, weight: float) -> int:
        """O(1): append to the weight class."""
        value = float(weight)
        if not value > 0 or math.isinf(value) or value != value:
            raise InvalidWeightError(f"weight must be positive and finite, got {weight!r}")
        klass = self._class_of(value)
        items = self._class_items.setdefault(klass, [])
        if klass not in self._class_unit:
            self._class_unit[klass] = math.exp(klass * self._log_base)
        self._total_mass += self._class_unit[klass]
        index = len(items)
        items.append(item)
        handle = self._next_handle
        self._next_handle += 1
        self._locator[handle] = (klass, index)
        self._handle_at[(klass, index)] = handle
        self._true_weight[handle] = value
        self._size += 1
        return handle

    def delete(self, handle: int) -> T:
        """O(1): swap-remove from the weight class."""
        if handle not in self._locator:
            raise KeyError(f"no live element behind handle {handle}")
        klass, index = self._locator.pop(handle)
        del self._true_weight[handle]
        items = self._class_items[klass]
        item = items[index]
        del self._handle_at[(klass, index)]
        last = len(items) - 1
        if index != last:
            moved = self._handle_at.pop((klass, last))
            items[index] = items[last]
            self._locator[moved] = (klass, index)
            self._handle_at[(klass, index)] = moved
        items.pop()
        self._total_mass -= self._class_unit[klass]
        if not items:
            del self._class_items[klass]
            del self._class_unit[klass]
        self._size -= 1
        if self._total_mass < 0:
            self._total_mass = sum(
                len(members) * self._class_unit[k]
                for k, members in self._class_items.items()
            )
        return item  # type: ignore[return-value]

    def sample(self, *, rng: RNGLike = None) -> T:
        """One independent ε-approximate weighted sample.

        Exact two-stage draw over the quantized distribution: pick a class
        proportional to ``|class|·(1+ε)^k`` (linear scan over the
        O((1/ε) log W) classes), then a uniform member. ``rng`` overrides
        the instance stream.
        """
        if self._size == 0:
            raise EmptyQueryError("sampler is empty")
        rng = self._rng if rng is None else ensure_rng(rng)
        class_items = self._class_items
        class_unit = self._class_unit
        target = rng.random() * self._total_mass
        chosen = next(iter(class_items))
        for klass, members in class_items.items():
            mass = len(members) * class_unit[klass]
            chosen = klass
            if target < mass:
                break
            target -= mass
        items = class_items[chosen]
        index = int(rng.random() * len(items))
        if index == len(items):
            index -= 1
        return items[index]  # type: ignore[return-value]

    def sample_many(self, s: int, *, rng: RNGLike = None) -> List[T]:
        validate_sample_size(s)
        rng = self._rng if rng is None else ensure_rng(rng)
        return [self.sample(rng=rng) for _ in range(s)]

    def probability_bounds(self, handle: int, total_true_weight: float) -> Tuple[float, float]:
        """(lower, upper) bounds on this element's sampling probability
        relative to its exact target ``w/Σw`` — both within (1 ± ε)."""
        target = self._true_weight[handle] / total_true_weight
        half = math.sqrt(1 + self.epsilon)  # rounding is to the *nearest* class
        return target / half ** 2, target * half ** 2
