"""Per-agent convex regret functions: value, subgradient, proximal map.

All objectives are scalar (the consensus state is one real number per agent).
The aggregate wrapper adds vectorized evaluation across a graph's vertices,
with fast paths when every agent shares the same objective kind.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from .errors import InvalidFieldError, UnsupportedOperationError
from .graph import Graph


def soft_threshold(t: float, omega: float) -> float:
    """Shrink t toward zero by omega: sign(t) * max(|t| - omega, 0)."""
    return float(np.sign(t) * max(abs(t) - omega, 0.0))


class Quadratic:
    """f(x) = (x - center)^2 / 2."""

    __slots__ = ("center",)

    def __init__(self, center: float) -> None:
        self.center = float(center)

    def value(self, x: float) -> float:
        return 0.5 * (x - self.center) ** 2

    def subgradient(self, x: float) -> float:
        return x - self.center

    def subgradient_interval(self, x: float) -> tuple[float, float]:
        grad = x - self.center
        return grad, grad

    def prox(self, rho: float, x: float) -> float:
        _require_positive_rho(rho)
        return (self.center + rho * x) / (1.0 + rho)



class Absolute:
    """f(x) = |x - center|; the subgradient at the kink is fixed to 0."""

    __slots__ = ("center",)

    def __init__(self, center: float) -> None:
        self.center = float(center)

    def value(self, x: float) -> float:
        return abs(x - self.center)

    def subgradient(self, x: float) -> float:
        return float(np.sign(x - self.center))

    def subgradient_interval(self, x: float) -> tuple[float, float]:
        if x == self.center:
            return -1.0, 1.0
        s = float(np.sign(x - self.center))
        return s, s

    def prox(self, rho: float, x: float) -> float:
        _require_positive_rho(rho)
        return self.center + soft_threshold(x - self.center, 1.0 / rho)



class QuadraticPlusStubborn:
    """f(x) = (x - center)^2 / 2 + weight * sum_j |x - anchors[j]|.

    Models a regular agent whose neighborhood contains pinned agents holding
    the anchor values; the proximal map is solved in closed form on the
    piecewise-linear stationarity condition.
    """

    __slots__ = ("center", "anchors", "weight")

    def __init__(self, center: float, anchors: Sequence[float], weight: float) -> None:
        if weight < 0.0:
            raise ValueError("anchor weight must be nonnegative")
        self.center = float(center)
        self.anchors = tuple(sorted(float(a) for a in anchors))
        self.weight = float(weight)

    def value(self, x: float) -> float:
        total = 0.5 * (x - self.center) ** 2
        for a in self.anchors:
            total += self.weight * abs(x - a)
        return total

    def subgradient(self, x: float) -> float:
        g = x - self.center
        for a in self.anchors:
            g += self.weight * float(np.sign(x - a))
        return g

    def subgradient_interval(self, x: float) -> tuple[float, float]:
        lo = hi = x - self.center
        for a in self.anchors:
            if x == a:
                lo -= self.weight
                hi += self.weight
            else:
                s = self.weight * float(np.sign(x - a))
                lo += s
                hi += s
        return lo, hi

    def prox(self, rho: float, x: float) -> float:
        """Minimize f(y) + rho/2 (y - x)^2 exactly.

        The derivative h(y) = (1 + rho) y - (center + rho x) + weight * S(y),
        with S the running sign sum over anchors, is strictly increasing and
        piecewise linear; scan the anchor breakpoints for its sign change.
        """
        _require_positive_rho(rho)
        base = self.center + rho * x
        slope = 1.0 + rho
        if not self.anchors or self.weight == 0.0:
            return base / slope

        k = len(self.anchors)
        w = self.weight
        y = (base + w * k) / slope  # candidate below every anchor (sign sum -k)
        if y <= self.anchors[0]:
            return y
        n_less = 0
        idx = 0
        while idx < k:
            a = self.anchors[idx]
            mult = 1
            while idx + mult < k and self.anchors[idx + mult] == a:
                mult += 1
            n_greater = k - n_less - mult
            # Zero in the subdifferential at the breakpoint itself?
            drift = slope * a - base + w * (n_less - n_greater)
            if abs(drift) <= w * mult:
                return a
            n_less += mult
            idx += mult
            y = (base - w * (2 * n_less - k)) / slope
            if idx == k:
                # Last interval (a, inf); monotonicity forces the root here.
                return y if y > a else a
            if a < y < self.anchors[idx]:
                return y
        raise AssertionError("strictly convex prox scan must terminate")



class CustomObjective:
    """Objective defined by callables; the proximal map is optional."""

    __slots__ = ("_value", "_subgradient", "_prox")

    def __init__(
        self,
        value: Callable[[float], float],
        subgradient: Callable[[float], float],
        prox: Callable[[float, float], float] | None = None,
    ) -> None:
        self._value = value
        self._subgradient = subgradient
        self._prox = prox

    def value(self, x: float) -> float:
        return float(self._value(x))

    def subgradient(self, x: float) -> float:
        return float(self._subgradient(x))

    def subgradient_interval(self, x: float) -> tuple[float, float]:
        g = self.subgradient(x)
        return g, g

    def prox(self, rho: float, x: float) -> float:
        _require_positive_rho(rho)
        if self._prox is None:
            raise UnsupportedOperationError("custom objective has no proximal map")
        return float(self._prox(rho, x))



Objective = Quadratic | Absolute | QuadraticPlusStubborn | CustomObjective


def _require_positive_rho(rho: float) -> None:
    if not rho > 0.0:
        raise ValueError(f"prox weight must be positive, got {rho}")


class AggregateObjective:
    """Sum of per-vertex objectives F(x) = sum_v f_v(x(v)) on a graph."""

    def __init__(self, g: Graph, objectives: Sequence[Objective]) -> None:
        if len(objectives) != g.n_vertices:
            raise InvalidFieldError(
                f"need one objective per vertex ({g.n_vertices}), got {len(objectives)}"
            )
        self.graph = g
        self.objectives = tuple(objectives)
        self._centers: np.ndarray | None = None
        self._kind: type | None = None
        kinds = {type(o) for o in self.objectives}
        if kinds == {Quadratic} or kinds == {Absolute}:
            self._kind = kinds.pop()
            self._centers = np.array([o.center for o in self.objectives], dtype=float)

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if self._kind is Quadratic:
            return float(0.5 * np.sum((x - self._centers) ** 2))
        if self._kind is Absolute:
            return float(np.sum(np.abs(x - self._centers)))
        return float(sum(o.value(float(t)) for o, t in zip(self.objectives, x)))

    def subgradient_vector(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self._kind is Quadratic:
            return x - self._centers
        if self._kind is Absolute:
            return np.sign(x - self._centers)
        return np.array(
            [o.subgradient(float(t)) for o, t in zip(self.objectives, x)], dtype=float
        )

    def prox_vector(self, rho, x) -> np.ndarray:
        """Apply each vertex's prox with its own weight rho[v]."""
        x = np.asarray(x, dtype=float)
        rho = np.broadcast_to(np.asarray(rho, dtype=float), x.shape)
        if self._kind is Quadratic:
            return (self._centers + rho * x) / (1.0 + rho)
        if self._kind is Absolute:
            shift = x - self._centers
            return self._centers + np.sign(shift) * np.maximum(
                np.abs(shift) - 1.0 / rho, 0.0
            )
        return np.array(
            [o.prox(float(r), float(t)) for o, r, t in zip(self.objectives, rho, x)],
            dtype=float,
        )


def aggregate_quadratic(g: Graph, centers) -> AggregateObjective:
    centers = np.asarray(centers, dtype=float)
    return AggregateObjective(g, [Quadratic(c) for c in centers])


def aggregate_absolute(g: Graph, centers) -> AggregateObjective:
    centers = np.asarray(centers, dtype=float)
    return AggregateObjective(g, [Absolute(c) for c in centers])
