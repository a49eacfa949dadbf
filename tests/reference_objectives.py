"""Reference objectives the tests compare the array objectives and engines against."""

import numpy as np

from tvconsensus import Quadratic


def reference_subgradient_box(objs, x_star):
    """Subdifferential box at the constant field x*, one scalar interval per agent."""
    n = objs.centers.size
    lo, hi = np.empty(n), np.empty(n)
    for v, center in enumerate(objs.centers):
        center = float(center)
        if isinstance(objs, Quadratic):
            lo[v] = hi[v] = x_star - center
        elif x_star == center:
            lo[v], hi[v] = -1.0, 1.0
        else:
            lo[v] = hi[v] = float(np.sign(x_star - center))
    return lo, hi


def _anchored_prox(center, anchors, weight, rho, x):
    """Minimize (y - center)^2 / 2 + weight * sum_j |y - anchors[j]| + rho/2 (y - x)^2.

    The derivative h(y) = (1 + rho) y - (center + rho x) + weight * S(y),
    with S the running sign sum over the sorted anchors, is strictly
    increasing and piecewise linear; scan the breakpoints for its sign change.
    """
    base = center + rho * x
    slope = 1.0 + rho
    if not anchors or weight == 0.0:
        return base / slope

    k = len(anchors)
    w = weight
    y = (base + w * k) / slope  # candidate below every anchor (sign sum -k)
    if y <= anchors[0]:
        return y
    n_less = 0
    idx = 0
    while idx < k:
        a = anchors[idx]
        mult = 1
        while idx + mult < k and anchors[idx + mult] == a:
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
        if a < y < anchors[idx]:
            return y
    raise AssertionError("strictly convex prox scan must terminate")


class AnchoredQuadratic:
    """f_v(x) = (x - centers[v])^2 / 2 + weight * sum_{a in anchors[v]} |x - a|.

    A regular agent whose pinned neighbours hold the anchor values, so a
    pinned run on a graph equals a run of this objective on the regular
    agents' subgraph.  Same methods as ``Quadratic`` and ``Absolute``.
    """

    def __init__(self, centers, anchors_per_vertex, weight):
        if weight < 0.0:
            raise ValueError("anchor weight must be nonnegative")
        self.centers = np.array(centers, dtype=float)
        self.anchors = [tuple(sorted(float(a) for a in anchors)) for anchors in anchors_per_vertex]
        if len(self.anchors) != self.centers.size:
            raise ValueError("need one anchor list per center")
        self.weight = float(weight)

    def _agents(self, x):
        x = np.broadcast_to(np.asarray(x, dtype=float), self.centers.shape)
        return zip((float(t) for t in x), (float(c) for c in self.centers), self.anchors)

    def value(self, x):
        return float(sum(
            0.5 * (t - c) ** 2 + sum(self.weight * abs(t - a) for a in anchors)
            for t, c, anchors in self._agents(x)
        ))

    def subgradient(self, x):
        return np.array([
            t - c + sum(self.weight * float(np.sign(t - a)) for a in anchors)
            for t, c, anchors in self._agents(x)
        ])

    def subgradient_box(self, x_star):
        lo, hi = [], []
        for t, c, anchors in self._agents(x_star):
            low = high = t - c
            for a in anchors:
                if t == a:
                    low -= self.weight
                    high += self.weight
                else:
                    s = self.weight * float(np.sign(t - a))
                    low += s
                    high += s
            lo.append(low)
            hi.append(high)
        return np.array(lo), np.array(hi)

    def prox(self, rho, x):
        rho = np.broadcast_to(np.asarray(rho, dtype=float), self.centers.shape)
        if not np.min(rho) > 0.0:
            raise ValueError(f"prox weight must be positive, got {rho}")
        return np.array([
            _anchored_prox(c, anchors, self.weight, float(r), t)
            for (t, c, anchors), r in zip(self._agents(x), rho)
        ])
