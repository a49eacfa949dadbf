"""Separable private objectives F(x) = sum_v f_v(x(v)), one center per agent.

Average consensus uses ``Quadratic`` and median consensus ``Absolute``.  Each
holds one array of centers and evaluates value, subgradient, subgradient box
and proximal map for every agent in one array expression.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, check_node_field


class _Separable:
    """One validated center per agent of the graph."""

    def __init__(self, g: Graph, centers) -> None:
        self.centers = check_node_field(g, centers).copy()


def _require_positive_rho(rho) -> None:
    smallest = np.minimum.reduce(rho, axis=None)
    if not smallest > 0.0:
        raise ValueError(f"prox weight must be positive, got {smallest}")


class Quadratic(_Separable):
    """f_v(x) = (x - centers[v])^2 / 2."""

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * np.add.reduce((x - self.centers) ** 2))

    def subgradient(self, x) -> np.ndarray:
        return np.asarray(x, dtype=float) - self.centers

    def subgradient_box(self, x_star: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-agent subdifferential [lo, hi] at the constant field x*."""
        grad = float(x_star) - self.centers
        return grad, grad

    def prox(self, rho, x) -> np.ndarray:
        """argmin_y f_v(y) + rho[v]/2 (y - x(v))^2 for every agent v."""
        _require_positive_rho(rho)
        x = np.asarray(x, dtype=float)
        return (self.centers + rho * x) / (1.0 + rho)


class Absolute(_Separable):
    """f_v(x) = |x - centers[v]|; the subgradient at the kink is fixed to 0."""

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(np.add.reduce(np.abs(x - self.centers)))

    def subgradient(self, x) -> np.ndarray:
        return np.sign(np.asarray(x, dtype=float) - self.centers)

    def subgradient_box(self, x_star: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-agent subdifferential [lo, hi] at the constant field x*: [-1, 1] at a kink."""
        s = np.sign(float(x_star) - self.centers)
        kink = (s == 0.0).astype(float)
        return s - kink, s + kink

    def prox(self, rho, x) -> np.ndarray:
        """Soft thresholding of x(v) - centers[v] by 1 / rho[v] for every agent v."""
        _require_positive_rho(rho)
        shift = np.asarray(x, dtype=float) - self.centers
        return self.centers + np.sign(shift) * np.maximum(np.abs(shift) - 1.0 / rho, 0.0)
