"""Momentum grids: Gauss-Legendre nodes mapped rationally onto (0, inf)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConfigurationError


@dataclass(frozen=True)
class MomentumGrid:
    """Quadrature rule on (0, inf), nodes and weights in fm^-1 (see build_grid)."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if not (
            np.all(np.diff(self.nodes) > 0)
            and np.all(self.nodes > 0)
            and np.all(np.isfinite(self.nodes))
        ):
            raise ConfigurationError("grid nodes must be positive, finite, increasing")
        if np.shape(self.weights) != np.shape(self.nodes) or not np.all(self.weights > 0):
            raise ConfigurationError("grid weights must be positive, one per node")

    @property
    def count(self) -> int:
        return len(self.nodes)


def build_grid(count: int, map_scale: float) -> MomentumGrid:
    """Deterministic (0, inf) grid: p = map_scale*(1+x)/(1-x), x Gauss-Legendre.

    count >= 8; map_scale > 0 (fm^-1) sets where the nodes cluster.
    """
    if count < 8:
        raise ConfigurationError(f"grid count must be >= 8, got {count}")
    if map_scale <= 0:
        raise ConfigurationError(f"map_scale must be > 0, got {map_scale}")
    x, w = leggauss(count)
    nodes = map_scale * (1.0 + x) / (1.0 - x)
    weights = w * 2.0 * map_scale / (1.0 - x) ** 2
    return MomentumGrid(nodes=nodes, weights=weights)
