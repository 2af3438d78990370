"""The Lagrangian hydrodynamic state (v, e, x)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["HydroState"]


@dataclass
class HydroState:
    """Unknowns of the semi-discrete system.

    Attributes
    ----------
    v : (ndof_h1, dim) velocity, continuous kinematic space.
    e : (ndof_l2,) specific internal energy, discontinuous space.
    x : (ndof_h1, dim) grid positions, same space as v.
    t : simulation time.
    """

    v: np.ndarray
    e: np.ndarray
    x: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=np.float64)
        self.e = np.asarray(self.e, dtype=np.float64)
        self.x = np.asarray(self.x, dtype=np.float64)
        if self.v.ndim != 2 or self.x.shape != self.v.shape:
            raise ValueError("v and x must both be (ndof_h1, dim)")
        if self.e.ndim != 1:
            raise ValueError("e must be a flat (ndof_l2,) vector")

    @property
    def dim(self) -> int:
        return self.v.shape[1]

    def copy(self) -> "HydroState":
        return HydroState(self.v.copy(), self.e.copy(), self.x.copy(), self.t)

    def norm(self) -> float:
        """Max-norm over all unknowns (used in stagnation checks)."""
        return max(
            float(np.abs(self.v).max(initial=0.0)),
            float(np.abs(self.e).max(initial=0.0)),
            float(np.abs(self.x).max(initial=0.0)),
        )
