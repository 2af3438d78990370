"""Equations of state.

The paper's test problems (Sedov, triple-point) use ideal-gas gamma-law
materials, with per-material gamma in the multi-material triple-point
setup. The EOS is evaluated at every quadrature point every time step —
part of the per-thread workload of kernel 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GammaLawEOS"]


@dataclass(frozen=True)
class GammaLawEOS:
    """Ideal-gas gamma-law: p = (gamma - 1) rho e.

    `gamma` may be a scalar or an array broadcastable against the
    (nzones, nqp) point arrays (per-zone materials broadcast as a
    (nzones, 1) column).
    """

    gamma: float | np.ndarray = 1.4

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=np.float64)
        if np.any(g <= 1.0):
            raise ValueError("gamma-law EOS requires gamma > 1")

    def pressure(self, rho: np.ndarray, e: np.ndarray) -> np.ndarray:
        """p(rho, e); internal energy is floored at zero for robustness."""
        e_pos = np.maximum(np.asarray(e, dtype=np.float64), 0.0)
        return (np.asarray(self.gamma) - 1.0) * np.asarray(rho) * e_pos

    def sound_speed(self, rho: np.ndarray, e: np.ndarray) -> np.ndarray:
        """c_s = sqrt(gamma (gamma-1) e) for the gamma-law gas."""
        g = np.asarray(self.gamma, dtype=np.float64)
        e_pos = np.maximum(np.asarray(e, dtype=np.float64), 0.0)
        return np.sqrt(g * (g - 1.0) * e_pos)

    def energy_from_pressure(self, rho: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Invert the EOS: e(rho, p) — used by problem initializers."""
        rho = np.asarray(rho, dtype=np.float64)
        return np.asarray(p, dtype=np.float64) / ((np.asarray(self.gamma) - 1.0) * rho)
