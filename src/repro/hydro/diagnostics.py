"""Conserved-quantity diagnostics.

The paper's Table 6 validates CPU and GPU paths by checking that
KE + IE is preserved to machine precision. These helpers compute the
discrete energies through the mass matrices (the quantities the scheme
actually conserves) plus momentum and volume book-keeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fem.assembly import MassAction
from repro.hydro.state import HydroState
from repro.linalg.blockdiag import BlockDiagonalMatrix
from repro.linalg.csr import CSRMatrix

__all__ = ["EnergyBreakdown", "compute_energies", "total_momentum"]


@dataclass(frozen=True)
class EnergyBreakdown:
    """Kinetic / internal / total energy at one time."""

    t: float
    kinetic: float
    internal: float

    @property
    def total(self) -> float:
        return self.kinetic + self.internal

    def row(self) -> str:
        """Format as a Table-6-style row."""
        return (
            f"t={self.t:.6g}  KE={self.kinetic:.13e}  "
            f"IE={self.internal:.13e}  total={self.total:.13e}"
        )


def compute_energies(
    state: HydroState,
    mass_v: "CSRMatrix | MassAction",
    mass_e: BlockDiagonalMatrix,
) -> EnergyBreakdown:
    """KE = 1/2 v^T M_V v (per component), IE = 1^T M_E e.

    `mass_v` is anything with the kinematic mass's `matvec`: the
    assembled CSR or its partial-assembly action.
    """
    ke = 0.0
    for d in range(state.dim):
        ke += 0.5 * float(state.v[:, d] @ mass_v.matvec(state.v[:, d]))
    ie = float(np.sum(mass_e.matvec(state.e)))
    return EnergyBreakdown(state.t, ke, ie)


def total_momentum(state: HydroState, mass_v: CSRMatrix) -> np.ndarray:
    """Discrete momentum M_V v summed per component."""
    return np.array([float(np.sum(mass_v.matvec(state.v[:, d]))) for d in range(state.dim)])
