"""Kernel 11: the energy-equation solve as a CUSPARSE SpMV.

M_E is block diagonal, its inverse is precomputed once, so applying
M_E^{-1} every step is a sparse (CSR) matrix-vector product over the
block-diagonal inverse — "the reason for calling SpMV routine instead
of using a CUDA-PCG solver ... is that the matrix M_E is block diagonal"
(Section 3.1.1). Called once per time step (per stage), unlike the PCG
SpMV which runs every iteration.
"""

from __future__ import annotations

from repro.gpu.execution import KernelCost
from repro.kernels.config import FEConfig
from repro.kernels.k9_pcg import spmv_cost

__all__ = ["kernel11_cost"]


def kernel11_cost(cfg: FEConfig) -> KernelCost:
    """SpMV over the block-diagonal inverse: nnz = nzones * P^2."""
    P = cfg.ndof_thermo_zone
    nnz = cfg.nzones * P * P
    nrows = cfg.nzones * P
    cost = spmv_cost(nnz, nrows, name="SpMV_ME_inverse")
    return cost
