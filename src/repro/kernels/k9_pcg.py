"""Kernel 9: the CUDA-PCG solver (a kernel *set*).

The paper builds its GPU momentum solver from CUSPARSE SpMV plus
cublasDdot/axpy — per iteration one sparse matrix-vector product and a
handful of BLAS-1 passes, all memory-bound. The SpMV is "the biggest
component of CUDA-PCG" (Figure 6) and dominates the optimized overall
breakdown because it is called every iteration of every solve of every
step.
"""

from __future__ import annotations

from repro.gpu.execution import KernelCost
from repro.kernels.config import FEConfig

__all__ = ["spmv_cost", "blas1_iteration_cost", "pcg_step_costs"]


def spmv_cost(nnz: float, nrows: float, name: str = "csrMv_ci_kernel") -> KernelCost:
    """One CSR SpMV: 8B value + 4B column index per nonzero + vectors."""
    if nnz < 0 or nrows < 0:
        raise ValueError("sizes must be non-negative")
    return KernelCost(
        name=name,
        flops=2.0 * nnz,
        dram_bytes=12.0 * nnz + 8.0 * 3.0 * nrows,
        l2_bytes=8.0 * nnz,  # gathered x entries hit L2
        threads_per_block=128,
        blocks=max(1, int(nrows) // 128),
        regs_per_thread=24,
        compute_efficiency=0.3,
        dram_efficiency=0.65,  # irregular gather on x
    )


def blas1_iteration_cost(nrows: float) -> KernelCost:
    """The dots/axpys of one PCG iteration (cublasDdot + updates)."""
    if nrows < 0:
        raise ValueError("nrows must be non-negative")
    return KernelCost(
        name="pcg_blas1",
        flops=10.0 * nrows,
        dram_bytes=10.0 * 8.0 * nrows,
        threads_per_block=256,
        blocks=max(1, int(nrows) // 256),
        regs_per_thread=16,
        compute_efficiency=0.4,
        dram_efficiency=0.9,
    )


def pcg_step_costs(
    cfg: FEConfig,
    iterations: float,
    mass_nnz: float | None = None,
    solves: int = 1,
) -> list[KernelCost]:
    """Kernel mix of `solves` PCG solves at `iterations` each.

    `mass_nnz` defaults to the FEConfig stencil estimate; per-component
    momentum solves pass solves=dim.
    """
    if iterations < 0 or solves < 1:
        raise ValueError("invalid solve description")
    nnz = mass_nnz if mass_nnz is not None else cfg.mass_nnz_estimate
    n = cfg.kinematic_ndof_estimate
    total_iters = iterations * solves
    costs = []
    if total_iters > 0:
        costs.append(spmv_cost(nnz, n).scaled(total_iters))
        costs.append(blas1_iteration_cost(n).scaled(total_iters))
    return costs
