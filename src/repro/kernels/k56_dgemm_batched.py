"""Kernels 5-6: batched DGEMM of DIM x DIM matrices.

The auxiliary products multiplying Jacobians, basis-gradient slices and
stress tensors together (Section 3.1.1). All matrices are DIM x DIM, so
the arithmetic intensity is fixed at 2*DIM/3 flops per element moved —
which caps the achievable rate at bandwidth * 2*DIM/24 Gflop/s (35 and
52 on K20 for DIM 2 and 3; the paper's Section 3.2 derivation).

Versions:
* `v1`     — one matrix per thread block: the paper's "unaligned memory
             access problem in the case of one thread block reading one
             matrix size of 4 or 9".
* `tuned`  — `matrices_per_block` matrices per block (autotuned; 32 is
             the paper's winner, 98.3% occupancy, ~60% of the batched
             roofline).
* `cublas` — cublasDgemmBatched (1.3 Gflop/s on these shapes).
"""

from __future__ import annotations

from repro.gpu.execution import KernelCost
from repro.gpu.specs import GPUSpec
from repro.kernels.config import FEConfig
from repro.kernels.cublas import cublas_dgemm_batched_cost

__all__ = [
    "batched_dgemm_cost",
    "kernel5_cost",
    "kernel6_cost",
    "batched_dgemm_roofline_gflops",
]


def batched_dgemm_roofline_gflops(spec: GPUSpec, dim: int) -> float:
    """Theoretical peak of DIM x DIM batched DGEMM on `spec`.

    bandwidth / 8 doubles per second, times 2*DIM/3 flops per element —
    the paper's 35 / 52 Gflop/s for K20.
    """
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    return spec.mem_bandwidth_gbs / 8.0 * (2.0 * dim / 3.0)


def batched_dgemm_cost(
    batches: int,
    dim: int,
    version: str = "tuned",
    matrices_per_block: int = 32,
    transpose_b: bool = False,
) -> KernelCost:
    """Cost of `batches` DIM x DIM GEMMs under the chosen version."""
    if batches < 1:
        raise ValueError("batches must be >= 1")
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    if matrices_per_block < 1:
        raise ValueError("matrices_per_block must be >= 1")
    tag = "NT" if transpose_b else "NN"
    flops = 2.0 * batches * dim**3
    io_bytes = 8.0 * batches * 3 * dim * dim
    if version == "cublas":
        return cublas_dgemm_batched_cost(batches, dim, dim, dim)
    if version == "v1":
        # One matrix per block: a 4- or 9-element read per block cannot
        # coalesce; most of each 128-byte transaction is wasted.
        return KernelCost(
            name=f"kernel_{tag}_dgemmBatched[v1]",
            flops=flops,
            dram_bytes=io_bytes,
            threads_per_block=dim * dim,
            blocks=batches,
            regs_per_thread=24,
            shared_per_block=3 * dim * dim * 8,
            compute_efficiency=0.3,
            dram_efficiency=0.12,
            latency_bound_factor=1.3,
        )
    if version == "tuned":
        m = matrices_per_block
        # 1D thread layout for coalesced loads, 2D for the multiply;
        # m matrices share one block.
        threads = min(1024, max(32, m * dim * dim))
        return KernelCost(
            name=f"kernel_{tag}_dgemmBatched[tuned,m={m}]",
            flops=flops,
            dram_bytes=io_bytes,
            shared_bytes=flops * 8.0,
            threads_per_block=threads,
            blocks=max(1, batches // m),
            regs_per_thread=24,
            shared_per_block=m * 3 * dim * dim * 8,
            compute_efficiency=0.6,
            dram_efficiency=0.62,
        )
    raise ValueError(f"unknown version '{version}' (v1|tuned|cublas)")


def kernel5_cost(cfg: FEConfig, version: str = "tuned", matrices_per_block: int = 32) -> KernelCost:
    """NN-variant over all quadrature points (called twice per step)."""
    return batched_dgemm_cost(cfg.npoints, cfg.dim, version, matrices_per_block, transpose_b=False)


def kernel6_cost(cfg: FEConfig, version: str = "tuned", matrices_per_block: int = 32) -> KernelCost:
    """NT-variant over all quadrature points."""
    return batched_dgemm_cost(cfg.npoints, cfg.dim, version, matrices_per_block, transpose_b=True)
