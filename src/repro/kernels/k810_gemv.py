"""Kernels 8 and 10: batched DGEMV.

Kernel 8 computes -F.1 (each thread block contracts its zone's Fz
against the ones vector and contributes a slice of the momentum RHS);
kernel 10 computes F^T v for the energy equation. CUBLAS has no batched
DGEMV, so the paper's comparison baseline is cublasDgemv in one stream
per zone — 90x slower than the custom kernel (Table 4).

These kernels stream each Fz exactly once, so they sit on the DRAM
roofline: 2 flops per 8-byte element read gives bandwidth/4 Gflop/s
peak (35.5 on C2050 for the Table 4 shape); the custom kernel reaches
about half of that ("achieving 50% of theoretical peak").
"""

from __future__ import annotations

from repro.gpu.execution import KernelCost
from repro.gpu.specs import GPUSpec
from repro.kernels.config import FEConfig

__all__ = [
    "batched_dgemv_cost",
    "kernel8_cost",
    "kernel10_cost",
    "batched_dgemv_roofline_gflops",
]


def batched_dgemv_roofline_gflops(spec: GPUSpec, m: int, n: int) -> float:
    """Theoretical peak of batched m x n DGEMV (matrix read once)."""
    if min(m, n) < 1:
        raise ValueError("sizes must be positive")
    # 2mn flops over 8(mn + m + n) bytes.
    intensity = 2.0 * m * n / (8.0 * (m * n + m + n))
    return spec.mem_bandwidth_gbs * intensity


def batched_dgemv_cost(batches: int, m: int, n: int, transpose: bool = False) -> KernelCost:
    """The custom one-block-per-zone batched DGEMV."""
    if min(batches, m, n) < 1:
        raise ValueError("sizes must be positive")
    flops = 2.0 * batches * m * n
    dram = 8.0 * batches * (m * n + m + n)
    name = "kernel_dgemvt" if transpose else "kernel_loop_zones_dv_dt"
    return KernelCost(
        name=name,
        flops=flops,
        dram_bytes=dram,
        shared_bytes=8.0 * batches * (m if transpose else n) * 4,
        threads_per_block=128,
        blocks=batches,
        regs_per_thread=24,
        shared_per_block=8 * (n if not transpose else m) + 1024,
        compute_efficiency=0.5,
        # ~50% of the DRAM roofline: reduction overheads and partial
        # coalescing on the row-major matrix slices.
        dram_efficiency=0.58,
    )


def kernel8_cost(cfg: FEConfig) -> KernelCost:
    """-F.1 over all zones: batches of (N*dim) x P GEMV."""
    return batched_dgemv_cost(cfg.nzones, cfg.vector_rows, cfg.ndof_thermo_zone)


def kernel10_cost(cfg: FEConfig) -> KernelCost:
    """F^T v over all zones (transposed batched GEMV)."""
    return batched_dgemv_cost(
        cfg.nzones, cfg.vector_rows, cfg.ndof_thermo_zone, transpose=True
    )
