"""Kernel 7: the per-zone corner-force product Fz = Az B^T.

One thread block per zone multiplies the (N*dim x nqp) matrix Az by the
transposed (P x nqp) thermodynamic table B. The version ladder follows
the paper's Figure 7 narrative:

* v1 — both operands streamed from global memory per use; partial L1
  reuse only.
* v2 — Az staged through shared memory, B in constant memory: "a
  substantial improvement, but still not satisfactory" — the full Az
  tile (e.g. 81 x 64 doubles = 41 KB for 3D Q2-Q1) nearly fills shared
  memory, pinning occupancy at one block per SM.
* v3 — *blocking*: Az is processed in column blocks of `block_cols`
  quadrature points, shrinking the shared tile, raising occupancy, and
  ("accessing columns in blocks by 1D dimension proved to be most
  effective") keeping loads coalesced. `block_cols` is the autotuning
  parameter.
"""

from __future__ import annotations

from repro.gpu.execution import KernelCost
from repro.kernels.config import FEConfig
from repro.kernels.cublas import cublas_dgemm_batched_cost

__all__ = ["kernel7_cost", "feasible_block_cols"]

_SHARED_LIMIT_BYTES = 48 * 1024


def feasible_block_cols(cfg: FEConfig, limit: int = 16) -> int:
    """Largest power-of-two column block whose tile fits shared memory."""
    per_col = (cfg.vector_rows + cfg.ndof_thermo_zone) * 8
    qb = 1
    while qb * 2 <= min(limit, cfg.nqp) and qb * 2 * per_col <= _SHARED_LIMIT_BYTES:
        qb *= 2
    return qb


def kernel7_cost(cfg: FEConfig, version: str = "v3", block_cols: int = 16) -> KernelCost:
    """Cost of the batched Fz = Az B^T over all zones."""
    if block_cols < 1:
        raise ValueError("block_cols must be >= 1")
    rows, Q, P, Z = cfg.vector_rows, cfg.nqp, cfg.ndof_thermo_zone, cfg.nzones
    flops = 2.0 * Z * rows * Q * P
    az_bytes = 8.0 * Z * rows * Q
    b_bytes = 8.0 * P * Q
    out_bytes = 8.0 * Z * rows * P
    if version == "cublas":
        return cublas_dgemm_batched_cost(Z, rows, P, Q)
    if version == "v1":
        # Global loads per MAC with ~4x L1 line reuse.
        return KernelCost(
            name="kernel_loop_zones[v1]",
            flops=flops,
            dram_bytes=0.5 * flops * 8.0 + out_bytes,
            l2_bytes=flops * 8.0,
            threads_per_block=min(256, rows),
            blocks=Z,
            regs_per_thread=32,
            shared_per_block=0,
            compute_efficiency=0.5,
            dram_efficiency=0.35,
        )
    if version == "v2":
        # Az staged through shared memory in fixed 16-column slabs; B
        # lives in constant memory. No register tiling yet: every MAC
        # reads both operands from shared.
        shared_tile = rows * min(16, Q) * 8
        return KernelCost(
            name="kernel_loop_zones[v2]",
            flops=flops,
            dram_bytes=az_bytes + b_bytes + out_bytes,
            shared_bytes=2.0 * flops * 8.0,  # every MAC reads shared
            threads_per_block=128,
            blocks=Z,
            regs_per_thread=32,
            shared_per_block=shared_tile,
            compute_efficiency=0.6,
            dram_efficiency=0.85,
        )
    if version == "v3":
        qb = min(block_cols, Q)
        shared_tile = rows * qb * 8 + P * qb * 8
        return KernelCost(
            name=f"kernel_loop_zones[v3,qb={qb}]",
            flops=flops,
            dram_bytes=az_bytes + b_bytes + out_bytes,
            shared_bytes=0.5 * flops * 8.0,  # register-tiled columns
            threads_per_block=256,
            blocks=Z,
            regs_per_thread=30,
            shared_per_block=shared_tile,
            compute_efficiency=0.72,
            dram_efficiency=0.9,
        )
    raise ValueError(f"unknown version '{version}' (v1|v2|v3|cublas)")
