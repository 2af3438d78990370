"""Kernels 3-4: custom batched GEMMs with shared-A reuse.

Kernel 3 (kernel_PzVz_Phi_F) evaluates the reference velocity gradient
and Jacobian at every quadrature point: per zone, the (ndof x dim) dof
matrices of v and x are contracted against the per-point basis-gradient
tables. In the paper's Table 3 terms: num A = zones (the dof matrices),
num B = points (the shared gradient tables), num C = zones * points.

Kernel 4 (kernel_Phi_sigma_hat_z) applies the stress: per point,
DIM x DIM products sigma . adj(J) contracted into the basis gradients
(num A = zones * points).

The three versions trace the paper's optimization narrative
(Section 3.2 and Figure 7):

* v1 — A via shared memory, B via *texture* cache: B misses cost L2/DRAM
  round trips and the DRAM path is half-efficient.
* v2 — both operands staged through shared memory; faster, but one A
  per thread block limits occupancy.
* v3 — autotuned: `matrices_per_block` A tiles share one thread block,
  amortizing the B loads and raising occupancy until shared memory
  overfills (the Figure 5 tuning curve; 32 is the paper's winner with
  98.3% occupancy).
"""

from __future__ import annotations

from repro.gpu.execution import KernelCost
from repro.kernels.config import FEConfig

__all__ = ["kernel3_cost", "kernel4_cost", "feasible_matrices_per_block"]

_SHARED_LIMIT_BYTES = 48 * 1024


def feasible_matrices_per_block(cfg: FEConfig, limit: int = 32) -> int:
    """Largest power-of-two matrices-per-block that fits shared memory.

    This is the constraint-elimination step of the paper's autotuner
    ("artificial values, like those exceeding the shared memory, will
    be eliminated"): high orders have larger zone tiles, so the feasible
    batch shrinks (Q4's 375-row tiles fit far fewer than Q2's 81).
    """
    a_tile = cfg.ndof_kin_zone * cfg.dim * 8
    m = 1
    while m * 2 <= limit and (m * 2 + 1) * a_tile <= _SHARED_LIMIT_BYTES and 32 * m * 2 <= 1024:
        m *= 2
    return m


def kernel3_cost(
    cfg: FEConfig, version: str = "v3", matrices_per_block: int = 32
) -> KernelCost:
    """Batched (dim x N) x (N x dim) products for grad v and J.

    `matrices_per_block` is the autotuning parameter (number of zone
    dof-matrices resident per thread block).
    """
    if matrices_per_block < 1:
        raise ValueError("matrices_per_block must be >= 1")
    d, N, Q, Z = cfg.dim, cfg.ndof_kin_zone, cfg.nqp, cfg.nzones
    # Two fields (v and x), each 2*N*d^2 flops per point.
    flops = 2.0 * Z * Q * 2.0 * N * d * d
    a_bytes = 2.0 * Z * N * d * 8.0          # dof matrices, read once
    b_bytes = Q * N * d * 8.0                # shared gradient tables
    c_bytes = 2.0 * Z * Q * d * d * 8.0      # outputs
    a_tile = N * d * 8                       # one field's tile per zone
    if version == "v1":
        # B through the texture cache: every MAC's B operand is an
        # L2-backed texture fetch ("reading B via cached texture memory
        # is still not as fast as shared memory"), so half the operand
        # traffic rides the (slower) L2 instead of shared memory.
        return KernelCost(
            name="kernel_PzVz_Phi_F[v1]",
            flops=flops,
            dram_bytes=a_bytes + c_bytes + 0.3 * Z * b_bytes,
            l2_bytes=0.5 * flops * 8.0,  # per-MAC texture fetches
            shared_bytes=flops * 8.0,  # A operand via shared
            threads_per_block=128,
            blocks=max(1, Z),
            regs_per_thread=40,
            shared_per_block=2 * a_tile,
            compute_efficiency=0.55,
            dram_efficiency=0.5,
        )
    if version == "v2":
        return KernelCost(
            name="kernel_PzVz_Phi_F[v2]",
            flops=flops,
            dram_bytes=a_bytes + b_bytes + c_bytes,
            l2_bytes=Z * b_bytes,  # B staged per block, one zone each
            shared_bytes=2.0 * flops * 8.0,  # both operands per MAC
            threads_per_block=128,
            blocks=max(1, Z),
            regs_per_thread=40,
            shared_per_block=2 * a_tile + a_tile,
            compute_efficiency=0.7,
            dram_efficiency=0.85,
        )
    if version == "v3":
        m = matrices_per_block
        threads = min(32 * m, 1024)
        # One field staged at a time keeps the tile small; m A-tiles
        # share each block and amortize the B reloads.
        shared = m * a_tile + a_tile
        nblocks = max(1, -(-Z // m))
        return KernelCost(
            name=f"kernel_PzVz_Phi_F[v3,m={m}]",
            flops=flops,
            dram_bytes=a_bytes + b_bytes + c_bytes,
            l2_bytes=nblocks * b_bytes,  # B reloaded once per block
            # Register-tiled inner loop, plus staging the reloaded B
            # tables into shared memory once per block.
            shared_bytes=0.4 * flops * 8.0 + 2.0 * nblocks * b_bytes,
            threads_per_block=threads,
            blocks=nblocks,
            regs_per_thread=32,
            shared_per_block=shared,
            compute_efficiency=0.85,
            dram_efficiency=0.9,
        )
    raise ValueError(f"unknown version '{version}' (v1|v2|v3)")


def kernel4_cost(
    cfg: FEConfig, version: str = "v3", matrices_per_block: int = 32
) -> KernelCost:
    """Per-point DIM x DIM stress application (sigma . adj J)."""
    if matrices_per_block < 1:
        raise ValueError("matrices_per_block must be >= 1")
    d, Q, Z = cfg.dim, cfg.nqp, cfg.nzones
    batches = Z * Q
    flops = 2.0 * batches * 2.0 * d**3  # two d x d products per point
    io_bytes = batches * 3.0 * d * d * 8.0
    if version == "v1":
        return KernelCost(
            name="kernel_Phi_sigma_hat_z[v1]",
            flops=flops,
            dram_bytes=2.0 * io_bytes,  # unaligned single-matrix blocks
            threads_per_block=d * d,
            blocks=batches,
            regs_per_thread=32,
            shared_per_block=0,
            compute_efficiency=0.4,
            dram_efficiency=0.3,
        )
    if version == "v2":
        return KernelCost(
            name="kernel_Phi_sigma_hat_z[v2]",
            flops=flops,
            dram_bytes=io_bytes,
            shared_bytes=2.0 * flops * 8.0,
            threads_per_block=64,
            blocks=max(1, batches // 4),
            regs_per_thread=32,
            shared_per_block=4 * 3 * d * d * 8,
            compute_efficiency=0.6,
            dram_efficiency=0.7,
        )
    if version == "v3":
        m = matrices_per_block
        return KernelCost(
            name=f"kernel_Phi_sigma_hat_z[v3,m={m}]",
            flops=flops,
            dram_bytes=io_bytes,
            shared_bytes=0.5 * flops * 8.0,
            threads_per_block=min(1024, max(32, m * d * d)),
            blocks=max(1, batches // m),
            regs_per_thread=28,
            shared_per_block=m * 3 * d * d * 8,
            compute_efficiency=0.75,
            dram_efficiency=0.9,
        )
    raise ValueError(f"unknown version '{version}' (v1|v2|v3)")
