"""Kernels 1-2: per-quadrature-point scalar math.

Kernel 1 (kernel_CalcAjugate_det) computes the adjugate, determinant
and SVD of each point's DIM x DIM Jacobian; kernel 2 (kernel_loop_grad_v)
evaluates the EOS and assembles the total stress via the symmetrized-
velocity-gradient eigendecomposition. One thread per quadrature point;
each thread owns a DIM x DIM workspace plus scalars.

The paper's Figure 4 story lives in the two versions:

* `local` — the base implementation. The per-thread workspace spills
  to *local memory* (which physically resides in device memory): every
  workspace access becomes DRAM traffic and the kernel turns memory/
  latency bound.
* `register` — the separated, register-resident version. On Kepler
  (double the registers per SMX) the workspace fits in registers and
  the kernel runs at its scalar-compute roof — "kernel 2 achieved a 4x
  speedup".
"""

from __future__ import annotations

from repro.gpu.execution import KernelCost
from repro.kernels.base import FLOPS_PER_POINT
from repro.kernels.config import FEConfig

__all__ = ["kernel1_cost", "kernel2_cost"]

# Workspace doubles per thread (J, adj, scratch for SVD/eigen in kernel
# 1; eigenvectors + viscosity directions in kernel 2, which is larger).
_WORKSPACE_DOUBLES = {2: 16, 3: 40}
_WORKSPACE_DOUBLES_K2 = {2: 24, 3: 60}
# Each workspace double is touched this many times over the point math;
# in the `local` version every touch is a local-memory (DRAM) access.
_WORKSPACE_TOUCHES = 6
# Kernel 1's smaller workspace partially survives in registers even in
# the base build; kernel 2's eigen/viscosity scratch thrashes fully.
_SPILL_TOUCH_FRACTION = {"kernel_CalcAjugate_det": 0.5, "kernel_loop_grad_v": 1.0}
# Scalar instruction mix reaches only a small slice of the FMA peak.
_SCALAR_COMPUTE_EFF = {2: 0.035, 3: 0.045}


def _pointwise_cost(
    name: str,
    cfg: FEConfig,
    flops_per_point: float,
    io_doubles_per_point: float,
    version: str,
    workspace_doubles: int,
) -> KernelCost:
    if version not in ("local", "register"):
        raise ValueError(f"unknown version '{version}' (local|register)")
    npts = cfg.npoints
    flops = flops_per_point * npts
    dram = 8.0 * io_doubles_per_point * npts
    threads = 256
    if version == "local":
        touches = _WORKSPACE_TOUCHES * _SPILL_TOUCH_FRACTION.get(name, 1.0)
        spill = 8.0 * workspace_doubles * touches * npts
        return KernelCost(
            name=f"{name}[local]",
            flops=flops,
            dram_bytes=dram + spill,
            l2_bytes=spill,  # spills bounce through L2 first
            threads_per_block=threads,
            blocks=max(1, npts // threads),
            regs_per_thread=30,
            compute_efficiency=_SCALAR_COMPUTE_EFF[cfg.dim],
            dram_efficiency=0.45,  # scattered per-thread local slots
            latency_bound_factor=2.5,
        )
    return KernelCost(
        name=f"{name}[register]",
        flops=flops,
        dram_bytes=dram,
        l2_bytes=dram,
        threads_per_block=threads,
        blocks=max(1, npts // threads),
        regs_per_thread=32 + workspace_doubles,
        compute_efficiency=_SCALAR_COMPUTE_EFF[cfg.dim],
        dram_efficiency=0.85,
    )


def kernel1_cost(cfg: FEConfig, version: str = "register") -> KernelCost:
    """kernel_CalcAjugate_det: J -> (adj J, |J|, singular values)."""
    d = cfg.dim
    io = 2 * d * d + 1 + d  # read J, write adj + det + singular values
    return _pointwise_cost(
        "kernel_CalcAjugate_det", cfg, FLOPS_PER_POINT[d][0], io, version,
        _WORKSPACE_DOUBLES[d],
    )


def kernel2_cost(cfg: FEConfig, version: str = "register") -> KernelCost:
    """kernel_loop_grad_v: (grad v, rho, e) -> sigma_hat via EoS + eigen."""
    d = cfg.dim
    io = 2 * d * d + 8  # read grad v + thermo scalars, write sigma + cs/mu
    return _pointwise_cost(
        "kernel_loop_grad_v", cfg, FLOPS_PER_POINT[d][1], io, version,
        _WORKSPACE_DOUBLES_K2[d],
    )
