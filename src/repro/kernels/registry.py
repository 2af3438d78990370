"""Kernel registry and whole-pass cost pipelines.

Assembles the per-kernel cost descriptors into the two corner-force
pipelines the paper compares in Figure 6:

* base      — kernel_loop_quadrature_point + kernels 7, 8, 10
* optimized — kernels 1-6 (registers, shared memory, tuned) + 7 (v3)
              + 8, 10

plus the PCG (kernel 9) and energy SpMV (kernel 11) mixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.gpu.execution import KernelCost, execute_kernel
from repro.gpu.specs import GPUSpec
from repro.kernels.base import KERNEL_TABLE, KernelSpec
from repro.kernels.base_quadloop import base_quadloop_cost
from repro.kernels.config import FEConfig
from repro.kernels.k12_pointwise import kernel1_cost, kernel2_cost
from repro.kernels.k34_custom_gemm import kernel3_cost, kernel4_cost
from repro.kernels.k56_dgemm_batched import kernel5_cost, kernel6_cost
from repro.kernels.k7_force import kernel7_cost
from repro.kernels.k810_gemv import kernel10_cost, kernel8_cost

__all__ = [
    "all_kernels",
    "KernelSelection",
    "TuningAxis",
    "TUNING_AXES",
    "corner_force_costs",
]


@dataclass(frozen=True)
class KernelSelection:
    """Tuned kernel-version parameters for one FE configuration.

    This is the object an autotuning campaign (offline `repro tune
    campaign` or the in-band `repro.sched.OnlineScheduler`) produces and
    the cost pipelines consume: the per-kernel tile/block parameters the
    Section 3.2.1 sampling periods converge to. `None` fields fall back
    to the feasibility-derived defaults in `corner_force_costs`.
    """

    #: kernels 3/4 (custom shared-memory GEMM) matrices per thread block
    gemm_matrices_per_block: int | None = None
    #: kernels 5/6 (batched dgemm) matrices per thread block
    batched_matrices_per_block: int | None = None
    #: kernel 7 (corner-force assembly) column tile width
    block_cols: int | None = None

    @classmethod
    def from_winners(cls, winners: dict) -> "KernelSelection":
        """Build a selection from a campaign's winner map.

        `winners` maps campaign names to parameter dicts, e.g.
        ``{"kernel3": {"matrices_per_block": 8}, "kernel5": {...},
        "kernel7": {"block_cols": 16}}`` — the shape both the CLI
        campaigns and the scheduler's `TuningCache` entries use.
        """

        def param(axis: "TuningAxis") -> int | None:
            entry = winners.get(axis.kernel)
            if not isinstance(entry, dict):
                return None
            value = entry.get(axis.param)
            return int(value) if value is not None else None

        return cls(**{axis.selection_field: param(axis) for axis in TUNING_AXES})

    @classmethod
    def from_candidate(cls, candidate: dict) -> "KernelSelection":
        """Build a selection from one point of the joint tuning space
        (keyed by `TuningAxis.name`; a missing axis keeps its default)."""
        return cls(**{
            axis.selection_field: candidate.get(axis.name) for axis in TUNING_AXES
        })


@dataclass(frozen=True)
class TuningAxis:
    """One Section 3.2.1 tuning axis: a kernel's launch parameter.

    `candidates` are the values a campaign sweeps, `selection_field`
    the `KernelSelection` field its winner fills, and `cost(cfg, value)`
    the kernel's cost descriptor when launched at that value.
    """

    kernel: str
    param: str
    candidates: tuple[int, ...]
    selection_field: str
    cost: Callable[[FEConfig, int], KernelCost]

    @property
    def name(self) -> str:
        """This axis' key in the joint tuning space."""
        return f"{self.kernel}_{self.param}"

    def launchable(self, cfg: FEConfig, gpu_spec: GPUSpec, value: int) -> bool:
        """Whether `gpu_spec` can launch the kernel at `value` (the
        paper's "artificial values, like those exceeding the shared
        memory, will be eliminated")."""
        try:
            execute_kernel(gpu_spec, self.cost(cfg, value))
        except ValueError:
            return False
        return True


#: The three tuning axes, declared once: matrices per thread block of
#: the custom GEMM (kernels 3/4) and of the batched dgemm (kernels 5/6),
#: and kernel 7's column tile — one per `KernelSelection` field. The
#: offline `repro tune kernelN` sweeps and the joint space of
#: `repro.sched.hybrid_param_space` both read them.
TUNING_AXES = (
    TuningAxis("kernel3", "matrices_per_block", (1, 2, 4, 8, 16, 32, 64, 128),
               "gemm_matrices_per_block",
               lambda cfg, v: kernel3_cost(cfg, "v3", matrices_per_block=v)),
    TuningAxis("kernel5", "matrices_per_block", (1, 2, 4, 8, 16, 32, 64),
               "batched_matrices_per_block",
               lambda cfg, v: kernel5_cost(cfg, "tuned", v)),
    TuningAxis("kernel7", "block_cols", (1, 2, 4, 8, 16, 32, 64),
               "block_cols",
               lambda cfg, v: kernel7_cost(cfg, "v3", block_cols=v)),
)


def all_kernels() -> tuple[KernelSpec, ...]:
    """The Table 2 inventory."""
    return KERNEL_TABLE


def corner_force_costs(
    cfg: FEConfig,
    implementation: str = "optimized",
    matrices_per_block: int | None = None,
    block_cols: int | None = None,
    selection: KernelSelection | None = None,
) -> list[KernelCost]:
    """Kernel mix of one corner-force evaluation.

    implementation: 'optimized' (the redesign, tuned versions) or
    'base' (the monolithic quadrature-point loop; kernels 7/8/10 at
    their naive versions). Tuning parameters default to the largest
    feasible values for the FE order — what the autotuner converges to.
    A `KernelSelection` (per-kernel-group tuned parameters from a
    campaign) takes precedence over the flat `matrices_per_block` /
    `block_cols` arguments, which remain for callers that tune one
    shared value.
    """
    from repro.kernels.k34_custom_gemm import feasible_matrices_per_block
    from repro.kernels.k7_force import feasible_block_cols

    gemm_mpb = batched_mpb = matrices_per_block
    if selection is not None:
        if selection.gemm_matrices_per_block is not None:
            gemm_mpb = selection.gemm_matrices_per_block
        if selection.batched_matrices_per_block is not None:
            batched_mpb = selection.batched_matrices_per_block
        if selection.block_cols is not None:
            block_cols = selection.block_cols
    if gemm_mpb is None:
        gemm_mpb = feasible_matrices_per_block(cfg)
    if batched_mpb is None:
        batched_mpb = feasible_matrices_per_block(cfg)
    if block_cols is None:
        block_cols = feasible_block_cols(cfg)
    if implementation == "base":
        return [
            base_quadloop_cost(cfg),
            kernel7_cost(cfg, version="v1"),
            kernel8_cost(cfg),
            kernel10_cost(cfg),
        ]
    if implementation == "optimized":
        return [
            kernel1_cost(cfg, version="register"),
            kernel2_cost(cfg, version="register"),
            kernel3_cost(cfg, version="v3", matrices_per_block=gemm_mpb),
            kernel4_cost(cfg, version="v3", matrices_per_block=gemm_mpb),
            # Kernel 5 is called twice per step (Figure 6 note).
            kernel5_cost(cfg, version="tuned", matrices_per_block=batched_mpb),
            kernel5_cost(cfg, version="tuned", matrices_per_block=batched_mpb),
            kernel6_cost(cfg, version="tuned", matrices_per_block=batched_mpb),
            kernel7_cost(cfg, version="v3", block_cols=block_cols),
            kernel8_cost(cfg),
            kernel10_cost(cfg),
        ]
    raise ValueError(f"unknown implementation '{implementation}' (base|optimized)")
