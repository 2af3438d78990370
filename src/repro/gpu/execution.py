"""Roofline execution-time model for simulated kernels.

A kernel is described by its work (`KernelCost`): floating point
operations, bytes moved at each memory level, and its launch
configuration (threads/block, registers/thread, shared memory/block).
Execution time is the slowest of the compute roof and the per-level
bandwidth roofs, de-rated by occupancy — the same first-order model the
paper's own analysis applies ("theoretical peak performance on K20 is
35, 52 Gflop/s for DIM = 2, 3" comes from exactly this arithmetic).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.gpu.memory import ENERGY_PER_DP_FLOP_PJ, MemoryHierarchy
from repro.gpu.occupancy import OccupancyResult, occupancy
from repro.gpu.specs import GPUSpec

__all__ = ["KernelCost", "KernelTiming", "execute_kernel", "KERNEL_LAUNCH_OVERHEAD_S"]

# Fixed driver/runtime cost of one kernel launch.
KERNEL_LAUNCH_OVERHEAD_S = 5e-6

# Performance saturates once enough warps hide latency; below this
# occupancy the achievable throughput degrades proportionally.
_OCCUPANCY_SATURATION = 0.7


@dataclass(frozen=True)
class KernelCost:
    """Work and launch configuration of one kernel invocation.

    `compute_efficiency` is the fraction of peak the instruction mix can
    reach even at full occupancy (scalar-heavy SVD/eigenvalue code sits
    well below pure-FMA peak; clean batched GEMM sits near it).
    `dram_efficiency` models coalescing quality of the global-memory
    access pattern.
    """

    name: str
    flops: float
    dram_bytes: float
    l2_bytes: float = 0.0
    shared_bytes: float = 0.0
    threads_per_block: int = 128
    blocks: int = 1
    regs_per_thread: int = 32
    shared_per_block: int = 0
    compute_efficiency: float = 0.8
    dram_efficiency: float = 0.8
    latency_bound_factor: float = 1.0

    def __post_init__(self):
        if self.flops < 0 or self.dram_bytes < 0 or self.l2_bytes < 0 or self.shared_bytes < 0:
            raise ValueError("work quantities must be non-negative")
        if not (0 < self.compute_efficiency <= 1.0):
            raise ValueError("compute_efficiency must be in (0, 1]")
        if not (0 < self.dram_efficiency <= 1.0):
            raise ValueError("dram_efficiency must be in (0, 1]")
        if self.latency_bound_factor < 1.0:
            raise ValueError("latency_bound_factor must be >= 1")

    def scaled(self, factor: float) -> "KernelCost":
        """Same kernel over `factor` times the work (e.g. fewer zones)."""
        return replace(
            self,
            flops=self.flops * factor,
            dram_bytes=self.dram_bytes * factor,
            l2_bytes=self.l2_bytes * factor,
            shared_bytes=self.shared_bytes * factor,
            blocks=max(1, int(round(self.blocks * factor))),
        )


@dataclass(frozen=True)
class KernelTiming:
    """Modelled execution of one kernel on one device.

    `busy` holds per-component busy fractions ("utilization") over the
    kernel's runtime: how long each memory level's pipelines were
    occupied (including replay traffic on inefficient access patterns)
    and how long the SMs were issuing FP work. The power model consumes
    these — a latency-bound spilling kernel keeps the DRAM system hot
    for its whole (long) runtime, which is exactly why the paper's base
    implementation draws *more* power than the optimized one.
    """

    cost: KernelCost
    time_s: float
    occupancy: OccupancyResult
    bound: str
    gflops: float
    bandwidth_gbs: dict[str, float] = field(default_factory=dict)
    dynamic_energy_j: float = 0.0
    busy: dict[str, float] = field(default_factory=dict)


def execute_kernel(spec: GPUSpec, cost: KernelCost, fault_injector=None) -> KernelTiming:
    """Model one kernel execution: time, achieved rates, dynamic energy.

    `fault_injector` is an optional `repro.resilience.FaultInjector`;
    when armed it may abort this launch with a `GPUKernelFault`
    (simulated uncorrectable ECC / kernel abort) before any clock or
    energy is accounted — the caller decides whether to retry or fall
    back to the CPU path.
    """
    if fault_injector is not None:
        fault_injector.check("gpu", detail=cost.name)
    mem = MemoryHierarchy.of(spec)
    occ = occupancy(spec, cost.threads_per_block, cost.regs_per_thread, cost.shared_per_block)
    if occ.occupancy <= 0.0:
        raise ValueError(
            f"kernel '{cost.name}' launch config cannot run: limited by {occ.limiter}"
        )
    occ_derate = min(1.0, occ.occupancy / _OCCUPANCY_SATURATION)

    t_compute = (
        cost.flops / (spec.peak_dp_gflops * 1e9 * cost.compute_efficiency * occ_derate)
        if cost.flops
        else 0.0
    )
    level_times = mem.level_time_s(
        cost.dram_bytes, cost.l2_bytes, cost.shared_bytes, cost.dram_efficiency
    )
    # Low occupancy also hurts bandwidth (not enough requests in flight).
    for k in level_times:
        level_times[k] /= occ_derate if occ_derate > 0 else 1.0

    candidates = {"compute": t_compute, **level_times}
    bound = max(candidates, key=lambda k: candidates[k])
    t = candidates[bound] * cost.latency_bound_factor + KERNEL_LAUNCH_OVERHEAD_S

    bandwidth = {
        "dram": cost.dram_bytes / t / 1e9,
        "l2": cost.l2_bytes / t / 1e9,
        "shared": cost.shared_bytes / t / 1e9,
    }
    energy = mem.traffic_energy_j(cost.dram_bytes, cost.l2_bytes, cost.shared_bytes)
    energy += cost.flops * ENERGY_PER_DP_FLOP_PJ * 1e-12
    # Component busy fractions. Memory levels are busy for their
    # effective (inefficiency-inflated) transfer time; the SM front end
    # is busy issuing for the compute-roof time, with a floor for the
    # load/store issue work of memory-bound kernels. The FP weight
    # scales with how FMA-dense the instruction mix is.
    busy = {
        lvl: min(1.0, lt * cost.latency_bound_factor / t)
        for lvl, lt in level_times.items()
    }
    fp_density = 0.35 + 0.65 * cost.compute_efficiency
    # Latency-bound kernels keep warp schedulers spinning on replays:
    # the issue floor grows with the latency penalty.
    issue_floor = min(1.0, 0.25 * cost.latency_bound_factor)
    busy["fp"] = min(1.0, max(t_compute / t, issue_floor)) * fp_density
    return KernelTiming(
        cost=cost,
        time_s=t,
        occupancy=occ,
        bound=bound,
        gflops=cost.flops / t / 1e9,
        bandwidth_gbs=bandwidth,
        dynamic_energy_j=energy,
        busy=busy,
    )
