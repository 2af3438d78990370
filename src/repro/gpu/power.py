"""GPU board power model.

Board power decomposes as

    P = idle                                  (nothing running, long term)
    P = active_base + P_dynamic + P_hyperq    (kernels in flight)

where `P_dynamic` is the traffic/compute energy of the running kernels
divided by their runtime (the component model of `gpu.memory` /
`gpu.execution`), and `P_hyperq` is the per-extra-client overhead the
paper observed when 8 MPI ranks share one K20 ("when the GPU is shared
by 8 MPI tasks, its power usage will be higher than 1 MPI ... this
additional power cost should come from the overhead of Hyper-Q",
Section 5.2). Power is clamped to the board TDP.
"""

from __future__ import annotations

from repro.gpu.execution import KernelTiming
from repro.gpu.specs import GPUSpec

__all__ = [
    "GPUPowerModel",
    "HYPERQ_OVERHEAD_W_PER_CLIENT",
    "COMPONENT_MAX_W_FRACTION",
]

# Extra board power per additional concurrent Hyper-Q client.
HYPERQ_OVERHEAD_W_PER_CLIENT = 6.0

# Peak dynamic power of each component as a fraction of the board's
# dynamic headroom (TDP - active base). Ratios follow the component
# studies the paper cites ([18], [19]): device memory is the largest
# non-core consumer ("the memory power consumes around 25% of total GPU
# power"), the SMs' FP datapath the largest overall, on-chip RAMs small.
COMPONENT_MAX_W_FRACTION = {
    "fp": 0.52,
    "dram": 0.36,
    "l2": 0.06,
    "shared": 0.06,
}


class GPUPowerModel:
    """Computes board power for phases of modelled kernel activity."""

    def __init__(self, spec: GPUSpec):
        self.spec = spec

    def active_power(
        self,
        timings: list[KernelTiming],
        concurrent_clients: int = 1,
        duty_cycle: float = 1.0,
    ) -> float:
        """Average board power while the given kernel mix executes.

        `duty_cycle` < 1 models gaps between launches (host-side work),
        during which the board sits at the active base level.
        """
        if not timings:
            return self.spec.idle_w
        if not (0 < duty_cycle <= 1.0):
            raise ValueError("duty_cycle must be in (0, 1]")
        if concurrent_clients < 1:
            raise ValueError("concurrent_clients must be >= 1")
        total_time = sum(t.time_s for t in timings)
        if total_time <= 0:
            return self.spec.idle_w
        headroom = self.spec.tdp_w - self.spec.active_base_w
        # Time-weighted component utilization over the kernel mix.
        p_dyn = 0.0
        for comp, frac in COMPONENT_MAX_W_FRACTION.items():
            util = sum(t.busy.get(comp, 0.0) * t.time_s for t in timings) / total_time
            p_dyn += frac * headroom * util
        p_dyn *= duty_cycle
        p_hq = HYPERQ_OVERHEAD_W_PER_CLIENT * (min(concurrent_clients, self.spec.hyperq_queues) - 1)
        p = self.spec.active_base_w + p_dyn + p_hq
        return float(min(p, self.spec.tdp_w))
