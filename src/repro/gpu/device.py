"""The simulated GPU device: launch queues, clock, power accounting.

`SimulatedGPU` is the object the hybrid runtime talks to. It runs phases
of kernels (as `KernelCost` descriptors) through the roofline model,
advances a simulated clock, and prices each phase's board power with
`GPUPowerModel` (the reading NVML would report). Hyper-Q semantics follow
the paper's Section 4.2: Kepler exposes 32 hardware work queues so
multiple MPI clients can share the device concurrently; on Fermi-class
parts (one queue) multiple clients serialize and pay a synchronization
penalty per kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpu.execution import KernelCost, KernelTiming, execute_kernel
from repro.gpu.power import GPUPowerModel
from repro.gpu.specs import GPUSpec

__all__ = ["SimulatedGPU", "KernelLaunchRecord", "PhaseReport"]

# Extra per-kernel serialization cost when clients contend for a single
# work queue (context switching on Fermi-class parts).
_QUEUE_CONTENTION_OVERHEAD_S = 20e-6


@dataclass(frozen=True)
class KernelLaunchRecord:
    """One completed (simulated) kernel launch."""

    start_s: float
    end_s: float
    timing: KernelTiming


@dataclass
class PhaseReport:
    """Aggregate of one activity phase (e.g. one corner-force pass)."""

    time_s: float
    power_w: float
    energy_j: float
    timings: list[KernelTiming] = field(default_factory=list)


class SimulatedGPU:
    """A single GPU board with a simulated clock."""

    def __init__(self, spec: GPUSpec, fault_injector=None):
        self.spec = spec
        self.power_model = GPUPowerModel(spec)
        self.clock_s = 0.0
        self.launches: list[KernelLaunchRecord] = []
        self.total_energy_j = 0.0
        # Optional repro.resilience.FaultInjector: every kernel routed
        # through this device may then abort with a GPUKernelFault.
        self.fault_injector = fault_injector

    def run_phase(
        self,
        costs: list[KernelCost],
        concurrent_clients: int = 1,
        duty_cycle: float = 1.0,
    ) -> PhaseReport:
        """Execute a kernel mix submitted by `concurrent_clients` clients.

        With Hyper-Q (enough hardware queues) the clients' work simply
        shares the device back-to-back; without it each kernel beyond the
        first client pays a serialization overhead.
        """
        if concurrent_clients < 1:
            raise ValueError("concurrent_clients must be >= 1")
        # A fault aborts the whole phase before the clock advances: the
        # device state stays consistent, mirroring a driver-level abort.
        timings = [
            execute_kernel(self.spec, c, fault_injector=self.fault_injector) for c in costs
        ]
        busy = sum(t.time_s for t in timings)
        if concurrent_clients > self.spec.hyperq_queues:
            busy += _QUEUE_CONTENTION_OVERHEAD_S * len(costs)
        wall = busy / duty_cycle if duty_cycle > 0 else busy
        power = self.power_model.active_power(timings, concurrent_clients, duty_cycle)
        energy = power * wall
        start = self.clock_s
        self.clock_s += wall
        self.total_energy_j += energy
        for t in timings:
            self.launches.append(KernelLaunchRecord(start, start + t.time_s, t))
            start += t.time_s
        return PhaseReport(wall, power, energy, timings)

    def idle(self, duration_s: float) -> None:
        """Advance the clock with the board idle."""
        if duration_s < 0:
            raise ValueError("duration must be non-negative")
        self.total_energy_j += self.spec.idle_w * duration_s
        self.clock_s += duration_s

    # -- Introspection ------------------------------------------------------------

    def kernel_time_breakdown(self) -> dict[str, float]:
        """Total simulated time per kernel name (the paper's Figure 6)."""
        out: dict[str, float] = {}
        for l in self.launches:
            out[l.timing.cost.name] = out.get(l.timing.cost.name, 0.0) + l.timing.time_s
        return out
