"""Recovery policies: retry-with-backoff, GPU->CPU fallback, rank exclusion.

`RecoveryPolicy` maps a fault to an action; `GpuOffloadPricer` applies
that policy to the per-step corner-force offload, re-pricing a degraded
step on the OpenMP CPU path with the hybrid executor when the simulated
device keeps failing. Physics is never touched here — the same numpy
state marches on either path (the reproduction's CPU and GPU corner
forces are the same batched contraction) — but the time/power ledger
changes, which is exactly the trade-off the paper's fault-tolerance
argument is about.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.resilience.faults import (
    GPUKernelFault,
    InjectedFault,
    PCIeTransferFault,
    RankFailure,
)

__all__ = [
    "BackoffPolicy",
    "RecoveryAction",
    "RecoveryPolicy",
    "StepPricing",
    "GpuOffloadPricer",
    "ResilienceExhausted",
]

# RK2Avg stages per time step (each stage is one corner-force offload).
_STAGES = 2


class ResilienceExhausted(RuntimeError):
    """The policy ran out of recovery options (retries, rollbacks, ranks)."""


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential retry backoff for transient device faults."""

    max_retries: int = 2
    base_delay_s: float = 1e-3
    multiplier: float = 2.0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.base_delay_s < 0 or self.multiplier < 1.0:
            raise ValueError("invalid backoff parameters")

    def delay_s(self, attempt: int) -> float:
        """Delay before retry number `attempt` (0-based)."""
        return self.base_delay_s * self.multiplier**attempt


@dataclass(frozen=True)
class RecoveryAction:
    """What the policy decided: retry / fallback / exclude-rank / rollback."""

    kind: str
    delay_s: float = 0.0
    rank: int | None = None


class RecoveryPolicy:
    """Maps faults to recovery actions.

    Device faults (GPU kernel, PCIe) are retried `retry.max_retries`
    times with backoff, then answered with GPU->CPU fallback; sticky
    faults skip straight to fallback (the device is gone). Rank failures
    degrade the distributed solver by excluding the dead rank. Watchdog
    violations roll back to the last checkpoint, up to `max_rollbacks`
    times.
    """

    def __init__(
        self,
        retry: BackoffPolicy | None = None,
        allow_fallback: bool = True,
        allow_rank_exclusion: bool = True,
        max_rollbacks: int = 8,
    ):
        self.retry = retry or BackoffPolicy()
        self.allow_fallback = allow_fallback
        self.allow_rank_exclusion = allow_rank_exclusion
        if max_rollbacks < 0:
            raise ValueError("max_rollbacks must be non-negative")
        self.max_rollbacks = max_rollbacks

    def for_device_fault(self, fault: InjectedFault, attempt: int) -> RecoveryAction:
        if not isinstance(fault, (GPUKernelFault, PCIeTransferFault)):
            raise TypeError(f"not a device fault: {fault!r}")
        if not fault.sticky and attempt < self.retry.max_retries:
            return RecoveryAction("retry", delay_s=self.retry.delay_s(attempt))
        if self.allow_fallback:
            return RecoveryAction("fallback")
        raise ResilienceExhausted(
            f"device fault not recoverable (fallback disabled): {fault}"
        )

    def for_rank_failure(self, fault: RankFailure, nranks: int) -> RecoveryAction:
        if self.allow_rank_exclusion and nranks > 1:
            return RecoveryAction("exclude-rank", rank=fault.rank)
        raise ResilienceExhausted(
            f"rank failure not recoverable with {nranks} rank(s): {fault}"
        )

    def for_violation(self, rollbacks_so_far: int) -> RecoveryAction:
        if rollbacks_so_far >= self.max_rollbacks:
            raise ResilienceExhausted(
                f"exceeded max_rollbacks={self.max_rollbacks}; state cannot be repaired"
            )
        return RecoveryAction("rollback")


@dataclass
class StepPricing:
    """Time/energy verdict for one step's corner-force offload."""

    mode: str  # "hybrid" | "cpu-fallback"
    time_s: float
    energy_j: float
    retries: int = 0
    fellback: bool = False
    penalty_s: float = 0.0


class GpuOffloadPricer:
    """Per-step offload pricing with fault recovery.

    Each step nominally ships both RK2Avg stages' corner forces to the
    simulated GPU (kernels through `SimulatedGPU`, state vectors over
    `PCIeModel` — both instrumented fault sites). On an injected fault
    the policy first retries with backoff (the device idles through the
    delay, burning idle power), then falls back to the OpenMP CPU path:
    the step is re-priced at the CPU-only step time and package power of
    the same `HybridExecutor` workload. A sticky fault marks the device
    dead and every later step prices degraded without re-probing.
    """

    def __init__(self, executor, injector=None, policy: RecoveryPolicy | None = None):
        from repro.gpu.device import SimulatedGPU
        from repro.gpu.pcie import PCIeModel
        from repro.kernels.registry import corner_force_costs

        if executor.gpu is None:
            raise ValueError("offload pricing requires an executor with a GPU")
        self.executor = executor
        self.policy = policy or RecoveryPolicy()
        self.device = SimulatedGPU(executor.gpu, fault_injector=injector)
        self.pcie = PCIeModel(executor.gpu, fault_injector=injector)
        self.cf_costs = list(corner_force_costs(executor.cfg, executor.implementation))
        self.plan = PCIeModel.state_vectors_plan(
            executor.cfg.kinematic_ndof_estimate,
            executor.cfg.nzones * executor.cfg.ndof_thermo_zone,
            executor.cfg.dim,
        )
        hyb = executor.hybrid()
        cpu = executor.cpu_only()
        self.hybrid_step_s = hyb.step.total_s
        self.hybrid_power_w = hyb.total_power_w
        self.cpu_step_s = cpu.step.total_s
        self.cpu_power_w = cpu.total_power_w
        self.degraded = False

    def _cpu_pricing(self, retries: int, penalty_s: float) -> StepPricing:
        t = self.cpu_step_s + penalty_s
        return StepPricing(
            "cpu-fallback", t, self.cpu_power_w * self.cpu_step_s
            + self.executor.gpu.idle_w * penalty_s,
            retries=retries, fellback=True, penalty_s=penalty_s,
        )

    def price_step(self) -> StepPricing:
        """Price one step's offload, applying the recovery policy."""
        if self.degraded:
            return self._cpu_pricing(retries=0, penalty_s=0.0)
        retries = 0
        attempt = 0
        penalty_s = 0.0
        while True:
            try:
                self.device.run_phase(
                    self.cf_costs * _STAGES, concurrent_clients=self.executor.nmpi
                )
                self.pcie.transfer_time_s(self.plan.total, ncalls=5)
                t = self.hybrid_step_s + penalty_s
                return StepPricing(
                    "hybrid", t, self.hybrid_power_w * self.hybrid_step_s
                    + self.executor.gpu.idle_w * penalty_s,
                    retries=retries, penalty_s=penalty_s,
                )
            except (GPUKernelFault, PCIeTransferFault) as fault:
                action = self.policy.for_device_fault(fault, attempt)
                attempt += 1
                if action.kind == "retry":
                    retries += 1
                    penalty_s += action.delay_s
                    self.device.idle(action.delay_s)
                    continue
                # fallback: re-execute this step on the CPU path; a
                # sticky fault means the device is gone for good.
                if fault.sticky:
                    self.degraded = True
                return self._cpu_pricing(retries, penalty_s)
