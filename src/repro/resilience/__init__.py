"""Resilient execution layer: fault injection, recovery, checkpointed replay.

The paper motivates the hybrid CPU-GPU design with fault tolerance
("Applications are more fault tolerant and runs faster, since the
frequency of checking points can be reduced"). This subsystem makes
that claim exercisable: `FaultInjector` deterministically breaks the
simulated runtime (GPU kernel aborts, PCIe transfer failures, MPI rank
deaths, silent state corruption), `RecoveryPolicy` decides how to
answer (retry with backoff, GPU->CPU fallback, rank exclusion,
rollback), `Watchdog` detects what the hardware can't report, and
`ResilientDriver` runs the solver with checkpointed auto-recovery and
prices the whole exercise in a `RecoveryReport`.
"""

from repro.resilience.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultRecord,
    FaultSpec,
    GPUKernelFault,
    InjectedFault,
    PCIeTransferFault,
    RankFailure,
    parse_fault_specs,
)
from repro.resilience.policy import (
    BackoffPolicy,
    GpuOffloadPricer,
    RecoveryAction,
    RecoveryPolicy,
    ResilienceExhausted,
    StepPricing,
)
from repro.resilience.watchdog import InvariantViolation, Watchdog, WatchdogLimits
from repro.resilience.driver import (
    CheckpointCostModel,
    FaultEvent,
    RecoveryReport,
    ResilientDriver,
    ResilientRunResult,
)

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultRecord",
    "FaultSpec",
    "GPUKernelFault",
    "InjectedFault",
    "PCIeTransferFault",
    "RankFailure",
    "parse_fault_specs",
    "BackoffPolicy",
    "GpuOffloadPricer",
    "RecoveryAction",
    "RecoveryPolicy",
    "ResilienceExhausted",
    "StepPricing",
    "InvariantViolation",
    "Watchdog",
    "WatchdogLimits",
    "CheckpointCostModel",
    "FaultEvent",
    "RecoveryReport",
    "ResilientDriver",
    "ResilientRunResult",
]
