"""Simulated RAPL/NVML counter sampling, attributed to open spans.

The paper instruments real runs by polling RAPL (CPU package + DRAM)
and NVML (GPU board) counters at a fixed cadence while kernels execute,
then correlating the power timeline with kernel phases (Section 5.1-5.2,
Figures 14-16). `CounterSampler` is this repo's analogue: attached to a
`Tracer`, it observes every span transition, integrates the simulated
power models (`repro.cpu.core_model`, `repro.gpu.specs` idle levels)
over each interval, and attributes the joules to whichever span was
open — so per-kernel / per-phase energy breakdowns come out of *real*
solver runs instead of standalone modelled benchmarks.

Attribution is exact piecewise-constant integration at span boundaries
(per-phase totals sum to the power-model integral identically); the
configured cadence only controls the granularity of the emitted counter
*samples* (the JSONL / Chrome-trace power curves), mirroring how the
real MSRs update at ~1 ms regardless of when phases begin.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.core_model import CPUExecutionModel
from repro.cpu.specs import CPUSpec
from repro.gpu.specs import GPUSpec

__all__ = ["CounterSample", "CounterSampler", "DEFAULT_PHASE_UTILIZATION"]

# Busy-core fraction of the CPU package while a span of the given name
# (or, as a fallback, category) is the innermost open span. The solver's
# numeric phases saturate the core; the "other" remainder (a `step` or
# `stage` span with no phase child open: assembly, state updates, energy
# RHS) keeps the core busy but at lower intensity; bookkeeping spans and
# idle time sit at the idle level — exactly the attribution question
# "Racing to Idle" shows can flip energy conclusions.
DEFAULT_PHASE_UTILIZATION = {
    "force": 1.0,
    "cg": 1.0,
    "step": 0.6,
    "stage": 0.6,
    "run": 0.15,
    "category:kernel": 1.0,
    "category:phase": 1.0,
    None: 0.0,  # no span open: process idle
}


@dataclass(frozen=True)
class CounterSample:
    """One cadence reading of the simulated counters (watts)."""

    t_s: float
    cpu_w: float
    gpu_w: float


class CounterSampler:
    """Plays the RAPL/NVML poller role over a live tracer.

    Parameters
    ----------
    cpu : `CPUSpec` or catalog name; powers the package + DRAM model.
    gpu : optional `GPUSpec` or catalog name. A CPU-hosted NumPy run
        never busies the GPU, so the board contributes its *idle* power
        — include it to account a hybrid node honestly, omit it (None)
        to meter the CPU alone like the paper's Figure 14.
    period_s : counter sample cadence (RAPL/NVML update ~1 ms).
    packages : CPU packages on the metered node.
    utilization : overrides for `DEFAULT_PHASE_UTILIZATION`.
    max_samples : hard cap on stored cadence samples (long runs degrade
        to span-boundary samples instead of growing without bound).
    """

    def __init__(
        self,
        cpu: CPUSpec | str = "E5-2670",
        gpu: GPUSpec | str | None = None,
        period_s: float = 1e-3,
        packages: int = 1,
        utilization: dict | None = None,
        max_samples: int = 200_000,
    ):
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        if packages < 1:
            raise ValueError("packages must be >= 1")
        if isinstance(cpu, str):
            from repro.cpu import get_cpu

            cpu = get_cpu(cpu)
        if isinstance(gpu, str):
            from repro.gpu import get_gpu

            gpu = get_gpu(gpu)
        self.cpu = cpu
        self.gpu = gpu
        self.period_s = period_s
        self.packages = packages
        self.utilization = dict(DEFAULT_PHASE_UTILIZATION)
        if utilization:
            self.utilization.update(utilization)
        self.max_samples = max_samples
        self._model = CPUExecutionModel(cpu)
        self.samples: list[CounterSample] = []
        self.cpu_energy_j = 0.0
        self.gpu_energy_j = 0.0
        self._last_t: float | None = None
        self._next_sample_t = 0.0

    # -- power mapping -----------------------------------------------------------

    def utilization_for(self, span) -> float:
        """Busy fraction for the innermost open span (None = idle)."""
        if span is None:
            return self.utilization[None]
        if span.name in self.utilization:
            return self.utilization[span.name]
        return self.utilization.get(f"category:{span.category}", 0.5)

    def power_for(self, span) -> tuple[float, float]:
        """(cpu_w, gpu_w) drawn while `span` is the open leaf."""
        u = self.utilization_for(span)
        cpu_w = self.packages * (
            self._model.package_power(u) + self._model.dram_power(u)
        )
        gpu_w = self.gpu.idle_w if self.gpu is not None else 0.0
        return cpu_w, gpu_w

    # -- tracer listener protocol ------------------------------------------------

    def attach_at(self, t: float) -> None:
        """Called by `Tracer.add_listener`: start metering at time t."""
        self._last_t = t
        self._next_sample_t = t

    def on_interval(self, t: float, leaf) -> None:
        """Integrate power over [last transition, t) under `leaf`."""
        if self._last_t is None:
            self._last_t = t
            self._next_sample_t = t
            return
        dt = t - self._last_t
        if dt <= 0:
            return
        cpu_w, gpu_w = self.power_for(leaf)
        self.cpu_energy_j += cpu_w * dt
        self.gpu_energy_j += gpu_w * dt
        if leaf is not None:
            leaf.cpu_j += cpu_w * dt
            leaf.gpu_j += gpu_w * dt
        # Cadence samples inside the interval (the Figure 14/16 curves).
        while (
            self._next_sample_t < t and len(self.samples) < self.max_samples
        ):
            self.samples.append(CounterSample(self._next_sample_t, cpu_w, gpu_w))
            self._next_sample_t += self.period_s
        if self._next_sample_t < t:  # cap hit: stay aligned, stop storing
            import math

            self._next_sample_t = (
                math.ceil(t / self.period_s) * self.period_s
            )
        self._last_t = t

    def on_finish(self, t: float) -> None:
        """Final catch-up at trace end (idle since the last span)."""
        self.on_interval(t, None)

    # -- queries -------------------------------------------------------------------

    @property
    def total_energy_j(self) -> float:
        """Integrated node energy — the reference every per-span
        attribution must sum back to."""
        return self.cpu_energy_j + self.gpu_energy_j

    def describe(self) -> dict:
        """Manifest-ready summary of the metering configuration."""
        return {
            "cpu": self.cpu.name,
            "gpu": self.gpu.name if self.gpu is not None else None,
            "packages": self.packages,
            "period_s": self.period_s,
            "samples": len(self.samples),
            "cpu_energy_j": self.cpu_energy_j,
            "gpu_energy_j": self.gpu_energy_j,
        }
