"""Energy accounting and the greenup metric (paper Section 5.3).

    Greenup = CPU_energy / (CPU+GPU)_energy
            = Powerup * Speedup

"Powerup may be less than 1, since CPU+GPU power may exceed that of CPU
only. Yet, the speedup is greater than 1. Therefore the greenup will be
larger than 1."
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["EnergyAccount", "GreenupReport", "greenup"]


@dataclass
class EnergyAccount:
    """Accumulates (power, duration) phases for one configuration."""

    label: str = ""
    phases: list[tuple[str, float, float]] = field(default_factory=list)
    # entries: (phase name, duration_s, power_w)

    def add(self, name: str, duration_s: float, power_w: float) -> None:
        if duration_s < 0 or power_w < 0:
            raise ValueError("duration and power must be non-negative")
        self.phases.append((name, duration_s, power_w))

    @property
    def time_s(self) -> float:
        return sum(d for _, d, _ in self.phases)

    @property
    def energy_j(self) -> float:
        return sum(d * p for _, d, p in self.phases)

    @property
    def average_power_w(self) -> float:
        t = self.time_s
        return self.energy_j / t if t > 0 else 0.0


@dataclass(frozen=True)
class GreenupReport:
    """The paper's Table 7 row."""

    method: str
    cpu_time_s: float
    cpu_power_w: float
    hybrid_time_s: float
    hybrid_power_w: float

    @property
    def speedup(self) -> float:
        return self.cpu_time_s / self.hybrid_time_s

    @property
    def powerup(self) -> float:
        """'Power Efficiency' in Table 7: CPU power over hybrid power."""
        return self.cpu_power_w / self.hybrid_power_w

    @property
    def greenup(self) -> float:
        return self.powerup * self.speedup

    @property
    def energy_saved_fraction(self) -> float:
        """1 - hybrid energy / CPU energy (the paper's 27% / 42%)."""
        return 1.0 - 1.0 / self.greenup

    def row(self) -> str:
        return (
            f"{self.method:8s} powerup={self.powerup:5.2f} "
            f"speedup={self.speedup:5.2f} greenup={self.greenup:5.2f} "
            f"energy saved={self.energy_saved_fraction:5.1%}"
        )


def greenup(cpu: EnergyAccount, hybrid: EnergyAccount, method: str = "") -> GreenupReport:
    """Build a greenup report from two measured energy accounts."""
    if cpu.time_s <= 0 or hybrid.time_s <= 0:
        raise ValueError("both accounts need positive total time")
    return GreenupReport(
        method=method or f"{cpu.label} vs {hybrid.label}",
        cpu_time_s=cpu.time_s,
        cpu_power_w=cpu.average_power_w,
        hybrid_time_s=hybrid.time_s,
        hybrid_power_w=hybrid.average_power_w,
    )
