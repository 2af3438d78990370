"""Adaptive time-step control.

BLAST estimates a stable dt inside the corner-force loop (step 4.2),
takes the global minimum (an MPI reduction, step 5), and applies CFL
safety plus gentle growth. A step that tangles the mesh or produces an
invalid state is rejected and retried with a halved dt.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError

__all__ = ["TimestepController"]


@dataclass
class TimestepController:
    """CFL-scaled adaptive dt with growth limiting and rejection.

    Attributes
    ----------
    cfl : CFL safety factor applied to the corner-force estimate.
    growth : max ratio dt_{n+1}/dt_n (BLAST-style gentle ramp).
    shrink : rejection factor when a step fails.
    dt_min : hard lower bound — below this the run aborts (the mesh is
        irrecoverably tangled).
    """

    cfl: float = 0.5
    growth: float = 1.02
    shrink: float = 0.5
    dt_min: float = 1e-14
    dt_max: float = float("inf")
    dt: float = field(default=0.0, init=False)
    n_rejected: int = field(default=0, init=False)

    def __post_init__(self):
        if not (0 < self.cfl <= 1.0):
            raise ConfigError(f"cfl must be in (0, 1], got {self.cfl}")
        if self.growth < 1.0:
            raise ValueError("growth must be >= 1")
        if not (0 < self.shrink < 1):
            raise ValueError("shrink must be in (0, 1)")

    def initialize(self, dt_est: float) -> float:
        """Set the initial dt from the first corner-force estimate."""
        if dt_est <= 0:
            raise ValueError("initial dt estimate must be positive")
        self.dt = self.cfl * dt_est
        return self.dt

    def propose(self, dt_est: float, t: float, t_final: float) -> float:
        """Next dt: CFL-limited, growth-limited, clipped to the horizon."""
        if self.dt <= 0:
            raise RuntimeError("controller not initialized")
        dt = min(self.cfl * dt_est, self.growth * self.dt, self.dt_max)
        remaining = t_final - t
        if remaining <= 0:
            return 0.0
        # Land exactly on t_final without a sliver step at the end.
        if dt >= remaining:
            dt = remaining
        elif dt > 0.5 * remaining:
            dt = 0.5 * remaining
        self.dt = dt
        return dt

    def reject(self) -> float:
        """Halve dt after a failed step; raises once below dt_min."""
        self.n_rejected += 1
        self.dt *= self.shrink
        if self.dt < self.dt_min:
            raise RuntimeError(
                f"time step collapsed below dt_min={self.dt_min:g} after "
                f"{self.n_rejected} rejections — mesh is likely tangled"
            )
        return self.dt
