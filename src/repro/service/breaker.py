"""Per-backend circuit breaker: stop sending jobs to a sick device.

A sticky GPU fault degrades *one* run (the `ResilientDriver` swaps
hybrid -> cpu-fused mid-flight, PR 4), but a fleet that keeps admitting
hybrid jobs onto a node whose device keeps dying pays the
retry + mid-run-swap tax on every one of them. The breaker closes that
gap with the classic three-state machine:

* **closed** — jobs flow to the backend; consecutive failures are
  counted, `failure_threshold` of them open the circuit;
* **open** — jobs are rerouted up front (the fleet degrades hybrid
  jobs to cpu-fused before they start, reusing the same
  `swap_backend` arithmetic — physics identical, no device pricing).
  After `cooldown_jobs` rerouted jobs the breaker moves to half-open;
* **half-open** — exactly one probe job is allowed through on the real
  backend. Success closes the circuit (the device recovered); failure
  re-opens it and the cooldown starts over.

The cooldown is counted in *jobs served while open* rather than wall
seconds, which keeps the state machine deterministic under test and
ties recovery probing to actual traffic (a quiet fleet learns nothing
from wall time passing).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

__all__ = ["BreakerConfig", "CircuitBreaker", "BreakerBoard"]

#: Backend degradation routes: circuit open on the key -> run on the value.
DEGRADE_ROUTES = {"hybrid": "cpu-fused"}


@dataclass(frozen=True)
class BreakerConfig:
    """failure_threshold consecutive failures open the circuit;
    cooldown_jobs rerouted jobs later, one probe is let through."""

    failure_threshold: int = 3
    cooldown_jobs: int = 2

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown_jobs < 1:
            raise ValueError("cooldown_jobs must be >= 1")


@dataclass
class BreakerTransition:
    """One state change, for the fleet trace / rollup."""

    source: str
    target: str
    detail: str = ""


class CircuitBreaker:
    """Three-state breaker for one backend (see module docstring)."""

    def __init__(self, name: str, config: BreakerConfig | None = None):
        self.name = name
        self.config = config or BreakerConfig()
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._denials = 0
        self._probe_inflight = False
        self.transitions: list[BreakerTransition] = []

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def _move(self, target: str, detail: str) -> None:
        self.transitions.append(BreakerTransition(self._state, target, detail))
        self._state = target

    def allow(self) -> bool:
        """May the next job run on this backend?

        open: counts the denial; after `cooldown_jobs` denials the
        breaker half-opens. half-open: admits exactly one probe; other
        jobs are denied until the probe reports.
        """
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open":
                self._denials += 1
                if self._denials >= self.config.cooldown_jobs:
                    self._move("half-open", f"after {self._denials} degraded jobs")
                    self._denials = 0
                    self._probe_inflight = True
                    return True
                return False
            # half-open: one probe at a time.
            if self._probe_inflight:
                return False
            self._probe_inflight = True
            return True

    def record_success(self) -> None:
        """The job ran on the real backend and finished undegraded."""
        with self._lock:
            if self._state == "half-open":
                self._probe_inflight = False
                self._move("closed", "probe succeeded")
            self._consecutive_failures = 0

    def record_failure(self, detail: str = "") -> None:
        """The backend failed under a job (e.g. sticky GPU fault)."""
        with self._lock:
            if self._state == "half-open":
                self._probe_inflight = False
                self._denials = 0
                self._move("open", detail or "probe failed")
                return
            if self._state == "open":
                return
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.config.failure_threshold:
                self._denials = 0
                self._move(
                    "open",
                    detail
                    or f"{self._consecutive_failures} consecutive failures",
                )

    def describe(self) -> dict:
        with self._lock:
            return {
                "backend": self.name,
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "transitions": [
                    {"from": t.source, "to": t.target, "detail": t.detail}
                    for t in self.transitions
                ],
            }


@dataclass
class BreakerBoard:
    """Per-backend breakers, created lazily on first use."""

    config: BreakerConfig = field(default_factory=BreakerConfig)

    def __post_init__(self):
        self._breakers: dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()

    def breaker(self, backend: str) -> CircuitBreaker:
        with self._lock:
            if backend not in self._breakers:
                self._breakers[backend] = CircuitBreaker(backend, self.config)
            return self._breakers[backend]

    def route(self, backend: str) -> tuple[str, bool, CircuitBreaker | None]:
        """Admission-time routing decision for one job.

        Returns `(effective_backend, degraded, breaker)`. Backends
        without a degrade route are never broken (nothing to reroute
        to), so their breaker is None and they always pass through.
        """
        if backend not in DEGRADE_ROUTES:
            return backend, False, None
        br = self.breaker(backend)
        if br.allow():
            return backend, False, br
        return DEGRADE_ROUTES[backend], True, br

    def describe(self) -> dict:
        with self._lock:
            return {name: br.describe() for name, br in self._breakers.items()}
