"""Job model for the simulation fleet: specs, handles, results.

A *job* is one `(problem, RunConfig)` run request flowing through the
`repro.service` fleet. `JobSpec` is the immutable, fully serializable
description (what the write-ahead journal records), `JobHandle` the
client-side future returned by `SimulationFleet.submit` (sync `wait` +
async `poll`), and `JobResult` the terminal outcome — including the
SHA-256 digest of the final hydro state, which is what makes
"recovered result is bit-identical" a checkable claim rather than a
slogan.

Jobs are identified two ways:

* `job_id` — unique per submission; the journal's exactly-once
  accounting is per job id (one terminal record each, ever);
* `content_key` — SHA-256 over (problem, canonical config,
  code-version); two submissions with the same key are the *same
  computation*, so a completed result cached under the key satisfies
  later submissions in O(1) (and satisfies journal recovery after a
  crash without re-running).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
from dataclasses import dataclass, field

from repro.config import RunConfig
from repro.errors import ConfigError, ReproError

__all__ = [
    "JOB_STATES",
    "DeadlineExceeded",
    "JobSpec",
    "JobResult",
    "JobHandle",
    "state_digest",
]

JOB_STATES = ("pending", "running", "succeeded", "failed", "shed", "cancelled")


class DeadlineExceeded(ReproError, RuntimeError):
    """An attempt blew its wall-clock budget (retryable: the budget
    grows by `RetryPolicy.deadline_growth` per attempt)."""


def state_digest(state) -> str:
    """SHA-256 over the hydro state's arrays + time (bit-identity check)."""
    import numpy as np

    h = hashlib.sha256()
    for arr in (state.v, state.e, state.x):
        a = np.ascontiguousarray(arr)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    h.update(repr(float(state.t)).encode())
    return h.hexdigest()


@dataclass(frozen=True)
class JobSpec:
    """One immutable run request.

    `deadline_s` is the wall-clock budget of a single attempt; the
    fleet's retry policy multiplies it per retry (deadline extension),
    so a transiently slow job times out, backs off, and still
    completes. `max_attempts` bounds execution attempts (first try
    included).
    """

    problem: str
    config: RunConfig = field(default_factory=RunConfig)
    priority: int = 0
    deadline_s: float | None = None
    max_attempts: int = 3
    job_id: str = ""

    def __post_init__(self):
        if not isinstance(self.config, RunConfig):
            raise TypeError("config must be a RunConfig")
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigError("deadline_s must be positive")

    def content_key(self) -> str:
        """SHA-256 of (problem, canonical config, code-version).

        Identifies the *computation*: identical keys mean identical
        results, so the fleet's result store answers repeats in O(1)
        and journal recovery can reuse completed work bit-identically.
        A code-version bump invalidates every cached result.
        """
        from repro.version import __version__

        payload = json.dumps(
            {
                "problem": self.problem,
                "config": dataclasses.asdict(self.config),
                "version": __version__,
            },
            sort_keys=True,
            default=repr,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def to_dict(self) -> dict:
        """JSON-serializable form (what the journal records)."""
        return {
            "problem": self.problem,
            "config": dataclasses.asdict(self.config),
            "priority": self.priority,
            "deadline_s": self.deadline_s,
            "max_attempts": self.max_attempts,
            "job_id": self.job_id,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "JobSpec":
        """Inverse of `to_dict`. Records journaled before `RunConfig`
        lost its `engine` and `rank_step` fields, or before the staged
        `cpu-serial` backend was folded into `cpu-fused`, still load:
        both keys are dropped whatever their value, and `cpu-serial`
        becomes `cpu-fused`. Retired spellings that `RunConfig` still
        accepts are rewritten there."""
        config = dict(d["config"])
        config.pop("engine", None)
        config.pop("rank_step", None)
        if config.get("backend") == "cpu-serial":
            config["backend"] = "cpu-fused"
        return cls(
            problem=d["problem"],
            config=RunConfig(**config),
            priority=int(d.get("priority", 0)),
            deadline_s=d.get("deadline_s"),
            max_attempts=int(d.get("max_attempts", 3)),
            job_id=d.get("job_id", ""),
        )


@dataclass
class JobResult:
    """Terminal outcome of one job."""

    job_id: str
    status: str
    problem: str = ""
    content_key: str = ""
    steps: int = 0
    t_final: float = 0.0
    energy_initial: float = 0.0
    energy_final: float = 0.0
    state_sha256: str = ""
    wall_s: float = 0.0
    attempts: int = 0
    retries: int = 0
    timeouts: int = 0
    backend: str = ""
    #: The job ran on a degraded backend: either the breaker rerouted
    #: it pre-admission (hybrid circuit open -> cpu-fused) or a sticky
    #: GPU fault swapped the backend mid-run.
    degraded: bool = False
    #: Result served from the content-addressed store without running.
    cached: bool = False
    #: Executed on a warm pooled solver (reused workspace/backend).
    warm: bool = False
    joules: float | None = None
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "succeeded"

    @property
    def energy_drift(self) -> float:
        return self.energy_final - self.energy_initial

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class JobHandle:
    """Client-side future for one submitted job.

    `poll()` is the async surface (non-blocking status read), `wait()`
    the sync one (blocks until the job reaches a terminal state). The
    fleet finishes the handle exactly once — including for jobs that
    were shed, cancelled, recovered from the journal, or satisfied from
    the result cache.
    """

    def __init__(self, spec: JobSpec):
        self.spec = spec
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._status = "pending"
        self._result: JobResult | None = None
        self._attempts = 0

    @property
    def job_id(self) -> str:
        return self.spec.job_id

    def poll(self) -> str:
        """Current state (non-blocking): one of `JOB_STATES`."""
        with self._lock:
            return self._status

    @property
    def done(self) -> bool:
        return self._event.is_set()

    @property
    def result(self) -> JobResult | None:
        """The terminal result, or None while the job is in flight."""
        with self._lock:
            return self._result

    def wait(self, timeout: float | None = None) -> JobResult:
        """Block until terminal; raises TimeoutError if `timeout` expires."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"job {self.job_id} not finished within {timeout}s "
                f"(status: {self.poll()})"
            )
        assert self._result is not None
        return self._result

    # -- fleet-side transitions (package-internal) --------------------------

    def _mark_running(self, attempt: int) -> None:
        with self._lock:
            self._status = "running"
            self._attempts = attempt

    def _finish(self, result: JobResult) -> None:
        with self._lock:
            if self._result is not None:  # exactly-once: first finish wins
                return
            self._status = result.status
            self._result = result
        self._event.set()
