"""`repro.service`: fault-tolerant simulation fleet.

A job queue + worker pool over the `repro.api` facade that turns many
concurrent run requests into a managed fleet: bounded admission with
load shedding, per-job deadlines with backoff + deterministic jitter,
per-backend circuit breaking fed by the resilience layer's fault
signals, a crash-safe write-ahead journal with exactly-once recovery,
content-addressed result reuse, and a fleet-wide telemetry rollup.

Quickstart::

    from repro.service import SimulationFleet, FleetConfig

    with SimulationFleet(FleetConfig(workers=2),
                         journal_path="fleet/journal.jsonl") as fleet:
        handles = [fleet.submit("sedov", zones=6, t_final=0.05)
                   for _ in range(8)]
        results = [h.wait() for h in handles]
        print(fleet.rollup())
"""

from repro.service.breaker import (
    BreakerBoard,
    BreakerConfig,
    CircuitBreaker,
)
from repro.service.fleet import FleetConfig, RetryPolicy, SimulationFleet
from repro.service.jobs import (
    JOB_STATES,
    DeadlineExceeded,
    JobHandle,
    JobResult,
    JobSpec,
    state_digest,
)
from repro.service.journal import (
    JobJournal,
    JournalCorruptionError,
    RecoveredState,
    ResultStore,
    recover,
)
from repro.service.queue import AdmissionError, JobQueue, QueueConfig

__all__ = [
    "SimulationFleet",
    "FleetConfig",
    "RetryPolicy",
    "JobSpec",
    "JobResult",
    "JobHandle",
    "JOB_STATES",
    "DeadlineExceeded",
    "state_digest",
    "AdmissionError",
    "JobQueue",
    "QueueConfig",
    "CircuitBreaker",
    "BreakerBoard",
    "BreakerConfig",
    "JobJournal",
    "JournalCorruptionError",
    "RecoveredState",
    "ResultStore",
    "recover",
]
