"""`SimulationFleet`: the fault-tolerant many-job execution pool.

One fleet accepts many concurrent run requests
(`submit(problem, config) -> JobHandle`), executes them on a pool of
workers (threads, or inline with `workers=0` + `process()` for
deterministic drains), and makes every failure mode a first-class
behavior:

* **admission control** — `repro.service.queue.JobQueue`: bounded
  priority queue, typed `AdmissionError` with a retry-after hint,
  priority shedding, doomed-deadline rejection;
* **deadlines + retry** — each attempt has a wall budget
  (`JobSpec.deadline_s`, grown by `RetryPolicy.deadline_growth` per
  retry); failures back off exponentially with *deterministic* jitter
  (hashed from job id + attempt, so replays are reproducible);
* **circuit breaking** — `repro.service.breaker`: after K jobs end
  with a sticky-GPU degradation the hybrid circuit opens and jobs are
  rerouted to cpu-fused up front (same `swap_backend` arithmetic the
  resilience layer uses mid-run), with half-open probing to restore;
* **crash-safe journaling** — every submission is journaled before it
  is enqueued and every terminal state journaled exactly once;
  completed results are stored by content key, so a restarted fleet
  (`journal_path` + `resume=True`) re-runs only what never finished
  and serves what did bit-identically from the store;
* **warm state** — non-resilient jobs run on pooled
  `LagrangianHydroSolver`s (`solver.reset()` between jobs), reusing
  spaces, mass matrices and workspaces; hybrid jobs share one
  device-fingerprinted `TuningCache`, so the first job pays tuning and
  the rest warm-start.

`rollup()` aggregates fleet telemetry (jobs/s, latency percentiles,
joules per metered job, shed/retried/degraded counts); the
`repro.telemetry.FleetManifest` wraps it for export next to the
per-run `RunManifest`.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
import time
import uuid
from dataclasses import dataclass, field, replace

from repro.config import RunConfig
from repro.service.breaker import BreakerBoard, BreakerConfig
from repro.service.jobs import (
    DeadlineExceeded,
    JobHandle,
    JobResult,
    JobSpec,
    state_digest,
)
from repro.service.journal import JobJournal, ResultStore, recover
from repro.service.queue import AdmissionError, JobQueue, QueueConfig

__all__ = ["RetryPolicy", "FleetConfig", "SimulationFleet"]


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter + deadline growth.

    The jitter is hashed from (job id, attempt): two fleets replaying
    the same journal back off identically, yet distinct jobs retrying
    after a shared incident decorrelate — the fleet-scale version of
    the seeded determinism used everywhere else in this repo.
    """

    base_delay_s: float = 0.002
    multiplier: float = 2.0
    max_delay_s: float = 0.25
    jitter: float = 0.5
    #: Per-retry multiplier on the attempt deadline: a timed-out job
    #: re-enters the pool with a relaxed budget instead of looping on a
    #: budget it already proved too small.
    deadline_growth: float = 2.0

    def __post_init__(self):
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0 or self.deadline_growth < 1.0:
            raise ValueError("multiplier and deadline_growth must be >= 1")
        if not (0.0 <= self.jitter <= 1.0):
            raise ValueError("jitter must be in [0, 1]")

    def delay_s(self, job_id: str, attempt: int) -> float:
        base = min(self.base_delay_s * self.multiplier**attempt, self.max_delay_s)
        h = int.from_bytes(
            hashlib.sha256(f"{job_id}:{attempt}".encode()).digest()[:4], "big"
        )
        return base * (1.0 + self.jitter * h / 0xFFFFFFFF)

    def attempt_deadline_s(self, spec: JobSpec, attempt: int) -> float | None:
        if spec.deadline_s is None:
            return None
        return spec.deadline_s * self.deadline_growth**attempt


@dataclass(frozen=True)
class FleetConfig:
    """Everything a fleet needs beyond its storage paths."""

    workers: int = 2
    queue: QueueConfig = field(default_factory=QueueConfig)
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Warm solvers kept per (problem, config) shape; 0 disables reuse.
    warm_pool_size: int = 4
    #: Serve repeated (problem, config, code-version) submissions from
    #: the result store in O(1) instead of re-running.
    reuse_results: bool = True

    def __post_init__(self):
        if self.workers < 0:
            raise ValueError("workers must be non-negative")
        if self.warm_pool_size < 0:
            raise ValueError("warm_pool_size must be non-negative")


def _warm_key(problem: str, cfg: RunConfig) -> tuple:
    """Solver-shape key: jobs sharing it can share a pooled solver.

    A pooled solver runs with the config it was built from, so the key
    is the whole config except `t_final`, which `run` takes per job,
    with the backend resolved so `backend=None` and `"cpu-fused"`
    share. A pooled distributed solver keeps its partition,
    communicator and plan.
    """
    return (problem, cfg.replace(t_final=None, backend=cfg.resolved_backend))


class _WarmPool:
    """Bounded cache of reusable solvers keyed by problem/config shape.

    Pooled solvers share the fleet's arena: a solver evicted from the
    pool hands its workspace leases back (`release_workspaces`), so the
    next solver built for a *different* mesh size re-leases the same
    blocks from the free lists instead of allocating — zero-allocation
    discipline survives both `solver.reset()` reuse and shape churn.
    """

    def __init__(self, size: int, arena=None):
        self.size = size
        self.arena = arena
        self._lock = threading.Lock()
        self._pool: dict[tuple, list] = {}
        self._count = 0

    def acquire(self, key: tuple):
        with self._lock:
            stack = self._pool.get(key)
            if stack:
                self._count -= 1
                return stack.pop()
            return None

    def _retire(self, solver) -> None:
        solver.close()
        release = getattr(solver, "release_workspaces", None)
        if release is not None:
            release()

    def release(self, key: tuple, solver) -> None:
        with self._lock:
            if self._count < self.size:
                self._pool.setdefault(key, []).append(solver)
                self._count += 1
                return
        self._retire(solver)

    def close(self) -> None:
        with self._lock:
            for stack in self._pool.values():
                for solver in stack:
                    self._retire(solver)
            self._pool.clear()
            self._count = 0


def _tuning_info(scheduler_or_report) -> dict | None:
    """Compact campaign identity from a scheduler (or its report)."""
    report = getattr(scheduler_or_report, "report", scheduler_or_report)
    if report is None:
        return None
    return {
        "objective": report.objective,
        "strategy": report.strategy,
        "evaluations": report.evaluations,
        "warm_started": report.warm_started,
    }


@dataclass
class _Outcome:
    """What one successful execution attempt produced."""

    steps: int
    t: float
    energy_initial: float
    energy_final: float
    state: object
    backend: str
    warm: bool = False
    hybrid_failed: bool = False
    joules: float | None = None
    #: in-band tuning campaign identity (objective/strategy/evaluations/
    #: warm_started), when the job ran the hybrid scheduler.
    tuning: dict | None = None


class SimulationFleet:
    """Fault-tolerant job fleet over `repro.api` (see module docstring).

    Parameters
    ----------
    config : `FleetConfig` (workers, queue, breaker, retry policies).
    journal_path : write-ahead journal location; None = no durability.
    results_dir : result-store directory; defaults to
        `<journal dir>/results` when journaling, else in-memory.
    tuning_cache : shared `TuningCache` JSON path injected into every
        hybrid job that doesn't name its own — the fleet's warm tuning
        state, preserved across retries and restarts.
    resume : replay the journal on construction, re-admitting pending
        jobs and serving completed ones from the result store.
    start : launch the worker threads (ignored when `workers=0`; call
        `process()` to drain inline).
    tracer : optional `repro.telemetry.Tracer` — fleet lifecycle events
        (admission, shed, degradation, breaker transitions, recovery)
        become instant events on it; they are always recorded in
        `self.events` regardless.
    """

    def __init__(
        self,
        config: FleetConfig | None = None,
        journal_path=None,
        results_dir=None,
        tuning_cache=None,
        resume: bool = True,
        start: bool = True,
        tracer=None,
    ):
        from pathlib import Path

        self.config = config or FleetConfig()
        self.journal = (
            JobJournal(journal_path) if journal_path is not None else None
        )
        if results_dir is None and journal_path is not None:
            results_dir = Path(journal_path).parent / "results"
        self.results = ResultStore(results_dir)
        self.tuning_cache = tuning_cache
        self.tracer = tracer if (tracer is None or tracer.enabled) else None
        self.queue = JobQueue(self.config.queue, workers=max(self.config.workers, 1))
        self.breakers = BreakerBoard(self.config.breaker)
        self.events: list[dict] = []
        self.handles: dict[str, JobHandle] = {}
        self.recovered: list[JobHandle] = []

        self._lock = threading.Lock()
        self._seq = itertools.count(1)
        self._inflight = 0
        self._idle = threading.Condition(self._lock)
        self._closed = False
        self._killed = False
        from repro.runtime.arena import Arena

        self._arena = Arena(name="fleet")
        self._warm = _WarmPool(self.config.warm_pool_size, arena=self._arena)
        self._stats = {
            "submitted": 0, "completed": 0, "failed": 0, "shed": 0,
            "cancelled": 0, "cached": 0, "degraded": 0, "retries": 0,
            "timeouts": 0, "warm_hits": 0, "recovered": 0,
            "tuning_campaigns": 0, "tuning_warm_starts": 0,
        }
        self._latencies: list[float] = []
        self._joules: list[float] = []
        self._tuning_last: dict | None = None
        self._first_activity: float | None = None
        self._last_activity: float | None = None
        self._threads: list[threading.Thread] = []

        if resume and self.journal is not None:
            self._recover()
        elif self.journal is not None:
            self.journal._take_opened()  # nothing will read the open's replay
        if start and self.config.workers > 0:
            self.start()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Launch the worker threads (idempotent)."""
        if self._threads or self.config.workers == 0:
            return
        for i in range(self.config.workers):
            t = threading.Thread(
                target=self._worker_loop, name=f"fleet-worker-{i}", daemon=True
            )
            t.start()
            self._threads.append(t)

    def __enter__(self) -> "SimulationFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def process(self, limit: int | None = None) -> int:
        """Drain the queue inline on the calling thread (workers=0 mode).

        Executes up to `limit` jobs (all queued jobs when None) in
        strict priority order and returns the count executed. This is
        the deterministic path: no thread interleaving, so tests and
        the `repro serve` CLI get reproducible schedules.
        """
        done = 0
        while limit is None or done < limit:
            entry = self.queue.get(timeout=0.0)
            if entry is None:
                break
            self._run_entry(entry)
            done += 1
        return done

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting and wait for queued + running jobs to finish."""
        self.queue.close()
        if self.config.workers == 0:
            self.process()
            return True
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while len(self.queue) > 0 or self._inflight > 0:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(remaining if remaining is not None else 0.5)
        return True

    def shutdown(self, wait: bool = True, timeout: float | None = None) -> None:
        """Graceful stop: drain (when `wait`), stop workers, release
        warm solvers. Safe to call twice."""
        if self._closed:
            return
        if wait:
            self.drain(timeout=timeout)
        self._closed = True
        self.queue.close()
        for t in self._threads:
            t.join(timeout=5.0)
        self._threads.clear()
        self._warm.close()
        self._event("fleet_shutdown", drained=wait)

    def kill(self) -> None:
        """Hard stop *without* drain — the test double for a crash.

        Queued jobs stay pending in the journal (their handles never
        finish); a new fleet constructed on the same `journal_path`
        recovers them. Workers finish their in-flight job (threads
        cannot be preempted) and exit.
        """
        self._killed = True
        self._closed = True
        self.queue.close()
        for t in self._threads:
            t.join(timeout=5.0)
        self._threads.clear()
        self._warm.close()

    # -- submission ---------------------------------------------------------

    def submit(
        self,
        problem: str,
        config: RunConfig | None = None,
        *,
        priority: int = 0,
        deadline_s: float | None = None,
        max_attempts: int = 3,
        job_id: str | None = None,
        **overrides,
    ) -> JobHandle:
        """Queue one run; returns its `JobHandle` (wait/poll surface).

        Raises `AdmissionError` (typed, with `retry_after_s`) when the
        fleet refuses the work, and `ValueError` for requests that can
        never run (unknown problem, invalid config).
        """
        from repro.api import PROBLEM_NAMES

        if problem not in PROBLEM_NAMES:
            raise ValueError(
                f"unknown problem '{problem}' (choose from {PROBLEM_NAMES})"
            )
        cfg = config or RunConfig()
        if overrides:
            cfg = cfg.replace(**overrides)
        if self.tuning_cache and cfg.resolved_backend == "hybrid" \
                and not cfg.tuning_cache:
            cfg = cfg.replace(tuning_cache=str(self.tuning_cache))
        spec = JobSpec(
            problem=problem,
            config=cfg,
            priority=priority,
            deadline_s=deadline_s,
            max_attempts=max_attempts,
            job_id=job_id or f"job-{next(self._seq):04d}-{uuid.uuid4().hex[:6]}",
        )
        handle = JobHandle(spec)
        with self._lock:
            if spec.job_id in self.handles:
                raise ValueError(f"duplicate job_id '{spec.job_id}'")
            self.handles[spec.job_id] = handle
            self._stats["submitted"] += 1

        # Write-ahead: record the admission before acting on it.
        self._journal("submit", job=spec.to_dict())
        # O(1) repeat: an identical computation already completed.
        if self._serve_stored(spec, handle, "job_cached"):
            return handle
        try:
            displaced = self.queue.submit(spec, handle)
        except AdmissionError as err:
            self._finish_shed(handle, reason=err.reason)
            raise
        if displaced is not None:
            self._finish_shed(
                displaced.handle,
                reason=f"displaced by higher-priority {spec.job_id}",
            )
        self._event("job_admitted", job_id=spec.job_id, priority=priority)
        return handle

    def cancel(self, handle: JobHandle) -> bool:
        """Cancel a still-queued job; False once it is running/terminal."""
        if not self.queue.cancel(handle.job_id):
            return False
        self._journal("cancel", job_id=handle.job_id)
        with self._lock:
            self._stats["cancelled"] += 1
        handle._finish(JobResult(job_id=handle.job_id, status="cancelled",
                                 problem=handle.spec.problem))
        self._event("job_cancelled", job_id=handle.job_id)
        return True

    # -- recovery -----------------------------------------------------------

    def _recover(self) -> None:
        state = recover(self.journal)
        for spec in state.pending:
            handle = JobHandle(spec)
            self.handles[spec.job_id] = handle
            self.recovered.append(handle)
            with self._lock:
                self._stats["recovered"] += 1
                self._stats["submitted"] += 1
            # The same computation completed before the crash under
            # another job id — serve it bit-identically, don't re-run.
            if self._serve_stored(spec, handle, "job_recovered_cached"):
                continue
            self.queue.submit(spec, handle, force=True, recovered=True)
            self._event("job_recovered", job_id=spec.job_id,
                        interrupted=spec.job_id in state.interrupted)
        if state.counts.get("submitted"):
            self._event("fleet_recovered", **state.counts)

    # -- execution ----------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            entry = self.queue.get(timeout=0.25)
            if entry is None:
                if self.queue.closed or self._closed:
                    return
                continue
            if self._killed:
                return
            self._run_entry(entry)

    def _run_entry(self, entry) -> None:
        spec, handle = entry.spec, entry.handle
        with self._lock:
            self._inflight += 1
            now = time.monotonic()
            self._first_activity = self._first_activity or now
        try:
            self._execute(spec, handle)
        finally:
            with self._idle:
                self._inflight -= 1
                self._last_activity = time.monotonic()
                self._idle.notify_all()

    def _serve_stored(self, spec: JobSpec, handle: JobHandle, event: str) -> bool:
        """Finish `handle` with the stored result of the same computation.

        Returns False on a miss (or with `reuse_results` off). A hit is
        journaled as a cached `complete` record, counted as cached and
        completed, and announced as `event`.
        """
        if not self.config.reuse_results:
            return False
        key = spec.content_key()
        hit = self.results.get(key)
        if hit is None:
            return False
        result = replace(hit[0], job_id=spec.job_id, cached=True,
                         status="succeeded", wall_s=0.0)
        self._journal("complete", job_id=spec.job_id, content_key=key,
                      state_sha256=result.state_sha256, cached=True)
        with self._lock:
            self._stats["cached"] += 1
            self._stats["completed"] += 1
        handle._finish(result)
        self._event(event, job_id=spec.job_id)
        return True

    def _execute(self, spec: JobSpec, handle: JobHandle) -> None:
        # A queued duplicate whose twin completed while it waited is
        # served from the store — same computation, same bits.
        if self._serve_stored(spec, handle, "job_cached"):
            return
        retry = self.config.retry
        requested = spec.config.resolved_backend
        effective, degraded, breaker = self.breakers.route(requested)
        cfg = spec.config
        if degraded:
            cfg = cfg.replace(backend=effective, offload_device=None)
            with self._lock:
                self._stats["degraded"] += 1
            self._event("job_degraded", job_id=spec.job_id,
                        source=requested, target=effective, reason="circuit-open")
        started = time.monotonic()
        retries = timeouts = 0
        last_error = ""
        for attempt in range(spec.max_attempts):
            self._journal("start", job_id=spec.job_id, attempt=attempt)
            handle._mark_running(attempt)
            budget = retry.attempt_deadline_s(spec, attempt)
            t0 = time.perf_counter()
            try:
                outcome = self._run_attempt(spec, cfg)
                wall = time.perf_counter() - t0
                if budget is not None and wall > budget:
                    raise DeadlineExceeded(
                        f"attempt {attempt} took {wall:.3f}s against a "
                        f"{budget:.3f}s deadline"
                    )
            except DeadlineExceeded as exc:
                timeouts += 1
                with self._lock:
                    self._stats["timeouts"] += 1
                last_error = str(exc)
                self._event("job_timeout", job_id=spec.job_id, attempt=attempt)
            except Exception as exc:  # noqa: BLE001 — every failure retries
                last_error = f"{type(exc).__name__}: {exc}"
                self._event("job_attempt_failed", job_id=spec.job_id,
                            attempt=attempt, error=last_error)
            else:
                self._finish_success(
                    spec, handle, outcome, breaker, degraded,
                    attempts=attempt + 1, retries=retries, timeouts=timeouts,
                    wall_s=time.monotonic() - started,
                )
                return
            if attempt + 1 < spec.max_attempts:
                retries += 1
                with self._lock:
                    self._stats["retries"] += 1
                delay = retry.delay_s(spec.job_id, attempt)
                self._event("job_retry", job_id=spec.job_id,
                            attempt=attempt + 1, delay_s=round(delay, 6))
                time.sleep(delay)
        # Out of attempts.
        if breaker is not None and not degraded:
            breaker.record_failure(f"job {spec.job_id} exhausted its attempts")
            self._breaker_events(breaker)
        self._journal("fail", job_id=spec.job_id, error=last_error,
                      attempts=spec.max_attempts)
        with self._lock:
            self._stats["failed"] += 1
        handle._finish(JobResult(
            job_id=spec.job_id, status="failed", problem=spec.problem,
            attempts=spec.max_attempts, retries=retries, timeouts=timeouts,
            backend=cfg.resolved_backend, degraded=degraded,
            wall_s=time.monotonic() - started, error=last_error,
        ))
        self._event("job_failed", job_id=spec.job_id, error=last_error)

    def _run_attempt(self, spec: JobSpec, cfg: RunConfig) -> _Outcome:
        """One execution attempt: warm pooled solver when eligible,
        the full `repro.api.run` composition otherwise."""
        # Distributed jobs are warm-poolable too: `solver.reset()`
        # rewinds the backend (initial partition, fresh comm accounting),
        # so a pooled vectorized-rank solver skips partition/communicator
        # construction on every repeat job.
        warm_ok = (
            self.config.warm_pool_size > 0
            and not cfg.resilient
            and not cfg.telemetry_enabled
            and not (cfg.restore or cfg.vtk or cfg.checkpoint)
        )
        if warm_ok:
            return self._run_warm(spec, cfg)
        return self._run_cold(spec, cfg)

    def _run_warm(self, spec: JobSpec, cfg: RunConfig) -> _Outcome:
        from repro.api import make_problem
        from repro.hydro.solver import LagrangianHydroSolver

        key = _warm_key(spec.problem, cfg)
        solver = self._warm.acquire(key)
        warm = solver is not None
        if warm:
            solver.reset()
            with self._lock:
                self._stats["warm_hits"] += 1
        else:
            solver = LagrangianHydroSolver(
                make_problem(spec.problem, cfg), cfg, arena=self._arena
            )
        try:
            result = solver.run(t_final=cfg.t_final)
        except Exception:
            # A solver that threw mid-march is not safely reusable, but
            # its workspace blocks are — hand them back to the arena.
            self._warm._retire(solver)
            raise
        outcome = _Outcome(
            steps=result.steps,
            t=float(result.state.t),
            energy_initial=float(result.energy_history[0].total),
            energy_final=float(result.energy_history[-1].total),
            state=result.state,
            backend=cfg.resolved_backend,
            warm=warm,
            tuning=_tuning_info(getattr(solver, "scheduler", None)),
        )
        self._warm.release(key, solver)
        return outcome

    def _run_cold(self, spec: JobSpec, cfg: RunConfig) -> _Outcome:
        from repro.api import run as api_run

        report = api_run(spec.problem, cfg)
        recovery = report.recovery
        joules = None
        if report.manifest.energy is not None:
            joules = report.manifest.energy.get(
                "total_j", report.manifest.energy.get("attributed_j")
            )
        return _Outcome(
            steps=report.steps,
            t=float(report.state.t),
            energy_initial=float(report.result.energy_history[0].total),
            energy_final=float(report.result.energy_history[-1].total),
            state=report.state,
            backend=cfg.resolved_backend,
            hybrid_failed=bool(recovery is not None and recovery.degraded_final),
            joules=joules,
            tuning=_tuning_info(report.scheduler),
        )

    def _finish_success(self, spec, handle, outcome: _Outcome, breaker,
                        degraded: bool, attempts: int, retries: int,
                        timeouts: int, wall_s: float) -> None:
        if breaker is not None and not degraded:
            # The job ran on the real (possibly probing) backend: its
            # outcome is the breaker's signal.
            if outcome.hybrid_failed:
                breaker.record_failure("sticky GPU fault degraded the run")
            else:
                breaker.record_success()
            self._breaker_events(breaker)
        key = spec.content_key()
        result = JobResult(
            job_id=spec.job_id, status="succeeded", problem=spec.problem,
            content_key=key, steps=outcome.steps, t_final=outcome.t,
            energy_initial=outcome.energy_initial,
            energy_final=outcome.energy_final,
            state_sha256=state_digest(outcome.state),
            wall_s=wall_s, attempts=attempts, retries=retries,
            timeouts=timeouts, backend=outcome.backend,
            degraded=degraded or outcome.hybrid_failed,
            warm=outcome.warm, joules=outcome.joules,
        )
        self.results.put(key, result, outcome.state)
        self._journal("complete", job_id=spec.job_id, content_key=key,
                      state_sha256=result.state_sha256, steps=result.steps)
        with self._lock:
            self._stats["completed"] += 1
            self._latencies.append(wall_s)
            if outcome.joules is not None:
                self._joules.append(outcome.joules)
            if outcome.tuning is not None:
                if outcome.tuning.get("warm_started"):
                    self._stats["tuning_warm_starts"] += 1
                else:
                    self._stats["tuning_campaigns"] += 1
                self._tuning_last = dict(outcome.tuning)
        self.queue.observe_service(wall_s)
        handle._finish(result)
        self._event("job_completed", job_id=spec.job_id, steps=result.steps,
                    degraded=result.degraded, warm=result.warm)

    def _finish_shed(self, handle: JobHandle, reason: str) -> None:
        self._journal("shed", job_id=handle.job_id, reason=reason)
        with self._lock:
            self._stats["shed"] += 1
        handle._finish(JobResult(
            job_id=handle.job_id, status="shed",
            problem=handle.spec.problem, error=reason,
        ))
        self._event("job_shed", job_id=handle.job_id, reason=reason)

    # -- bookkeeping --------------------------------------------------------

    def _journal(self, rtype: str, **payload) -> None:
        if self.journal is not None:
            self.journal.append(rtype, **payload)

    def _event(self, name: str, **meta) -> None:
        self.events.append({"event": name, **meta})
        if self.tracer is not None:
            self.tracer.instant(name, category="service", **meta)

    def _breaker_events(self, breaker) -> None:
        """Mirror new breaker transitions into the fleet event stream."""
        seen = sum(
            1 for e in self.events
            if e["event"] == "breaker_transition" and e["backend"] == breaker.name
        )
        for t in breaker.transitions[seen:]:
            self._event("breaker_transition", backend=breaker.name,
                        source=t.source, target=t.target, detail=t.detail)

    # -- telemetry rollup ---------------------------------------------------

    def rollup(self) -> dict:
        """Fleet-wide telemetry: jobs/s, latency percentiles, joules per
        metered job, shed/retried/degraded counts, breaker states."""

        def pct(sorted_vals, q):
            if not sorted_vals:
                return 0.0
            idx = min(int(q * len(sorted_vals)), len(sorted_vals) - 1)
            return sorted_vals[idx]

        with self._lock:
            stats = dict(self._stats)
            lat = sorted(self._latencies)
            joules = list(self._joules)
            tuning_last = dict(self._tuning_last) if self._tuning_last else None
            span = (
                (self._last_activity - self._first_activity)
                if self._first_activity is not None
                and self._last_activity is not None
                else 0.0
            )
        executed = len(lat)
        return {
            "jobs": stats,
            "throughput_jobs_per_s": executed / span if span > 0 else 0.0,
            "latency_s": {
                "p50": pct(lat, 0.50),
                "p90": pct(lat, 0.90),
                "p99": pct(lat, 0.99),
                "mean": sum(lat) / executed if executed else 0.0,
                "max": lat[-1] if lat else 0.0,
            },
            "energy": {
                "metered_jobs": len(joules),
                "joules_total": sum(joules),
                "joules_per_job": sum(joules) / len(joules) if joules else 0.0,
            },
            "tuning": {
                "campaigns": stats.get("tuning_campaigns", 0),
                "warm_starts": stats.get("tuning_warm_starts", 0),
                "last": tuning_last,
            },
            "breakers": self.breakers.describe(),
            "queue": {
                "depth": len(self.queue),
                "max_depth": self.config.queue.max_depth,
                "ewma_service_s": self.queue.ewma_service_s,
            },
            "arena": self._arena.stats(),
            "results_cached": len(self.results),
        }
