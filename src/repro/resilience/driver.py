"""Checkpointed auto-recovery driver for the Lagrangian solver.

`ResilientDriver` wraps a `LagrangianHydroSolver` (serial or, with
`ranks` > 0 in its `RunConfig`, distributed) and runs the time loop the
way a production job would: snapshot the state every `checkpoint_every`
accepted steps (in memory, optionally also to disk through the hardened
`repro.io.checkpoint`), watch the physics invariants after every step,
and on a fault apply the `RecoveryPolicy` — retry, GPU->CPU fallback
(via the optional `GpuOffloadPricer`), rank exclusion, or
rollback-and-replay from the last checkpoint.

The run ends with a `RecoveryReport` that prices what resilience cost:
faults seen, retries, fallbacks, steps replayed, modeled checkpoint
time, and the time/energy overhead relative to a fault-free hybrid run
— turning the paper's "the frequency of checking points can be reduced"
claim into a measurable trade-off (see
`benchmarks/bench_resilience_overhead.py`).

The driver reads the run's settings (step budget) from `solver.config`
and starts the march with the solver's own restart-aware
`initialize_dt`. `repro.api.run` builds it from the `RunConfig`
resilience fields; direct construction is equally supported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.hydro.solver import RunResult
from repro.hydro.state import HydroState
from repro.resilience.faults import FaultInjector, RankFailure
from repro.resilience.policy import GpuOffloadPricer, RecoveryPolicy
from repro.resilience.watchdog import InvariantViolation, Watchdog
from repro.runtime.instrumentation import PhaseTimers

__all__ = [
    "CheckpointCostModel",
    "FaultEvent",
    "RecoveryReport",
    "ResilientRunResult",
    "ResilientDriver",
]


@dataclass(frozen=True)
class CheckpointCostModel:
    """Modeled cost of writing one checkpoint to stable storage.

    The defaults describe a node's share of a parallel filesystem:
    per-checkpoint metadata/sync latency plus a streaming write rate.
    """

    bandwidth_gbs: float = 1.0
    latency_s: float = 5e-3

    def write_time_s(self, nbytes: float) -> float:
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return self.latency_s + nbytes / (self.bandwidth_gbs * 1e9)


@dataclass(frozen=True)
class FaultEvent:
    """One fault the driver saw, and what it did about it."""

    step: int
    kind: str
    action: str
    detail: str = ""


@dataclass
class RecoveryReport:
    """Structured account of a resilient run.

    `nominal_*` price the same steps fault-free on the hybrid path, so
    `time_overhead` / `energy_overhead` isolate what faults + resilience
    machinery cost on the simulated hardware.
    """

    faults: list[FaultEvent] = field(default_factory=list)
    retries: int = 0
    fallbacks: int = 0
    rollbacks: int = 0
    rank_exclusions: int = 0
    steps_completed: int = 0
    steps_replayed: int = 0
    checkpoints_written: int = 0
    checkpoint_time_s: float = 0.0
    offload_time_s: float = 0.0
    offload_energy_j: float = 0.0
    nominal_time_s: float = 0.0
    nominal_energy_j: float = 0.0
    degraded_final: bool = False
    phase_timings: dict = field(default_factory=dict)

    @property
    def time_overhead(self) -> float:
        """(modeled resilient time / fault-free hybrid time) - 1."""
        if self.nominal_time_s <= 0:
            return 0.0
        return (self.offload_time_s + self.checkpoint_time_s) / self.nominal_time_s - 1.0

    @property
    def energy_overhead(self) -> float:
        if self.nominal_energy_j <= 0:
            return 0.0
        return self.offload_energy_j / self.nominal_energy_j - 1.0

    def summary(self) -> str:
        lines = [
            f"steps {self.steps_completed} (+{self.steps_replayed} replayed), "
            f"checkpoints {self.checkpoints_written}",
            f"faults {len(self.faults)}: retries {self.retries}, "
            f"fallbacks {self.fallbacks}, rollbacks {self.rollbacks}, "
            f"rank exclusions {self.rank_exclusions}",
        ]
        if self.degraded_final:
            lines.append("finished degraded: GPU lost, corner force on the CPU path")
        if self.nominal_time_s > 0:
            lines.append(
                f"modeled overhead: time {self.time_overhead:+.1%}, "
                f"energy {self.energy_overhead:+.1%} vs fault-free hybrid"
            )
        for ev in self.faults:
            lines.append(f"  step {ev.step:5d}  {ev.kind:8s} -> {ev.action}"
                         + (f"  ({ev.detail})" if ev.detail else ""))
        return "\n".join(lines)


@dataclass
class ResilientRunResult:
    """A normal `RunResult` plus the resilience account."""

    result: RunResult
    report: RecoveryReport

    @property
    def state(self) -> HydroState:
        return self.result.state

    @property
    def steps(self) -> int:
        return self.result.steps

    @property
    def reached_t_final(self) -> bool:
        return self.result.reached_t_final


@dataclass
class _Snapshot:
    """In-memory rollback point."""

    state: HydroState
    controller_dt: float
    last_dt_est: float
    steps: int
    n_energy: int
    n_dt: int


class ResilientDriver:
    """Fault-tolerant execution of a hydro solver.

    Parameters
    ----------
    solver : the `LagrangianHydroSolver` to march.
    injector : optional `FaultInjector`; also attached to the
        distributed backend's communicator so collectives can fail.
    policy, watchdog : recovery policy and invariant monitor (defaults).
    checkpoint_every : accepted steps between rollback snapshots.
    checkpoint_dir : also write (and verify) disk checkpoints through
        `repro.io.checkpoint` at the same cadence.
    offload : optional `GpuOffloadPricer` — prices each step's
        corner-force offload on the simulated GPU and realizes the
        GPU->CPU fallback path of the policy.
    checkpoint_cost : `CheckpointCostModel` for the modeled (simulated
        I/O) cost of each checkpoint in the report.
    tracer : optional enabled `repro.telemetry.Tracer` — the driver
        then owns the root "run" span and emits instant events for
        faults, rollbacks and checkpoints.
    """

    def __init__(
        self,
        solver,
        injector: FaultInjector | None = None,
        policy: RecoveryPolicy | None = None,
        watchdog: Watchdog | None = None,
        checkpoint_every: int = 10,
        checkpoint_dir: str | Path | None = None,
        checkpoint_keep: int = 0,
        offload: GpuOffloadPricer | None = None,
        checkpoint_cost: CheckpointCostModel | None = None,
        timers: PhaseTimers | None = None,
        tracer=None,
    ):
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.solver = solver
        self.injector = injector
        self.policy = policy or RecoveryPolicy()
        self.watchdog = watchdog or Watchdog()
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        if checkpoint_keep < 0:
            raise ValueError("checkpoint_keep must be non-negative")
        self.checkpoint_keep = checkpoint_keep
        self.offload = offload
        self.checkpoint_cost = checkpoint_cost or CheckpointCostModel()
        self.tracer = tracer if (tracer is not None and tracer.enabled) else None
        self.timers = timers or PhaseTimers(tracer=self.tracer)
        self.last_disk_checkpoint: Path | None = None
        # Rank-failure handling and collective fault injection route
        # through the distributed backend when the solver carries one.
        backend = solver.backend
        self._dist = backend if backend.name == "distributed" else None
        if (
            self._dist is not None
            and injector is not None
            and self._dist.comm is not None
            and self._dist.comm.fault_injector is None
        ):
            self._dist.comm.fault_injector = injector

    # -- Checkpointing -----------------------------------------------------------

    def _snapshot(self, steps: int, n_energy: int, n_dt: int) -> _Snapshot:
        s = self.solver
        return _Snapshot(
            state=s.state.copy(),
            controller_dt=s.controller.dt,
            last_dt_est=s._last_dt_est,
            steps=steps,
            n_energy=n_energy,
            n_dt=n_dt,
        )

    def _restore(self, snap: _Snapshot) -> None:
        s = self.solver
        s.state = snap.state.copy()
        s.controller.dt = snap.controller_dt
        s._last_dt_est = snap.last_dt_est

    def _state_nbytes(self, state: HydroState) -> int:
        return state.v.nbytes + state.e.nbytes + state.x.nbytes + 64

    def _write_disk_checkpoint(self, steps: int) -> None:
        from repro.io.checkpoint import load_checkpoint, save_checkpoint

        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        path = save_checkpoint(
            self.checkpoint_dir / f"ckpt_step{steps:06d}.npz", self.solver,
            state=self.solver.state,
        )
        load_checkpoint(path)  # verify the write (checksum + integrity)
        self.last_disk_checkpoint = path
        self._prune_disk_checkpoints()

    def _prune_disk_checkpoints(self) -> None:
        """Retention: keep the newest `checkpoint_keep` disk checkpoints.

        Runs only after the newest write has been *verified*, and the
        most recent verified checkpoint (`last_disk_checkpoint`) is
        excluded from deletion unconditionally — retention must never
        leave the run without a restorable snapshot.
        """
        if self.checkpoint_keep < 1 or self.checkpoint_dir is None:
            return
        ckpts = sorted(self.checkpoint_dir.glob("ckpt_step*.npz"))
        keep = set(ckpts[-self.checkpoint_keep:])
        if self.last_disk_checkpoint is not None:
            keep.add(self.last_disk_checkpoint)
        for path in ckpts:
            if path not in keep:
                path.unlink(missing_ok=True)

    # -- Fault handling ----------------------------------------------------------

    def _instant(self, name: str, **meta) -> None:
        """Mark a resilience event on the trace (no-op untraced)."""
        if self.tracer is not None:
            self.tracer.instant(name, category="resilience", **meta)

    def _handle_rank_failure(self, fault: RankFailure, report: RecoveryReport,
                             step: int) -> None:
        if self._dist is None:
            raise fault
        action = self.policy.for_rank_failure(fault, self._dist.nranks)
        self._dist.exclude_rank(action.rank)
        report.rank_exclusions += 1
        self._instant("fault", kind="rank", step=step, rank=action.rank)
        report.faults.append(
            FaultEvent(step, "rank", f"excluded rank {action.rank}",
                       f"{self._dist.nranks} ranks remain")
        )

    # -- The run loop ------------------------------------------------------------

    def run(self, t_final: float | None = None, max_steps: int | None = None) -> ResilientRunResult:
        """Run to t_final under the recovery policy.

        With a tracer attached (and no span already open) the whole
        resilient run becomes the root "run" span; driver phases, the
        solver's step/stage/kernel spans and resilience instants all
        nest inside it.
        """
        tr = self.tracer
        if tr is not None and tr.current is None:
            with tr.span("run", category="run", meta={"resilient": True}):
                return self._run_impl(t_final, max_steps)
        return self._run_impl(t_final, max_steps)

    def _run_impl(self, t_final: float | None, max_steps: int | None) -> ResilientRunResult:
        s = self.solver
        report = RecoveryReport()
        t_final = t_final if t_final is not None else s.problem.default_t_final
        max_steps = max_steps if max_steps is not None else s.config.resolved_max_steps

        with self.timers.measure("initialize"):
            while True:
                try:
                    dt0 = s.initialize_dt()
                    break
                except RankFailure as fault:
                    self._handle_rank_failure(fault, report, step=0)
            energy_history = [s.energies()]
        self.watchdog.arm(energy_history[0].total, dt0)
        dt_history: list[float] = []
        steps = 0
        high_water = 0
        snapshot = self._snapshot(steps, len(energy_history), 0)

        while s.state.t < t_final - 1e-15 and steps < max_steps:
            dt = s.controller.propose(s._last_dt_est, s.state.t, t_final)
            if dt <= 0:
                break
            with self.timers.measure("step"):
                accepted = False
                while not accepted:
                    try:
                        accepted = s.step(dt)
                    except RankFailure as fault:
                        self._handle_rank_failure(fault, report, step=steps + 1)
                        continue
                    if not accepted:
                        dt = s.controller.reject()
            steps += 1
            # A hybrid-backend solver tunes in-band under this loop too
            # (the driver owns the march, so it owns the step hook).
            if s.scheduler is not None:
                s.scheduler.on_step()

            if self.injector is not None:
                desc = self.injector.corrupt_state(s.state, steps)
                if desc is not None:
                    self._instant("fault", kind="state", step=steps, detail=desc)
                    report.faults.append(FaultEvent(steps, "state", "corrupted", desc))

            energy = s.energies()
            try:
                with self.timers.measure("watchdog"):
                    self.watchdog.inspect(s.state, energy.total, dt, step=steps)
            except InvariantViolation as viol:
                self.policy.for_violation(report.rollbacks)  # raises when exhausted
                with self.timers.measure("rollback"):
                    replayed = steps - snapshot.steps
                    self._restore(snapshot)
                    steps = snapshot.steps
                    del energy_history[snapshot.n_energy:]
                    del dt_history[snapshot.n_dt:]
                report.rollbacks += 1
                report.steps_replayed += replayed
                self._instant("rollback", step=steps, replayed=replayed,
                              reason=viol.reason)
                report.faults.append(
                    FaultEvent(steps, "watchdog", f"rollback (-{replayed} steps)", viol.reason)
                )
                continue

            energy_history.append(energy)
            dt_history.append(dt)

            if self.offload is not None:
                was_degraded = self.offload.degraded
                with self.timers.measure("offload"):
                    pricing = self.offload.price_step()
                report.retries += pricing.retries
                report.offload_time_s += pricing.time_s
                report.offload_energy_j += pricing.energy_j
                # A degraded device prices every later step on the CPU
                # path; only the step where the fault actually fired is
                # a fallback *event*.
                if pricing.fellback and not was_degraded:
                    report.fallbacks += 1
                    self._instant("fault", kind="gpu", step=steps,
                                  action="cpu-fallback", retries=pricing.retries)
                    report.faults.append(
                        FaultEvent(steps, "gpu", "cpu-fallback",
                                   f"after {pricing.retries} retries")
                    )
                    # Realize the fallback on the live solver: a hybrid
                    # backend swaps to the pure-CPU fused path (same
                    # arithmetic, no device pricing) and its scheduler
                    # stops — the split it was converging no longer
                    # describes the hardware carrying the run.
                    if s.backend.name == "hybrid":
                        s.swap_backend("cpu-fused")
                        self._instant("backend_swap", step=steps,
                                      source="hybrid", target="cpu-fused")
                        report.faults.append(
                            FaultEvent(steps, "gpu", "backend swap",
                                       "hybrid -> cpu-fused, scheduler stopped")
                        )
                    elif (
                        self._dist is not None
                        and self._dist.ranks
                        and self._dist.ranks[0].node_name == "hybrid"
                    ):
                        # Distributed hybrid fleet: the priced offload
                        # models one device, so the sticky fault lands
                        # on rank 0 — only that rank degrades to the CPU
                        # path; the fleet scheduler stops.
                        self._dist.swap_node("cpu-fused", rank=0)
                        self._instant("backend_swap", step=steps,
                                      source="hybrid", target="cpu-fused",
                                      rank=0)
                        report.faults.append(
                            FaultEvent(steps, "gpu", "backend swap",
                                       "rank 0 hybrid -> cpu-fused, "
                                       "scheduler stopped")
                        )
                elif pricing.retries:
                    report.faults.append(
                        FaultEvent(steps, "gpu", "recovered by retry",
                                   f"{pricing.retries} retries")
                    )
                if steps > high_water:
                    report.nominal_time_s += self.offload.hybrid_step_s
                    report.nominal_energy_j += (
                        self.offload.hybrid_power_w * self.offload.hybrid_step_s
                    )
            high_water = max(high_water, steps)

            if steps % self.checkpoint_every == 0:
                with self.timers.measure("checkpoint"):
                    snapshot = self._snapshot(steps, len(energy_history), len(dt_history))
                    self._instant("checkpoint", step=steps,
                                  to_disk=self.checkpoint_dir is not None)
                    report.checkpoints_written += 1
                    report.checkpoint_time_s += self.checkpoint_cost.write_time_s(
                        self._state_nbytes(s.state)
                    )
                    if self.checkpoint_dir is not None:
                        self._write_disk_checkpoint(steps)

        if s.scheduler is not None:
            # Close any open tuning_period span before the run span does.
            s.scheduler.finalize()
        if energy_history[-1].t != s.state.t:
            energy_history.append(s.energies())
        report.steps_completed = steps
        report.degraded_final = bool(self.offload and self.offload.degraded)
        report.phase_timings = self.timers.to_dict()
        result = RunResult(
            state=s.state,
            steps=steps,
            energy_history=energy_history,
            dt_history=dt_history,
            workload=s.workload,
            reached_t_final=s.state.t >= t_final - 1e-12,
        )
        return ResilientRunResult(result=result, report=report)
