"""The four benchmark workloads and how one batch of each is measured.

Three solver workloads march a fixed problem for a fixed step budget:

* `sedov-q2`: 2D Sedov, Q2-Q1, 12x12 zones, `cpu-fused`, one process --
  the plain single-threaded baseline of the paper's main loop, where
  corner force and CG (with its SpMV) split the step roughly evenly.
* `sedov-q2-par2`: the same problem on `cpu-parallel` with 2 workers --
  the only workload through `runtime.workers` and `runtime.parallel`.
* `triple-pt-r8`: two-material triple point, Q2, 12x6 zones on 8
  simulated ranks (vectorized rank step) -- the only workload through
  `backends.distributed` and `runtime.mpi_sim`.

`fleet-churn` is a closed loop: one client keeps one job outstanding
against a `SimulationFleet` with one worker thread, journal and result
store on disk. Its job mix comes from the seed; the program only sees
the resulting `RunConfig`s.

Every batch reports per-operation times (an accepted step with its
rejected attempts, or a job from submit to result) and the time of the
segment each operation closes, on the wall clock, the host's steal over
each segment, and the index of the host-probe sample taken right after
each, from which `hostspeed` corrects them.
"""

from __future__ import annotations

import itertools
import os
import random
import shutil
from dataclasses import dataclass, field
from time import perf_counter

from hostspeed import HostProbe, steal_s
from tracing import SolverCounters, SpanLog, instrument_solver, patch

__all__ = ["WORKLOADS", "Batch", "FleetMix", "FleetWorkload", "SolverWorkload", "make"]

#: Accepted steps per solve: enough that one run holds 100+ step samples.
STEPS_PER_SOLVE = 100
#: An end time no solver workload reaches within its step budget.
SOLVER_T_FINAL = 10.0

SOLVERS = {
    "sedov-q2": ("sedov", dict(zones=12, order=2, backend="cpu-fused"), "sedov-q2"),
    "sedov-q2-par2": ("sedov", dict(zones=12, order=2, backend="cpu-parallel", workers=2),
                      "sedov-q2"),
    "triple-pt-r8": ("triple-pt", dict(zones=6, order=2, backend="cpu-fused", ranks=8),
                     "triple-pt-r8"),
}
WORKLOADS = tuple(SOLVERS) + ("fleet-churn",)


@dataclass
class Batch:
    """One fixed-size unit of work: a solve, or a batch of jobs."""

    op_s: list = field(default_factory=list)       # wall seconds per operation
    seg_s: list = field(default_factory=list)      # wall seconds per segment
    seg_steal: list = field(default_factory=list)  # host steal seconds per segment
    positions: list = field(default_factory=list)  # probe index after each op
    traced: bool = False
    steps: int = 0
    detail: dict = field(default_factory=dict)


class OpTimer:
    """Times operations, and the segments they close, on the wall clock.

    Between operations, while the program is idle, it reads the host's
    steal counter and runs the host probe; `wrap` (the span log's, in a
    traced batch) puts that harness work in a span of its own. A
    segment's steal is counted from one such reading to the next.
    """

    def __init__(self, probe: HostProbe, batch: Batch, wrap=None):
        self.probe = probe
        self.batch = batch
        self.idle = wrap("probe", self._idle) if wrap else self._idle
        self.steal0 = steal_s()
        self.mark()

    def _idle(self) -> float:
        steal = steal_s()
        self.probe.sample()
        return steal

    def mark(self) -> None:
        """Start a segment (after the probe has run)."""
        self.seg0 = perf_counter()

    def close_op(self, wall: float, end: float) -> None:
        """Record one operation ending at `end`, probe, start a segment."""
        b = self.batch
        b.op_s.append(wall)
        b.seg_s.append(end - self.seg0)
        b.positions.append(len(self.probe.wall))
        steal = self.idle()
        b.seg_steal.append(steal - self.steal0)
        self.steal0 = steal
        self.mark()

    def finish(self) -> None:
        """Fold the tail after the last operation into the last segment."""
        b = self.batch
        if b.seg_s:
            b.seg_s[-1] += perf_counter() - self.seg0
            b.seg_steal[-1] += steal_s() - self.steal0


class StepClock:
    """Operation boundary for solver workloads: wraps `solver.step`.

    Sums the attempts of one accepted step (rejections included), and
    runs the host probe while the solver is idle between steps.
    """

    def __init__(self, step, timer: OpTimer):
        self.step = step
        self.timer = timer
        self.wall = 0.0

    def __call__(self, dt):
        t0 = perf_counter()
        ok = self.step(dt)
        end = perf_counter()
        self.wall += end - t0
        if ok:
            self.timer.close_op(self.wall, end)
            self.wall = 0.0
        return ok


class SolverWorkload:
    """A fixed problem marched for `STEPS_PER_SOLVE` accepted steps."""

    kind = "solver"

    def __init__(self, name: str):
        from repro.api import RunConfig

        self.problem_name, fields, self.reference = SOLVERS[name]
        self.config = RunConfig(t_final=SOLVER_T_FINAL, max_steps=STEPS_PER_SOLVE, **fields)
        self.solver = None
        self.counters = SolverCounters()

    def construct(self):
        """Build a solver as a user would: spaces, mass assembly, backend,
        partition, and the worker-pool fork for `cpu-parallel`."""
        from repro.api import make_problem
        from repro.hydro.solver import LagrangianHydroSolver

        solver = LagrangianHydroSolver(make_problem(self.problem_name, self.config), self.config)
        if solver.executor is not None:
            solver.executor.start()
        return solver

    @staticmethod
    def release(solver) -> None:
        solver.close()

    def start(self) -> None:
        self.solver = self.construct()
        self.solver.run(t_final=SOLVER_T_FINAL, max_steps=10)  # warm caches

    def run_batch(self, probe: HostProbe, log: SpanLog | None) -> Batch:
        solver = self.solver
        solver.reset()
        batch = Batch(traced=log is not None)
        undo_trace = instrument_solver(log, solver, self.counters) if log else None
        timer = OpTimer(probe, batch, log.wrap if log else None)
        undo_clock = patch(solver, "step", StepClock(solver.step, timer))
        run = log.wrap("run", solver.run) if log else solver.run
        pool0 = solver.executor.stats() if solver.executor is not None else None
        try:
            result = run(t_final=SOLVER_T_FINAL)
            timer.finish()
        finally:
            undo_clock()
            if undo_trace:
                undo_trace()
        batch.steps = result.steps
        detail = batch.detail
        detail["state"] = result.state
        detail["energy"] = (result.energy_history[0].total, result.energy_history[-1].total)
        comm = getattr(solver.backend, "comm", None)
        if comm is not None:
            tr = comm.traffic
            per_rank = tr.per_rank_dict()
            detail["traffic"] = {
                "messages": tr.messages, "bytes": tr.bytes, "reductions": tr.reductions,
                "rank_messages": sum(r["messages"] for r in per_rank.values()),
                "rank_bytes": sum(r["bytes"] for r in per_rank.values()),
            }
        if pool0 is not None:
            pool1 = solver.executor.stats()
            detail["pool"] = {
                "dispatches": pool1["dispatches"] - pool0["dispatches"],
                "dispatch_s": pool1["dispatch_s"] - pool0["dispatch_s"],
            }
        return batch

    def arena_stats(self) -> dict:
        return self.solver.arena.stats()

    def close(self) -> None:
        if self.solver is not None:
            self.solver.close()
            self.solver = None


# -- fleet-churn ---------------------------------------------------------------

#: (problem, zones, order, backend, base t_final, fresh jobs per batch).
#: A synthetic mix, not fitted to recorded traffic (the repository has
#: none): popularity is skewed and there are more shapes than the
#: fleet's four warm-pool slots; the four most popular fill the pool
#: during warm-up, so the other four are built cold on every fresh job.
#: Base end times keep each run to a handful of steps.
SHAPES = (
    ("sedov", 4, 2, "cpu-fused", 0.11, 9),
    ("sod", 5, 1, "cpu-fused", 0.036, 6),
    ("taylor-green", 4, 2, "cpu-sumfact", 0.047, 5),
    ("noh", 4, 2, "cpu-fused", 0.076, 3),
    ("sedov", 6, 1, "cpu-sumfact", 0.13, 3),
    ("sod", 3, 2, "cpu-sumfact", 0.025, 2),
    ("noh", 5, 1, "cpu-sumfact", 0.139, 1),
    ("taylor-green", 6, 1, "cpu-fused", 0.062, 1),
)
#: Exact repeats of earlier jobs per batch: a quarter of the batch, so
#: the median job is a fresh one.
REPEATS_PER_BATCH = 10
JOBS_PER_BATCH = sum(s[5] for s in SHAPES) + REPEATS_PER_BATCH
#: Warm-pool slots of the default `FleetConfig`.
WARM_SLOTS = 4


@dataclass(frozen=True)
class Job:
    job_id: str
    problem: str
    zones: int
    order: int
    backend: str
    t_final: float
    repeat_of: str | None = None

    def config(self):
        from repro.api import RunConfig

        return RunConfig(zones=self.zones, order=self.order, backend=self.backend,
                         t_final=self.t_final)


class FleetMix:
    """The seeded job stream: the same seed gives the same jobs.

    Every batch holds the same number of fresh jobs per shape and the
    same number of repeats; the seed sets their order, each fresh job's
    end time, and which earlier job each repeat copies.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.seed = seed
        self.fresh: list[Job] = []
        self.batches = 0

    def warmup(self) -> list[Job]:
        """One job per popular shape, the same for every seed."""
        jobs = [Job(f"warm-{i}", p, z, o, b, tf)
                for i, (p, z, o, b, tf, _) in enumerate(SHAPES[:WARM_SLOTS])]
        self.fresh.extend(jobs)
        return jobs

    def next_batch(self) -> list[Job]:
        rng = self.rng
        b = self.batches
        self.batches += 1
        slots = [s for s in SHAPES for _ in range(s[5])] + [None] * REPEATS_PER_BATCH
        rng.shuffle(slots)
        jobs = []
        for k, shape in enumerate(slots):
            job_id = f"s{self.seed}-b{b}-j{k}"
            if shape is None:
                src = rng.choice(self.fresh)
                jobs.append(Job(job_id, src.problem, src.zones, src.order, src.backend,
                                src.t_final, repeat_of=src.job_id))
            else:
                p, z, o, backend, base, _ = shape
                job = Job(job_id, p, z, o, backend, base * rng.uniform(0.6, 1.0))
                jobs.append(job)
                self.fresh.append(job)
        return jobs


class FleetCounters:
    def __init__(self):
        self.gets = 0
        self.hits = 0
        self.appends = 0


class FleetWorkload:
    """Closed loop: one client, one job outstanding, one worker thread."""

    kind = "fleet"

    def __init__(self, seed: int, tmp_root: str):
        self.tmp_root = tmp_root
        self.mix = FleetMix(seed)
        self.fleet = None
        self.results: dict[str, object] = {}
        self.jobs: dict[str, Job] = {}
        self.counters = SolverCounters()
        self.fleet_counters = FleetCounters()
        self._fleet_ids = itertools.count()

    def _new_fleet(self, **config):
        from repro.service.fleet import FleetConfig, SimulationFleet

        # A fresh directory name; the fleet creates it on its first write.
        path = os.path.join(self.tmp_root, f"fleet-{next(self._fleet_ids)}")
        fleet = SimulationFleet(FleetConfig(workers=1, **config),
                                journal_path=os.path.join(path, "journal.jsonl"))
        return fleet, path

    def construct(self):
        """Set-up as a user pays it: journal, result store, worker thread."""
        return self._new_fleet()

    @staticmethod
    def release(obj) -> None:
        fleet, path = obj
        fleet.shutdown()
        shutil.rmtree(path, ignore_errors=True)

    def start(self) -> None:
        self.fleet, self.path = self._new_fleet()
        for job in self.mix.warmup():
            self._submit(job)

    def _submit(self, job: Job):
        self.jobs[job.job_id] = job
        handle = self.fleet.submit(job.problem, job.config(), job_id=job.job_id)
        result = handle.wait(timeout=120.0)
        self.results[job.job_id] = result
        return result

    def run_batch(self, probe: HostProbe, log: SpanLog | None) -> Batch:
        batch = Batch(traced=log is not None)
        undo = self._instrument(log) if log else None
        submit = log.wrap("job", self._submit) if log else self._submit
        timer = OpTimer(probe, batch)
        try:
            for job in self.mix.next_batch():
                if log:
                    log.set_op(job.job_id)
                t0 = perf_counter()
                result = submit(job)
                end = perf_counter()
                timer.close_op(end - t0, end)
                batch.steps += result.steps if not result.cached else 0
                batch.detail.setdefault("jobs", []).append(job.job_id)
            timer.finish()
        finally:
            if undo:
                undo()
        return batch

    def rerun_repeated(self) -> dict:
        """Run every job that a repeat copied once more, on a fleet that
        never answers from its result store; returns the results by the
        id of the job re-run.

        A repeat in the timed stream is answered from the store, so its
        `state_sha256` is the first run's, copied; only a real re-run
        tests that the same config gives the same bits again.
        """
        sources = dict.fromkeys(j.repeat_of for j in self.jobs.values() if j.repeat_of)
        fleet, path = self._new_fleet(reuse_results=False)
        out = {}
        try:
            for job_id in sources:
                job = self.jobs[job_id]
                handle = fleet.submit(job.problem, job.config(), job_id=f"rerun-{job_id}")
                out[job_id] = handle.wait(timeout=120.0)
        finally:
            self.release((fleet, path))
        return out

    def _instrument(self, log: SpanLog):
        """Wrap the fleet's layers and, class-wide, the solvers it builds."""
        import repro.hydro.solver as solver_mod
        from repro.hydro.solver import LagrangianHydroSolver

        fleet, fc, counters = self.fleet, self.fleet_counters, self.counters

        def after_get(hit):
            fc.gets += 1
            fc.hits += hit is not None

        def after_append(_):
            fc.appends += 1

        run_inner = log.wrap("solve", LagrangianHydroSolver.run)

        def run(solver, *args, **kwargs):
            undo_solver = instrument_solver(log, solver, counters, step_ops=False)
            try:
                return run_inner(solver, *args, **kwargs)
            finally:
                undo_solver()

        undos = [
            patch(fleet, "submit", log.wrap("submit", fleet.submit)),
            patch(fleet.queue, "get", log.wrap(
                "queue.get", fleet.queue.get,
                op_of=lambda e: e.spec.job_id if e is not None else None)),
            patch(fleet.journal, "append", log.wrap("journal.append", fleet.journal.append,
                                                    after=after_append)),
            patch(fleet.results, "put", log.wrap("results.put", fleet.results.put)),
            patch(fleet.results, "get", log.wrap("results.get", fleet.results.get,
                                                 after=after_get)),
            patch(LagrangianHydroSolver, "__init__",
                  log.wrap("build", LagrangianHydroSolver.__init__)),
            patch(LagrangianHydroSolver, "run", run),
        ] + mass_assembly_patches(log, solver_mod)

        def undo():
            for u in reversed(undos):
                u()

        return undo

    def arena_stats(self) -> dict:
        return self.fleet.rollup()["arena"]

    def close(self) -> None:
        if self.fleet is not None:
            self.fleet.shutdown()
            self.fleet = None
            shutil.rmtree(self.path, ignore_errors=True)


def mass_assembly_patches(log: SpanLog, solver_mod) -> list:
    """Wrap the two mass assemblies where the solver module calls them."""
    return [
        patch(solver_mod, name, log.wrap("mass_assembly", getattr(solver_mod, name)))
        for name in ("assemble_kinematic_mass", "assemble_thermodynamic_mass")
    ]


def make(name: str, seed: int, tmp_root: str):
    if name == "fleet-churn":
        return FleetWorkload(seed, tmp_root)
    return SolverWorkload(name)

