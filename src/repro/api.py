"""`repro.api` — the one-call facade over the whole stack.

The solver, its execution backends (including the simulated-MPI
distributed layer), the resilience driver and the telemetry subsystem
all read one frozen `RunConfig`; this module composes them:

    from repro.api import RunConfig, run

    report = run("sedov", RunConfig(zones=8, t_final=0.2))
    print(report.manifest.summary())

`run` builds one `LagrangianHydroSolver(problem, config)` — its
execution backend (`backend="cpu-fused" | "cpu-sumfact" | "hybrid"`),
wrapped in the distributed backend when `ranks` > 0 — runs the in-band
tuning scheduler for hybrid runs, wraps the run in the
`ResilientDriver` when resilience knobs are set
(`faults` / `checkpoint_every` / `offload_device`), attaches the
telemetry tracer + counter sampler when asked (`telemetry` /
`trace_path` / `metrics_path`), handles checkpoint restore and VTK /
checkpoint output, and returns everything as one `RunReport`.

With telemetry disabled the facade is pure plumbing: it builds exactly
the objects the manual wiring would and the physics is bit-for-bit
identical (tests assert this).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import RunConfig

__all__ = ["RunConfig", "RunReport", "make_problem", "run"]

PROBLEM_NAMES = ("sedov", "triple-pt", "taylor-green", "noh", "saltzman", "sod")


def make_problem(name: str, config: RunConfig | None = None):
    """Build a benchmark problem by CLI name from a `RunConfig`.

    Uses the config's `dim` / `order` / `zones` fields with each
    problem's conventional aspect handling (the same mapping the CLI
    has always used).
    """
    cfg = config or RunConfig()
    from repro.problems import (
        NohProblem,
        SaltzmanProblem,
        SedovProblem,
        SodProblem,
        TaylorGreenProblem,
        TriplePointProblem,
    )

    if name == "sedov":
        return SedovProblem(dim=cfg.dim, order=cfg.order, zones_per_dim=cfg.zones)
    if name == "noh":
        return NohProblem(dim=cfg.dim, order=cfg.order, zones_per_dim=cfg.zones)
    if name == "triple-pt":
        return TriplePointProblem(order=cfg.order, nx=cfg.zones * 2, ny=cfg.zones)
    if name == "taylor-green":
        return TaylorGreenProblem(order=cfg.order, zones_per_dim=cfg.zones)
    if name == "saltzman":
        return SaltzmanProblem(order=cfg.order, nx=cfg.zones * 2,
                               ny=max(cfg.zones // 4, 2))
    if name == "sod":
        return SodProblem(order=cfg.order, nx=cfg.zones * 5, ny=1)
    raise ValueError(f"unknown problem '{name}' (choose from {PROBLEM_NAMES})")


@dataclass
class RunReport:
    """Everything one `repro.api.run` produced.

    `result` is the plain `RunResult` (physics), `manifest` the
    machine-readable `RunManifest` summary, `solver` the (serial) solver
    for follow-up diagnostics (density profiles, energies), `recovery`
    the `RecoveryReport` when the run was resilient, `tracer`/`sampler`
    the telemetry pair when it was traced, `mpi_traffic` the simulated
    communicator totals when it was distributed.
    """

    problem: object
    config: RunConfig
    result: object
    manifest: object
    solver: object = field(repr=False, default=None)
    recovery: object = None
    tracer: object = field(repr=False, default=None)
    sampler: object = field(repr=False, default=None)
    mpi_traffic: object = None
    vtk_path: object = None
    checkpoint_path: object = None
    #: `repro.sched.SchedulerReport` when the run scheduled in-band
    #: (backend="hybrid"), else None.
    scheduler: object = None

    # -- convenience views over the result -------------------------------------

    @property
    def state(self):
        return self.result.state

    @property
    def steps(self) -> int:
        return self.result.steps

    @property
    def reached_t_final(self) -> bool:
        return self.result.reached_t_final

    @property
    def energy_change(self) -> float:
        return self.result.energy_change

    @property
    def phase_timings(self) -> dict:
        return dict(self.manifest.phases)

    def summary(self) -> str:
        return self.manifest.summary()


def _build_telemetry(cfg: RunConfig):
    """The tracer + sampler pair for a telemetry-enabled config."""
    from repro.telemetry import CounterSampler, Tracer

    tracer = Tracer()
    sampler = CounterSampler(
        cpu=cfg.telemetry_cpu,
        gpu=cfg.telemetry_gpu,
        period_s=cfg.sample_period_s,
    )
    tracer.add_listener(sampler)
    return tracer, sampler


def _build_resilience(cfg: RunConfig, solver, tracer):
    """Assemble the `ResilientDriver` stack from the config."""
    from repro.resilience import (
        FaultInjector,
        GpuOffloadPricer,
        ResilientDriver,
        parse_fault_specs,
    )

    injector = None
    if cfg.faults:
        injector = FaultInjector(parse_fault_specs(cfg.faults), seed=cfg.fault_seed)
    offload = None
    # A hybrid-backend run is already a (priced) GPU offload: resilience
    # then prices faults on the same device without needing
    # offload_device.
    offload_device = cfg.offload_device or (
        cfg.hybrid_device if cfg.resolved_backend == "hybrid" else None
    )
    if offload_device:
        from repro.cpu import get_cpu
        from repro.gpu import get_gpu
        from repro.kernels import FEConfig
        from repro.runtime.hybrid import HybridExecutor

        fe_cfg = FEConfig.from_solver(solver)
        executor = HybridExecutor(
            fe_cfg, get_cpu(cfg.telemetry_cpu), get_gpu(offload_device),
            nmpi=max(cfg.ranks, 1),
        )
        offload = GpuOffloadPricer(executor, injector=injector)
    return ResilientDriver(
        solver,
        injector=injector,
        checkpoint_every=cfg.checkpoint_every or 25,
        checkpoint_dir=cfg.checkpoint_dir,
        checkpoint_keep=cfg.checkpoint_keep,
        offload=offload,
        tracer=tracer,
    )


def run(problem, config: RunConfig | None = None, **overrides) -> RunReport:
    """Run one problem end to end from a single `RunConfig`.

    Parameters
    ----------
    problem : a problem object, or one of the CLI names
        ("sedov", "noh", "triple-pt", "taylor-green", "saltzman", "sod")
        to be built via `make_problem` from the config's mesh fields.
    config : the `RunConfig`; defaults to `RunConfig()`.
    **overrides : field overrides applied on top of `config`
        (`run("sedov", t_final=0.1)` is `config.replace(t_final=0.1)`).
    """
    cfg = (config or RunConfig()).replace(**overrides) if overrides else (config or RunConfig())
    if isinstance(problem, str):
        problem = make_problem(problem, cfg)

    tracer = sampler = None
    if cfg.telemetry_enabled:
        tracer, sampler = _build_telemetry(cfg)

    from repro.hydro.solver import LagrangianHydroSolver

    # `ranks` composes with every backend: the solver wraps the resolved
    # node backend in the distributed backend when cfg.ranks > 0, and
    # the time loop / telemetry / resilience paths are the standard
    # ones in all cases.
    solver = LagrangianHydroSolver(problem, cfg, tracer=tracer)

    if cfg.restore:
        from repro.io import restore_solver

        restore_solver(cfg.restore, solver)

    recovery = None
    try:
        if cfg.resilient:
            rres = _build_resilience(cfg, solver, tracer).run(t_final=cfg.t_final)
            result, recovery = rres.result, rres.report
        else:
            result = solver.run(t_final=cfg.t_final)

        comm = getattr(solver.backend, "comm", None)
        mpi_traffic = comm.traffic if comm is not None else None
        # Any elastic-rank transitions, for the manifest.
        rank_history = list(getattr(solver.backend, "rank_history", []) or [])
        scheduler_report = (
            solver.scheduler.report if solver.scheduler is not None else None
        )

        vtk_path = checkpoint_path = None
        if cfg.vtk:
            from repro.io import write_vtk

            solver.state = result.state
            vtk_path = write_vtk(cfg.vtk, solver, state=result.state)
        if cfg.checkpoint:
            from repro.io import save_checkpoint

            solver.state = result.state
            checkpoint_path = save_checkpoint(cfg.checkpoint, solver, state=result.state)
    finally:
        solver.close()

    if tracer is not None:
        tracer.finish()
        if cfg.trace_path:
            from repro.telemetry import write_chrome_trace

            write_chrome_trace(cfg.trace_path, tracer, sampler)
        if cfg.metrics_path:
            from repro.telemetry import write_jsonl

            write_jsonl(cfg.metrics_path, tracer, sampler)

    from repro.telemetry import RunManifest

    solver_info = {
        # The resolved (ranks, backend) execution pair — what actually ran.
        "execution": cfg.resolved_execution,
    }
    if scheduler_report is not None:
        # The in-band campaign's identity: what it minimized, how it
        # searched, and how much of the space it actually priced.
        solver_info["tuning"] = {
            "objective": scheduler_report.objective,
            "strategy": scheduler_report.strategy,
            "evaluations": scheduler_report.evaluations,
            "feasible_points": scheduler_report.feasible_points,
            "warm_started": scheduler_report.warm_started,
            "converged": scheduler_report.converged,
        }
    if mpi_traffic is not None:
        solver_info["mpi_traffic"] = {
            "messages": mpi_traffic.messages,
            "bytes": mpi_traffic.bytes,
            "reductions": mpi_traffic.reductions,
            "per_rank": mpi_traffic.per_rank_dict(),
        }
    if rank_history:
        solver_info["rank_history"] = rank_history
    # Workspace pool accounting: lease/release counters plus the
    # high-water footprint the run actually touched.
    solver_info["arena"] = solver.arena.stats()
    manifest = RunManifest.from_run(
        problem, cfg, result,
        recovery=recovery, tracer=tracer, sampler=sampler,
        solver_info=solver_info,
    )
    return RunReport(
        problem=problem,
        config=cfg,
        result=result,
        manifest=manifest,
        solver=solver,
        recovery=recovery,
        tracer=tracer,
        sampler=sampler,
        mpi_traffic=mpi_traffic,
        vtk_path=vtk_path,
        checkpoint_path=checkpoint_path,
        scheduler=scheduler_report,
    )
