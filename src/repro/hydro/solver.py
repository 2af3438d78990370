"""The Lagrangian hydro solver driver (the BLAST main loop).

Implements the paper's Section 2 algorithm:

1) build the mesh/problem;           2) (optionally) partition it;
3) compute the initial time step;    4) corner forces over zones/points;
5) min-dt reduction and assembly;    6) global momentum solve (PCG);
7) update (v, e, x);                 8) loop until the final time.

`run` is the one time loop. A resilient run is the same loop with the
`ResilientDriver` as its guard: the driver recovers rank failures,
inspects each accepted step before the loop records it, and rolls the
loop back to its last snapshot on a watchdog violation.

The solver carries a `WorkloadRecorder` describing exactly what was
computed (zones, points, force evaluations, PCG iterations) so that the
simulated CPU/GPU hardware models can meter time/power for the same run
without re-running physics. It is also the run's one phase record: the
integrator returns each step's force and CG wall seconds, the solver
books the rest of the step as "other", and a guard books its own time
as "resilience". `WorkloadRecorder.phase_table` is what the manifest
and `RunReport.phase_timings` show.

Its one configuration is the frozen `repro.config.RunConfig`, kept as
`solver.config`: the execution backend, the step budget, the dt and
PCG knobs and the in-band tuning settings are all read from it. The
distributed backend and the `ResilientDriver` read the same object.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.config import RunConfig
from repro.fem.geometry import GeometryEvaluator
from repro.fem.quadrature import tensor_quadrature
from repro.fem.spaces import H1Space, L2Space
from repro.fem.assembly import (
    MassAction,
    assemble_kinematic_mass,
    assemble_thermodynamic_mass,
)
from repro.hydro.corner_force import ForceEngine, SumfactForceEngine
from repro.hydro.workspace import Workspace
from repro.runtime.arena import Arena
from repro.hydro.diagnostics import EnergyBreakdown, compute_energies
from repro.hydro.integrator import make_integrator, run_phase
from repro.hydro.momentum import MomentumSolver
from repro.hydro.state import HydroState
from repro.hydro.timestep import TimestepController

__all__ = ["RunResult", "WorkloadRecorder", "LagrangianHydroSolver"]


@dataclass
class WorkloadRecorder:
    """What one run actually computed, for the hardware cost models."""

    nzones: int = 0
    nqp: int = 0
    ndof_kinematic_zone: int = 0
    ndof_thermo_zone: int = 0
    dim: int = 0
    steps: int = 0
    force_evals: int = 0
    pcg_iterations: int = 0
    pcg_solves: int = 0
    mass_nnz: int = 0
    rejected_steps: int = 0
    wall_force_s: float = 0.0
    wall_cg_s: float = 0.0
    wall_other_s: float = 0.0
    wall_resilience_s: float = 0.0

    @property
    def pcg_iters_per_solve(self) -> float:
        return self.pcg_iterations / max(self.pcg_solves, 1)

    def phase_table(self) -> dict[str, dict[str, float]]:
        """{phase: {seconds, fraction}} over force, cg and the rest of
        each step attempt ("other"), plus "resilience" — the guard's own
        time — when a guard ran. The fractions sum to 1."""
        seconds = {"force": self.wall_force_s, "cg": self.wall_cg_s,
                   "other": self.wall_other_s}
        if self.wall_resilience_s > 0:
            seconds["resilience"] = self.wall_resilience_s
        total = sum(seconds.values())
        return {
            name: {"seconds": s, "fraction": s / total if total > 0 else 0.0}
            for name, s in seconds.items()
        }


@dataclass
class RunResult:
    """Outcome of `LagrangianHydroSolver.run`."""

    state: HydroState
    steps: int
    energy_history: list[EnergyBreakdown]
    dt_history: list[float]
    workload: WorkloadRecorder
    reached_t_final: bool

    @property
    def energy_change(self) -> float:
        """Total-energy drift over the run (the paper's Table 6 column)."""
        return self.energy_history[-1].total - self.energy_history[0].total


class LagrangianHydroSolver:
    """High-order FEM Lagrangian hydrodynamics on a fixed topology mesh.

    `config` is the run's `RunConfig` (None means `RunConfig()`); only
    its run-control and execution fields matter here, the problem is
    already built. An optional `repro.telemetry.Tracer` makes the solver
    emit step/phase/kernel spans; without one (the default), tracing
    code never runs.
    """

    #: Always None: every backend evaluates the corner force in
    #: process. Kept only because perfbench's solver workloads read it.
    executor = None

    def __init__(self, problem, config: RunConfig | None = None,
                 tracer=None, backend=None, arena: Arena | None = None):
        if config is None:
            config = RunConfig()
        elif not isinstance(config, RunConfig):
            raise TypeError(f"config must be a RunConfig, got {type(config).__name__}")
        self.problem = problem
        self.config = config
        # The pool allocator behind the engine's workspace. A shared
        # arena — e.g. the service warm pool's — lets a retired solver's
        # blocks satisfy the next solver's leases even across mesh-size
        # changes.
        self.arena = arena if arena is not None else Arena(name="solver")
        self.tracer = tracer if (tracer is not None and tracer.enabled) else None
        mesh = problem.mesh
        k = problem.kinematic_order
        self.kinematic = H1Space(mesh, k)
        self.thermodynamic = L2Space(mesh, problem.thermodynamic_order)
        npts = config.quad_points_1d or problem.quad_points_1d
        self.quad = tensor_quadrature(mesh.dim, npts)

        # Initial geometry and fields.
        geom_eval = GeometryEvaluator(self.kinematic, self.quad)
        x0 = self.kinematic.node_coords.copy()
        geometry0 = geom_eval.evaluate(x0)
        qp_phys = geom_eval.physical_points(x0).reshape(-1, mesh.dim)
        rho0_qp = np.asarray(problem.rho0(qp_phys), dtype=np.float64).reshape(
            mesh.nzones, self.quad.nqp
        )
        self.eos = problem.make_eos()
        self._rho0_qp = rho0_qp
        self._geometry0 = geometry0
        # The execution backend owns engine construction: it calls back
        # into `_make_engine` for the flavour it needs and supplies the
        # force evaluator the integrator will run. `ranks` > 0 wraps the
        # resolved node backend in the simulated-MPI distributed layer;
        # a pre-built backend instance wins over both.
        if backend is None:
            from repro.backends import make_backend

            name = config.resolved_backend
            node_kwargs = {}
            if name == "hybrid":
                node_kwargs = {"device": config.hybrid_device}
            if config.ranks > 0:
                from repro.backends.distributed import DistributedBackend

                backend = DistributedBackend(
                    config.ranks,
                    node=name,
                    node_kwargs=node_kwargs,
                    overlap=config.overlap,
                    rank_schedule=config.rank_schedule,
                )
            else:
                backend = make_backend(name, **node_kwargs)
        self.backend = backend
        self.backend.attach(self)
        self.engine = self.backend.engine

        # Mass matrices (constant in time, assembled once). The sumfact
        # backend assembles its blocks through the factorized chain.
        # The PCG and the energies apply M_V through its action; the
        # CSR gives the Jacobi diagonal and the nnz the cost models price.
        use_sumfact = bool(getattr(self.backend, "sumfact", False))
        self.mass_v = assemble_kinematic_mass(
            self.kinematic, self.quad, rho0_qp, geometry0, sumfact=use_sumfact
        )
        self.mass_v_action = MassAction.for_space(
            self.kinematic, self.quad, rho0_qp, geometry0.det
        )
        self.mass_e = assemble_thermodynamic_mass(
            self.thermodynamic, self.quad, rho0_qp, geometry0, sumfact=use_sumfact
        )

        self.bc = problem.boundary_conditions(self.kinematic)
        self.momentum = MomentumSolver(
            self.mass_v, self.mass_v_action, self.bc,
            tol=config.pcg_tol, maxiter=config.pcg_maxiter,
        )
        self.integrator = make_integrator(
            config.integrator, self.engine, self.momentum, self.mass_e
        )
        self.integrator.force_fn = self.backend.force_fn

        # Late backend hook: the distributed backend builds everything
        # that needs the mass matrices / momentum solver / integrator
        # (partition, communicator, stacked-step plan, momentum operator)
        # here.
        finalize = getattr(self.backend, "finalize", None)
        if finalize is not None:
            finalize(self)

        self.scheduler = None
        # Everything time-dependent (state, dt controller, workload
        # accounting, scheduler) lives behind `reset()` so a pooled
        # solver can be rewound to its just-constructed configuration
        # and re-run bit-identically without repaying spaces, mass
        # assembly, or backend construction.
        self.reset()

    def reset(self) -> None:
        """Rewind to the just-constructed state (warm solver reuse).

        Rebuilds the initial fields from the problem definition, a fresh
        dt controller and workload recorder (the phase record), and a
        fresh in-band scheduler (which re-reads the tuning cache, so a
        pooled hybrid solver warm-starts from the previous job's
        winners). Everything expensive — spaces, quadrature, mass
        matrices, backend, momentum solver — is untouched: a
        reset + `run` reproduces a cold solver's trajectory bit-for-bit
        at a fraction of the setup cost.
        """
        problem, config = self.problem, self.config
        mesh = problem.mesh

        # Backend rewind first: a distributed backend restores its
        # initial rank count/partition (undoing elastic resizes or rank
        # exclusions from the previous job) and starts fresh
        # communication accounting.
        backend_reset = getattr(self.backend, "reset", None)
        if backend_reset is not None:
            backend_reset()

        # Hybrid execution runs under the in-band scheduler: per-step
        # hook in `run`, winners persisted through the tuning
        # cache (warm-starting identical later runs). The backend
        # nominates its own tuning target — a single hybrid backend is
        # its own; a distributed backend nominates its one hybrid node.
        if self.scheduler is not None:
            self.scheduler.finalize()
        self.scheduler = None
        tuning = getattr(self.backend, "tuning_target", None)
        target = tuning() if tuning is not None else None
        if target is not None:
            from repro.sched import OnlineScheduler
            from repro.tuning.cache import TuningCache

            cache = (
                TuningCache(config.tuning_cache, strict=config.tuning_strict)
                if config.tuning_cache
                else None
            )
            self.scheduler = OnlineScheduler(
                target,
                cache=cache,
                steps_per_period=config.tune_period_steps,
                objective=config.tuning_objective,
                strategy=config.tuning_strategy,
                tracer=self.tracer,
            )

        # Initial state.
        x0 = self.kinematic.node_coords.copy()
        v0 = np.asarray(problem.v0(x0), dtype=np.float64)
        self.bc.apply_to_field(v0)
        l2_nodes = self._thermo_node_coords(x0)
        e0 = np.asarray(problem.initial_energy(self.thermodynamic, l2_nodes), dtype=np.float64)
        self.state = HydroState(v0, e0, x0, 0.0)
        self._last_dt_est = 0.0
        #: Simulation steps completed since construction or `reset`: a
        #: rolled-back step counts once, however often it is replayed
        #: (`workload.steps` counts every accepted attempt). The backend's
        #: step hook and `rank_history` are keyed on it.
        self.sim_steps = 0

        self.controller = TimestepController(
            cfl=config.cfl if config.cfl is not None else problem.default_cfl
        )
        self.workload = WorkloadRecorder(
            nzones=mesh.nzones,
            nqp=self.quad.nqp,
            ndof_kinematic_zone=self.kinematic.ndof_per_zone,
            ndof_thermo_zone=self.thermodynamic.ndof_per_zone,
            dim=mesh.dim,
            mass_nnz=self.mass_v.nnz,
        )

    # -- Execution backend -------------------------------------------------------

    def _make_engine(self, sumfact: bool = False) -> ForceEngine:
        """Build the dense or sum-factorized `ForceEngine` (backend
        construction hook)."""
        cls = SumfactForceEngine if sumfact else ForceEngine
        return cls(
            self.kinematic,
            self.thermodynamic,
            self.quad,
            self.eos,
            self._rho0_qp,
            self._geometry0,
            viscosity=self.problem.viscosity(),
            workspace=Workspace(arena=self.arena),
            tracer=self.tracer,
        )

    def release_workspaces(self) -> None:
        """Return every engine workspace lease to the arena.

        Only for solver retirement (service warm-pool eviction): the
        engine's buffers become invalid, but a shared arena can hand the
        blocks to the next pooled solver. A closed-but-live solver (see
        `close`) must NOT release — `close` keeps the engine usable.
        """
        engine = getattr(self, "engine", None)
        if engine is not None:
            engine.workspace.close()

    def swap_backend(self, name: str) -> None:
        """Replace the execution backend mid-run (resilience fallback).

        Builds and attaches the new backend, repoints the integrator's
        force evaluator, and stops any in-band scheduler (its pricing
        model described hardware that is no longer carrying the run).
        Physics is unaffected: every backend evaluates the same
        arithmetic.
        """
        old = self.backend
        from repro.backends import make_backend

        new = make_backend(name)
        new.attach(self)
        self.backend = new
        self.engine = new.engine
        self.integrator.force_fn = new.force_fn
        if old.name == "distributed":
            # Leaving the simulated-MPI layer: restore the serial
            # momentum operator and the default RHS assembly.
            self.momentum = MomentumSolver(
                self.mass_v, self.mass_v_action, self.bc,
                tol=self.config.pcg_tol, maxiter=self.config.pcg_maxiter,
            )
            self.integrator.momentum = self.momentum
            self.integrator.assemble_fn = None
        if self.scheduler is not None:
            self.scheduler.finalize()

    def close(self) -> None:
        """Finalize the in-band scheduler (closing any open tuning-period
        span); the solver stays usable."""
        if self.scheduler is not None:
            self.scheduler.finalize()

    def __enter__(self) -> "LagrangianHydroSolver":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _thermo_node_coords(self, x: np.ndarray) -> np.ndarray:
        """Physical positions of thermodynamic dofs: (nz, ndz_l2, dim)."""
        ref = self.thermodynamic.element.dof_coords
        vals = self.kinematic.element.tabulate(ref)  # (ndz_l2, ndz_h1)
        xz = self.kinematic.gather(x)
        return np.einsum("ni,zid->znd", vals, xz)

    # -- Diagnostics ------------------------------------------------------------

    def energies(self, state: HydroState | None = None) -> EnergyBreakdown:
        return compute_energies(state or self.state, self.mass_v_action, self.mass_e)

    def density_at_points(self, state: HydroState | None = None) -> np.ndarray:
        """(nzones, nqp) density from strong mass conservation."""
        s = state or self.state
        geo = self.engine.point_geometry(s.x)
        return self.engine.mass_qp / geo.det

    # -- Time stepping ------------------------------------------------------------

    def initialize_dt(self) -> float:
        """Step 3: the first dt of a march, restart-aware.

        A solver carrying controller state (restored from a checkpoint,
        or continuing a previous run) keeps its dt ramp — this is what
        makes a restart reproduce the uninterrupted run bit-for-bit.
        Otherwise dt comes from a corner-force estimate at t=0.
        """
        if self.controller.dt > 0 and self._last_dt_est > 0:
            return self.controller.dt
        force, seconds = run_phase(self.tracer, "force", self.integrator.force_fn, self.state)
        self.workload.force_evals += 1
        self.workload.wall_force_s += seconds
        if not force.valid or force.dt_est <= 0:
            raise RuntimeError("initial configuration is invalid")
        dt = self.controller.initialize(force.dt_est)
        self._last_dt_est = dt / self.controller.cfl
        return dt

    def step(self, dt: float) -> bool:
        """Attempt one step of size dt; returns acceptance.

        With a tracer attached the whole attempt is one "step" span;
        the integrator's force/cg phases nest inside it.
        """
        if self.tracer is None:
            return self._step_impl(dt)
        with self.tracer.span("step", category="step"):
            return self._step_impl(dt)

    def _step_impl(self, dt: float) -> bool:
        t0 = time.perf_counter()
        result = self.integrator.step(self.state, dt)
        elapsed = time.perf_counter() - t0
        w = self.workload
        w.force_evals += result.force_evals
        w.pcg_solves += result.pcg_solves
        w.pcg_iterations += result.pcg_iterations
        # Phase split: the integrator meters its force and CG phases;
        # everything else in the step (assembly, state updates, energy
        # RHS, validity checks) is the "other" remainder, so the three
        # buckets sum to the measured step wall time.
        w.wall_force_s += result.force_s
        w.wall_cg_s += result.cg_s
        w.wall_other_s += max(elapsed - result.force_s - result.cg_s, 0.0)
        if not result.accepted:
            w.rejected_steps += 1
            return False
        self.state = result.state
        self._last_dt_est = result.dt_est
        w.steps += 1
        return True

    def run(self, t_final: float | None = None, max_steps: int | None = None,
            guard=None) -> RunResult:
        """March to t_final with adaptive dt, recording diagnostics.

        `guard` is set only by `ResilientDriver.run`. The loop then runs
        `initialize_dt` and every step through `guard.attempt` (which
        recovers a `RankFailure` and retries the same call), arms the
        guard with the first dt, and hands each accepted step to
        `guard.after_step` before recording it. That returns the step
        count the run continues from and the step's energy; a smaller
        count is a rollback, and the loop drops the undone steps'
        history entries and rewinds `sim_steps` with its own count.

        With a tracer attached and no span already open, the whole
        march becomes the root "run" span; when a caller
        (`repro.api.run`) already opened one, the solver nests under it.
        """
        if self.tracer is not None and self.tracer.current is None:
            with self.tracer.span(
                "run", category="run",
                meta={"problem": getattr(self.problem, "name", "")},
            ):
                return self._run_impl(t_final, max_steps, guard)
        return self._run_impl(t_final, max_steps, guard)

    def _run_impl(self, t_final: float | None, max_steps: int | None, guard) -> RunResult:
        t_final = t_final if t_final is not None else self.problem.default_t_final
        max_steps = max_steps if max_steps is not None else self.config.resolved_max_steps
        every = self.config.energy_every
        energy_history = [self.energies()]
        dt_history: list[float] = []
        if guard is None:
            self.initialize_dt()
        else:
            guard.arm(guard.attempt(0, self.initialize_dt), energy_history[0])
        steps_before = self.sim_steps
        steps = 0
        while self.state.t < t_final - 1e-15 and steps < max_steps:
            dt = self.controller.propose(self._last_dt_est, self.state.t, t_final)
            if dt <= 0:
                break
            while not (self.step(dt) if guard is None
                       else guard.attempt(steps + 1, self.step, dt)):
                dt = self.controller.reject()
            steps += 1
            self.sim_steps = steps_before + steps
            # In-band scheduling runs between steps (outside the step
            # span): period boundaries, campaign advances, ratio moves.
            if self.scheduler is not None:
                self.scheduler.on_step()
            # Backend per-step hook: the distributed backend fires
            # scheduled elastic-rank resizes here, between steps.
            backend_on_step = getattr(self.backend, "on_step", None)
            if backend_on_step is not None:
                backend_on_step(self.sim_steps)
            energy = None
            if guard is not None:
                kept, energy = guard.after_step(steps, dt)
                if kept < steps:
                    steps = kept
                    self.sim_steps = steps_before + steps
                    del dt_history[steps:]
                    del energy_history[1 + steps // every:]
                    continue
            if self.config.record_dt_history:
                dt_history.append(dt)
            if steps % every == 0:
                energy_history.append(energy if energy is not None else self.energies())
        if self.scheduler is not None:
            # Close any open tuning_period span before the run span does.
            self.scheduler.finalize()
        if energy_history[-1].t != self.state.t:
            energy_history.append(self.energies())
        return RunResult(
            state=self.state,
            steps=steps,
            energy_history=energy_history,
            dt_history=dt_history,
            workload=self.workload,
            reached_t_final=self.state.t >= t_final - 1e-12,
        )
