"""Energy-conserving two-stage Runge-Kutta ("RK2Avg") time integrator.

The reference scheme advances (v, e, x) with a midpoint method whose
energy update uses the *stage-averaged* velocity against the *same*
force matrix as the momentum update. Because the semi-discrete system
satisfies d/dt(KE + IE) = -v.(F.1) + v.(F.1) = 0 identically, pairing
the updates this way makes the fully discrete step conserve
KE + IE to roundoff (plus PCG tolerance) — the mechanism behind the
paper's Table 6 machine-precision check.

Every `step` returns a `StepResult` saying what the attempt ran: its
corner-force evaluations, PCG solves (one per velocity component) and
iterations, and the wall seconds of its force and CG phases. The solver
sums these into its `WorkloadRecorder`, the run's one phase record.
With a tracer on the engine, each metered call is also a "phase" span,
so the energy sampler attributes joules to force and CG.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.hydro.corner_force import ForceEngine, ForceResult
from repro.hydro.momentum import MomentumSolver
from repro.hydro.state import HydroState
from repro.linalg.blockdiag import BlockDiagonalMatrix
from repro.telemetry.tracer import NULL_SPAN

__all__ = [
    "RK2AvgIntegrator",
    "ForwardEulerIntegrator",
    "RK4ClassicIntegrator",
    "StepResult",
    "make_integrator",
    "run_phase",
]


@dataclass
class StepResult:
    """One attempted step: the new state (None on rejection), the
    corner-force dt estimate of its final stage, and what the attempt
    ran — force evaluations, PCG solves and iterations, and the wall
    seconds of its force phase (the end-of-step geometry check
    included) and its CG phase."""

    state: HydroState | None = None
    dt_est: float = 0.0
    force_evals: int = 0
    pcg_solves: int = 0
    pcg_iterations: int = 0
    force_s: float = 0.0
    cg_s: float = 0.0

    @property
    def accepted(self) -> bool:
        return self.state is not None


def run_phase(tracer, name: str, fn, arg):
    """Call `fn(arg)` as one metered phase; returns (result, seconds).

    With a tracer the call is a "phase" span and the seconds are the
    span's own duration, so the phase record and the trace agree.
    """
    if tracer is None:
        t0 = perf_counter()
        out = fn(arg)
        return out, perf_counter() - t0
    with tracer.span(name, category="phase") as span:
        out = fn(arg)
    return out, span.duration_s


class RK2AvgIntegrator:
    """Midpoint RK2 with conservative velocity averaging."""

    def __init__(
        self,
        engine: ForceEngine,
        momentum: MomentumSolver,
        mass_e: BlockDiagonalMatrix,
    ):
        self.engine = engine
        self.momentum = momentum
        self.mass_e = mass_e
        # The force evaluator the backend installs; defaults to the
        # plain engine.
        self.force_fn = engine.compute
        # Momentum-RHS assembly override: the distributed backend
        # pre-assembles -F.1 (with the interface exchange) during the
        # force evaluation and installs a hook that just hands it over.
        self.assemble_fn = None
        # The engine's tracer (None with telemetry off): RK stages are
        # "stage" spans between step and phase level.
        self.tracer = engine.tracer
        self._tally = StepResult()

    def step(self, state: HydroState, dt: float) -> StepResult:
        """Attempt one step of size dt from `state`.

        The attempt is rejected (state None) when a stage's force
        evaluation finds the mesh invalid, when the new unknowns are not
        finite, or when the mesh is tangled at the final state —
        accepting that would poison every later step.
        """
        # The attempt's result doubles as its running tally.
        self._tally = tally = StepResult()
        new_state, dt_est = self._advance(state, dt)
        if new_state is not None and self._admissible(new_state):
            tally.state, tally.dt_est = new_state, dt_est
        return tally

    def _admissible(self, new: HydroState) -> bool:
        if not np.isfinite(new.v).all() or not np.isfinite(new.e).all():
            return False
        geo, seconds = run_phase(self.tracer, "force", self.engine.point_geometry, new.x)
        self._tally.force_s += seconds
        return geo.check_valid()

    def _force(self, state: HydroState) -> ForceResult:
        """Corner-force evaluation, metered as the "force" phase."""
        force, seconds = run_phase(self.tracer, "force", self.force_fn, state)
        self._tally.force_evals += 1
        self._tally.force_s += seconds
        return force

    def _solve_momentum(self, rhs: np.ndarray) -> np.ndarray:
        """Momentum PCG solve (one per velocity component), metered as
        the "cg" phase."""
        accel, seconds = run_phase(self.tracer, "cg", self.momentum.solve, rhs)
        self._tally.pcg_solves += accel.shape[1]
        self._tally.pcg_iterations += self.momentum.last_info.iterations
        self._tally.cg_s += seconds
        return accel

    def _momentum_rhs(self, force: ForceResult) -> np.ndarray:
        """Assemble -F.1 into the global kinematic space."""
        if self.assemble_fn is not None:
            return self.assemble_fn(force)
        rhs_z = self.engine.force_times_one(force.Fz)  # (nz, ndz, dim)
        out = self.engine.workspace.get(
            "rhs_mom", (self.engine.kinematic.ndof, self.engine.kinematic.dim)
        )
        return self.engine.kinematic.scatter_add(rhs_z, out=out)

    def _stage(self, base: HydroState, force: ForceResult, dt: float) -> HydroState:
        """Advance `base` by dt using forces evaluated at another state."""
        accel = self._solve_momentum(self._momentum_rhs(force))
        v_new = base.v + dt * accel
        v_avg = 0.5 * (base.v + v_new)
        dedt_rhs = self.engine.force_transpose_times_v(force.Fz, v_avg)
        e_new = base.e + dt * self.mass_e.solve(dedt_rhs)
        x_new = base.x + dt * v_avg
        return HydroState(v_new, e_new, x_new, base.t + dt)

    def _advance(self, state: HydroState, dt: float) -> tuple[HydroState | None, float]:
        """The scheme's stages: (new state, next dt estimate), or
        (None, 0.0) when a force evaluation finds the mesh invalid."""
        tr = self.tracer
        # Stage 1: half step to the midpoint state.
        with tr.span("stage", category="stage", meta={"n": 1}) if tr else NULL_SPAN:
            force0 = self._force(state)
            if not force0.valid:
                return None, 0.0
            half = self._stage(state, force0, 0.5 * dt)
        # Stage 2: full step with midpoint forces.
        with tr.span("stage", category="stage", meta={"n": 2}) if tr else NULL_SPAN:
            force_half = self._force(half)
            if not force_half.valid:
                return None, 0.0
            new_state = self._stage(state, force_half, dt)
        # The dt estimate for the *next* step comes from the midpoint
        # evaluation (freshest geometry we have without an extra eval).
        return new_state, force_half.dt_est


class ForwardEulerIntegrator(RK2AvgIntegrator):
    """First-order explicit Euler — the conservation *counter-example*.

    Updates e with the beginning-of-step velocity instead of the stage
    average: the discrete work identity no longer telescopes, so total
    energy drifts at O(dt) per step. Included to demonstrate (in tests
    and ablations) that Table 6's machine-precision conservation is a
    property of the RK2Avg pairing, not of the spatial discretization.
    """

    def _advance(self, state: HydroState, dt: float) -> tuple[HydroState | None, float]:
        force0 = self._force(state)
        if not force0.valid:
            return None, 0.0
        accel = self._solve_momentum(self._momentum_rhs(force0))
        v_new = state.v + dt * accel
        dedt_rhs = self.engine.force_transpose_times_v(force0.Fz, state.v)
        e_new = state.e + dt * self.mass_e.solve(dedt_rhs)
        x_new = state.x + dt * state.v
        return HydroState(v_new, e_new, x_new, state.t + dt), force0.dt_est


class RK4ClassicIntegrator(RK2AvgIntegrator):
    """Classic four-stage Runge-Kutta.

    Higher temporal order than RK2Avg but *not* exactly conservative:
    energy drifts at O(dt^4) — tiny, yet visibly nonzero next to
    RK2Avg's roundoff-level record. Twice the corner-force evaluations
    per step.
    """

    def _rates(self, at: HydroState):
        """d(v,e,x)/dt evaluated at state `at` (conservative pairing is
        deliberately not used here), or None on an invalid mesh."""
        force = self._force(at)
        if not force.valid:
            return None, 0.0
        accel = self._solve_momentum(self._momentum_rhs(force))
        dedt = self.mass_e.solve(self.engine.force_transpose_times_v(force.Fz, at.v))
        return (accel, dedt, at.v), force.dt_est

    def _advance(self, state: HydroState, dt: float) -> tuple[HydroState | None, float]:
        ks = []
        dt_est = 0.0
        for c in (0.0, 0.5, 0.5, 1.0):
            probe = (
                state
                if c == 0.0
                else HydroState(
                    state.v + c * dt * ks[-1][0],
                    state.e + c * dt * ks[-1][1],
                    state.x + c * dt * ks[-1][2],
                    state.t + c * dt,
                )
            )
            rates, est = self._rates(probe)
            if rates is None:
                return None, 0.0
            ks.append(rates)
            dt_est = est or dt_est
        accel = (ks[0][0] + 2 * ks[1][0] + 2 * ks[2][0] + ks[3][0]) / 6.0
        dedt = (ks[0][1] + 2 * ks[1][1] + 2 * ks[2][1] + ks[3][1]) / 6.0
        dxdt = (ks[0][2] + 2 * ks[1][2] + 2 * ks[2][2] + ks[3][2]) / 6.0
        new_state = HydroState(
            state.v + dt * accel, state.e + dt * dedt, state.x + dt * dxdt, state.t + dt
        )
        return new_state, dt_est


_INTEGRATORS = {
    "rk2avg": RK2AvgIntegrator,
    "euler": ForwardEulerIntegrator,
    "rk4": RK4ClassicIntegrator,
}


def make_integrator(name: str, engine, momentum, mass_e) -> RK2AvgIntegrator:
    """Integrator factory for the solver's `integrator` option."""
    try:
        cls = _INTEGRATORS[name]
    except KeyError:
        raise ValueError(
            f"unknown integrator '{name}' (choose from {sorted(_INTEGRATORS)})"
        ) from None
    return cls(engine, momentum, mass_e)
