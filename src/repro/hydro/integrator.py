"""Energy-conserving two-stage Runge-Kutta ("RK2Avg") time integrator.

The reference scheme advances (v, e, x) with a midpoint method whose
energy update uses the *stage-averaged* velocity against the *same*
force matrix as the momentum update. Because the semi-discrete system
satisfies d/dt(KE + IE) = -v.(F.1) + v.(F.1) = 0 identically, pairing
the updates this way makes the fully discrete step conserve
KE + IE to roundoff (plus PCG tolerance) — the mechanism behind the
paper's Table 6 machine-precision check.
"""

from __future__ import annotations

from dataclasses import dataclass

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
]


@dataclass
class StepResult:
    """One attempted step: the new state (or None on rejection) plus
    the corner-force dt estimate measured at the step's final stage."""

    state: HydroState | None
    dt_est: float
    accepted: bool
    force_evals: int
    pcg_iterations: int


class RK2AvgIntegrator:
    """Midpoint RK2 with conservative velocity averaging."""

    def __init__(
        self,
        engine: ForceEngine,
        momentum: MomentumSolver,
        mass_e: BlockDiagonalMatrix,
        timers=None,
    ):
        self.engine = engine
        self.momentum = momentum
        self.mass_e = mass_e
        # Hooks the hybrid runtime uses to meter each phase; they default
        # to the plain engine methods.
        self.force_fn = engine.compute
        # Momentum-RHS assembly override: the distributed backend
        # pre-assembles -F.1 (with the interface exchange) during the
        # force evaluation and installs a hook that just hands it over.
        self.assemble_fn = None
        if timers is None:
            # Local import: repro.runtime pulls in the distributed solver,
            # which imports this module — resolve the cycle at call time.
            from repro.runtime.instrumentation import PhaseTimers

            timers = PhaseTimers()
        self.timers = timers
        # The shared tracer (if any) rides on the timers; RK stages are
        # emitted as "stage"-category spans between step and phase level.
        self.tracer = getattr(timers, "tracer", None)

    def _force(self, state: HydroState) -> ForceResult:
        """Corner-force evaluation, metered under the "force" phase."""
        with self.timers.measure("force"):
            return self.force_fn(state)

    def _solve_momentum(self, rhs: np.ndarray) -> np.ndarray:
        """Momentum PCG solve, metered under the "cg" phase."""
        with self.timers.measure("cg"):
            return self.momentum.solve(rhs)

    def _momentum_rhs(self, force: ForceResult) -> np.ndarray:
        """Assemble -F.1 into the global kinematic space."""
        if self.assemble_fn is not None:
            return self.assemble_fn(force)
        rhs_z = self.engine.force_times_one(force.Fz)  # (nz, ndz, dim)
        out = self.engine.workspace.get(
            "rhs_mom", (self.engine.kinematic.ndof, self.engine.kinematic.dim)
        )
        return self.engine.kinematic.scatter_add(rhs_z, out=out)

    def _stage(
        self, base: HydroState, force: ForceResult, dt: float
    ) -> tuple[HydroState, int]:
        """Advance `base` by dt using forces evaluated at another state."""
        rhs = self._momentum_rhs(force)
        accel = self._solve_momentum(rhs)
        iters = self.momentum.last_info.iterations
        v_new = base.v + dt * accel
        v_avg = 0.5 * (base.v + v_new)
        dedt_rhs = self.engine.force_transpose_times_v(force.Fz, v_avg)
        e_new = base.e + dt * self.mass_e.solve(dedt_rhs)
        x_new = base.x + dt * v_avg
        return HydroState(v_new, e_new, x_new, base.t + dt), iters

    def step(self, state: HydroState, dt: float, force0: ForceResult | None = None) -> StepResult:
        """One RK2Avg step; force0 may reuse the estimate-producing eval."""
        evals = 0
        iters = 0
        tr = self.tracer
        # Stage 1: half step to the midpoint state.
        with tr.span("stage", category="stage", meta={"n": 1}) if tr else NULL_SPAN:
            if force0 is None:
                force0 = self._force(state)
                evals += 1
            if not force0.valid:
                return StepResult(None, 0.0, False, evals, iters)
            half, it1 = self._stage(state, force0, 0.5 * dt)
            iters += it1
        # Stage 2: full step with midpoint forces.
        with tr.span("stage", category="stage", meta={"n": 2}) if tr else NULL_SPAN:
            force_half = self._force(half)
            evals += 1
            if not force_half.valid:
                return StepResult(None, 0.0, False, evals, iters)
            new_state, it2 = self._stage(state, force_half, dt)
            iters += it2
        if not np.isfinite(new_state.v).all() or not np.isfinite(new_state.e).all():
            return StepResult(None, 0.0, False, evals, iters)
        # Reject any step that tangles the mesh at its *final* state —
        # accepting it would poison every subsequent step.
        with self.timers.measure("force"):
            end_geo = self.engine.point_geometry(new_state.x)
        if not end_geo.check_valid():
            return StepResult(None, 0.0, False, evals, iters)
        # The dt estimate for the *next* step comes from the midpoint
        # evaluation (freshest geometry we have without an extra eval).
        return StepResult(new_state, force_half.dt_est, True, evals, iters)


class ForwardEulerIntegrator(RK2AvgIntegrator):
    """First-order explicit Euler — the conservation *counter-example*.

    Updates e with the beginning-of-step velocity instead of the stage
    average: the discrete work identity no longer telescopes, so total
    energy drifts at O(dt) per step. Included to demonstrate (in tests
    and ablations) that Table 6's machine-precision conservation is a
    property of the RK2Avg pairing, not of the spatial discretization.
    """

    def step(self, state: HydroState, dt: float, force0: ForceResult | None = None) -> StepResult:
        evals = 0
        if force0 is None:
            force0 = self._force(state)
            evals += 1
        if not force0.valid:
            return StepResult(None, 0.0, False, evals, 0)
        rhs = self._momentum_rhs(force0)
        accel = self._solve_momentum(rhs)
        iters = self.momentum.last_info.iterations
        v_new = state.v + dt * accel
        dedt_rhs = self.engine.force_transpose_times_v(force0.Fz, state.v)
        e_new = state.e + dt * self.mass_e.solve(dedt_rhs)
        x_new = state.x + dt * state.v
        new_state = HydroState(v_new, e_new, x_new, state.t + dt)
        if not np.isfinite(new_state.v).all() or not np.isfinite(new_state.e).all():
            return StepResult(None, 0.0, False, evals, iters)
        with self.timers.measure("force"):
            end_geo = self.engine.point_geometry(new_state.x)
        if not end_geo.check_valid():
            return StepResult(None, 0.0, False, evals, iters)
        return StepResult(new_state, force0.dt_est, True, evals, iters)


class RK4ClassicIntegrator(RK2AvgIntegrator):
    """Classic four-stage Runge-Kutta.

    Higher temporal order than RK2Avg but *not* exactly conservative:
    energy drifts at O(dt^4) — tiny, yet visibly nonzero next to
    RK2Avg's roundoff-level record. Twice the corner-force evaluations
    per step.
    """

    def _rates(self, base: HydroState, at: HydroState):
        """d(v,e,x)/dt evaluated at state `at` (conservative pairing is
        deliberately not used here)."""
        force = self._force(at)
        if not force.valid:
            return None, 0, 0.0
        rhs = self._momentum_rhs(force)
        accel = self._solve_momentum(rhs)
        iters = self.momentum.last_info.iterations
        dedt = self.mass_e.solve(self.engine.force_transpose_times_v(force.Fz, at.v))
        return (accel, dedt, at.v, iters), force.dt_est, iters

    def step(self, state: HydroState, dt: float, force0: ForceResult | None = None) -> StepResult:
        evals = 0
        iters_total = 0
        ks = []
        dt_est = 0.0
        stage_state = state
        coeffs = (0.0, 0.5, 0.5, 1.0)
        for c in coeffs:
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
            rates, est, iters = self._rates(state, probe)
            evals += 1
            iters_total += iters
            if rates is None:
                return StepResult(None, 0.0, False, evals, iters_total)
            ks.append(rates)
            dt_est = est or dt_est
        accel = (ks[0][0] + 2 * ks[1][0] + 2 * ks[2][0] + ks[3][0]) / 6.0
        dedt = (ks[0][1] + 2 * ks[1][1] + 2 * ks[2][1] + ks[3][1]) / 6.0
        dxdt = (ks[0][2] + 2 * ks[1][2] + 2 * ks[2][2] + ks[3][2]) / 6.0
        new_state = HydroState(
            state.v + dt * accel, state.e + dt * dedt, state.x + dt * dxdt, state.t + dt
        )
        if not np.isfinite(new_state.v).all() or not np.isfinite(new_state.e).all():
            return StepResult(None, 0.0, False, evals, iters_total)
        with self.timers.measure("force"):
            end_geo = self.engine.point_geometry(new_state.x)
        if not end_geo.check_valid():
            return StepResult(None, 0.0, False, evals, iters_total)
        return StepResult(new_state, dt_est, True, evals, iters_total)


_INTEGRATORS = {
    "rk2avg": RK2AvgIntegrator,
    "euler": ForwardEulerIntegrator,
    "rk4": RK4ClassicIntegrator,
}


def make_integrator(name: str, engine, momentum, mass_e, timers=None) -> RK2AvgIntegrator:
    """Integrator factory for the solver's `integrator` option."""
    try:
        cls = _INTEGRATORS[name]
    except KeyError:
        raise ValueError(
            f"unknown integrator '{name}' (choose from {sorted(_INTEGRATORS)})"
        ) from None
    return cls(engine, momentum, mass_e, timers=timers)
