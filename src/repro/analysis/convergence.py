"""Self-convergence studies (the quantitative face of Figure 2).

The paper argues p-refinement "can lead to better numerical
approximations"; this tool measures it. Because the mesh moves with the
fluid, fields from different discretizations live on different grids —
so convergence is measured through scalar functionals (kinetic energy
at a fixed time is the default) against the richest configuration in
the study, Richardson style.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.config import RunConfig
from repro.hydro.solver import LagrangianHydroSolver

__all__ = ["ConvergencePoint", "convergence_study", "kinetic_energy_metric",
           "observed_rate"]


@dataclass(frozen=True)
class ConvergencePoint:
    """One configuration's error against the study's reference."""

    label: str
    dofs: int
    value: float
    error: float


def kinetic_energy_metric(solver: LagrangianHydroSolver, result) -> float:
    """Final kinetic energy — smooth in the solution, so its error
    tracks the discretization error of the velocity field."""
    return result.energy_history[-1].kinetic


def convergence_study(
    configurations: list[tuple[str, Callable[[], object]]],
    t_final: float,
    metric: Callable = kinetic_energy_metric,
    config: RunConfig | None = None,
) -> list[ConvergencePoint]:
    """Run every configuration and report errors against the last one.

    `configurations` is an ordered list of (label, problem factory)
    pairs, coarsest first; the final entry is the reference and gets
    error = 0 by construction (its own discretization error is the
    study's noise floor — standard self-convergence caveat).
    """
    if len(configurations) < 2:
        raise ValueError("need at least two configurations (last is reference)")
    values = []
    dofs = []
    for label, factory in configurations:
        solver = LagrangianHydroSolver(factory(), config)
        result = solver.run(t_final=t_final)
        if not result.reached_t_final:
            raise RuntimeError(f"configuration '{label}' did not reach t_final")
        values.append(float(metric(solver, result)))
        dofs.append(solver.kinematic.ndof * solver.kinematic.dim + solver.thermodynamic.ndof)
    reference = values[-1]
    return [
        ConvergencePoint(label, n, v, abs(v - reference))
        for (label, _), n, v in zip(configurations, dofs, values)
    ]


def observed_rate(points: list[ConvergencePoint]) -> float:
    """Least-squares slope of log(error) vs log(dofs) over the
    non-reference points (negative = converging)."""
    pts = [p for p in points[:-1] if p.error > 0]
    if len(pts) < 2:
        raise ValueError("need at least two nonzero-error points")
    x = np.log([p.dofs for p in pts])
    y = np.log([p.error for p in pts])
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)
