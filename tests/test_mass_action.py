"""The partial-assembly kinematic mass action against the assembled CSR.

The momentum PCG and the energy diagnostic apply M_V through
`repro.fem.assembly.MassAction`; the assembled CSR matrix stays as the
reference. The action must equal the CSR SpMV to roundoff on every
registry problem, against both mass assemblies (cpu-fused's dense
blocks and cpu-sumfact's factorized chain), and the PCG must take the
same number of iterations with either operator.
"""

import numpy as np
import pytest

from repro.api import PROBLEM_NAMES, RunConfig, make_problem
from repro.hydro.momentum import MomentumSolver
from repro.hydro.solver import LagrangianHydroSolver

#: Summation order is the only difference between the two operators.
REL_TOL = 1e-14


def build(name: str, **cfg) -> LagrangianHydroSolver:
    config = RunConfig(**cfg)
    return LagrangianHydroSolver(make_problem(name, config), config)


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


@pytest.mark.parametrize("backend", ["cpu-fused", "cpu-sumfact"])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_action_matches_csr_2d(name, order, backend, rng):
    with build(name, order=order, zones=3, backend=backend) as solver:
        action, mass = solver.mass_v_action, solver.mass_v
        for x in (rng.standard_normal(mass.ncols), np.ones(mass.ncols)):
            assert rel_err(action.matvec(x), mass.matvec(x)) <= REL_TOL


@pytest.mark.parametrize("backend", ["cpu-fused", "cpu-sumfact"])
@pytest.mark.parametrize("order", [1, 2])
def test_action_matches_csr_sedov_3d(order, backend, rng):
    with build("sedov", dim=3, order=order, zones=2, backend=backend) as solver:
        x = rng.standard_normal(solver.kinematic.ndof)
        assert rel_err(solver.mass_v_action.matvec(x), solver.mass_v.matvec(x)) <= REL_TOL


def test_action_validates_shapes():
    with build("sedov", order=2, zones=2) as solver:
        a = solver.mass_v_action
        with pytest.raises(ValueError, match="qp_weights"):
            type(a)(a.basis, a.qp_weights[:, :-1], a.ldof, a.ndof)
        with pytest.raises(ValueError, match="ldof"):
            type(a)(a.basis, a.qp_weights, a.ldof[:, :-1], a.ndof)


class _CSRMomentum(MomentumSolver):
    """Test-only: the same PCG with the assembled CSR SpMV as operator."""

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.mass.matvec(x)


def _iterations_per_solve(solver, steps: int) -> tuple[list[int], np.ndarray]:
    counts = []
    solve = solver.momentum.solve

    def recording(rhs, x0=None):
        out = solve(rhs, x0)
        counts.append(solver.momentum.last_info.iterations)
        return out

    solver.momentum.solve = recording
    result = solver.run(t_final=1.0, max_steps=steps)
    assert result.steps == steps
    return counts, result.state.v


@pytest.mark.parametrize("name, cfg", [
    ("sedov", dict(order=2, zones=8)),
    ("triple-pt", dict(order=2, zones=6, ranks=8)),
])
def test_csr_and_action_take_the_same_iterations(name, cfg):
    with build(name, **cfg) as solver:
        counts, v = _iterations_per_solve(solver, 20)
    with build(name, **cfg) as solver:
        ref = _CSRMomentum(solver.mass_v, solver.mass_v_action, solver.bc,
                           tol=solver.config.pcg_tol, maxiter=solver.config.pcg_maxiter)
        solver.momentum = solver.integrator.momentum = ref
        ref_counts, ref_v = _iterations_per_solve(solver, 20)
    assert len(counts) >= 40  # two RK stages per accepted step
    assert counts == ref_counts
    # Each PCG solution moves within its tolerance with the summation
    # order, and the Sedov blast amplifies that (to ~1e-9 in 20 steps).
    assert np.allclose(v, ref_v, rtol=0, atol=1e-8 * np.abs(ref_v).max())
