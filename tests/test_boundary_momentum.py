"""Tests for boundary conditions and the momentum solver.

Tests named `test_smoke_*` belong to the fast momentum subset
(`pytest -q tests/test_pcg.py tests/test_boundary_momentum.py
tests/test_mass_action.py -k smoke`).
"""

import numpy as np
import pytest

from repro.api import RunConfig, make_problem
from repro.fem.assembly import MassAction, assemble_kinematic_mass
from repro.fem.geometry import GeometryEvaluator
from repro.fem.mesh import cartesian_mesh_2d
from repro.fem.quadrature import tensor_quadrature
from repro.fem.spaces import H1Space
from repro.hydro.boundary import BoundaryConditions
from repro.hydro.momentum import MomentumSolver
from repro.hydro.solver import LagrangianHydroSolver
from repro.linalg.pcg import pcg


def assembly_inputs(k=2, n=2):
    mesh = cartesian_mesh_2d(n, n)
    sp = H1Space(mesh, k)
    quad = tensor_quadrature(2, 2 * k)
    geo = GeometryEvaluator(sp, quad).evaluate(sp.node_coords)
    rho = np.ones((mesh.nzones, quad.nqp))
    return sp, quad, rho, geo


def mass_and_space(k=2, n=2):
    sp, quad, rho, geo = assembly_inputs(k, n)
    return assemble_kinematic_mass(sp, quad, rho, geo), sp


def momentum_solver(bc=None, **kw):
    """A `MomentumSolver` on the assembled mass and the action built
    from the same inputs; returns (solver, mass, space)."""
    sp, quad, rho, geo = assembly_inputs()
    mass = assemble_kinematic_mass(sp, quad, rho, geo)
    action = MassAction.for_space(sp, quad, rho, geo.det)
    bc = bc(sp) if bc is not None else BoundaryConditions.none(sp)
    return MomentumSolver(mass, action, bc, **kw), mass, sp


class TestBoundaryConditions:
    def test_box_symmetry_counts(self):
        _, sp = mass_and_space(k=2, n=2)
        bc = BoundaryConditions.box_symmetry(sp)
        # 5x5 node grid: 2 faces x 5 nodes per direction, corners carry both.
        assert bc.n_constrained == 2 * (2 * 5)

    def test_none(self):
        _, sp = mass_and_space()
        bc = BoundaryConditions.none(sp)
        assert bc.n_constrained == 0

    def test_apply_to_field(self, rng):
        _, sp = mass_and_space()
        bc = BoundaryConditions.box_symmetry(sp)
        v = rng.standard_normal((sp.ndof, 2))
        bc.apply_to_field(v)
        assert np.allclose(v[bc.mask], 0.0)
        free = ~bc.mask
        assert not np.allclose(v[free], 0.0)

    def test_constrain_component_range(self):
        _, sp = mass_and_space()
        bc = BoundaryConditions.none(sp)
        with pytest.raises(ValueError):
            bc.constrain(np.array([0]), 5)

    def test_eliminated_operator_is_spd(self):
        """The momentum solve's operator, M x masked by a component's
        free dofs, keeps every constrained output zero, and restricted
        to the free dofs it is the eliminated operator: SPD."""
        mass, sp = mass_and_space()
        bc = BoundaryConditions.box_symmetry(sp)
        free = ~bc.component_mask(0)
        dense = np.column_stack(
            [mass.matvec(col) * free for col in np.eye(sp.ndof)[free]]
        )
        assert np.all(dense[~free] == 0.0)
        block = dense[free]
        assert np.allclose(block, block.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(block) > 0)


def eliminated_solve(momentum, rhs):
    """The identity-row elimination the masked solve replaces: per
    component, zero the constrained entries of the operator's input and
    copy them to its output. Returns (accelerations, iterations)."""
    accel, iters = np.zeros_like(rhs), 0
    diag = momentum.mass.diagonal()
    for d in range(rhs.shape[1]):
        c = momentum.bc.component_mask(d)

        def op(x, c=c):
            y = momentum.matvec(np.where(c, 0.0, x))
            y[c] = x[c]
            return y

        res = pcg(op, np.where(c, 0.0, rhs[:, d]), tol=momentum.tol,
                  diag=momentum.bc.eliminated_diagonal(diag, d), maxiter=momentum.maxiter)
        accel[:, d], iters = res.x, iters + res.iterations
    accel[momentum.bc.mask] = 0.0
    return accel, iters


class TestMomentumSolver:
    def test_smoke_masked_solve_matches_elimination(self):
        """On the momentum RHS of a Sedov Q2 run (box-symmetry walls),
        the masked solve returns the elimination's accelerations bit
        for bit, in the same number of iterations."""
        cfg = RunConfig(order=2, zones=8)
        with LagrangianHydroSolver(make_problem("sedov", cfg), cfg) as solver:
            momentum = solver.momentum
            assert momentum.bc.n_constrained > 0
            captured = []
            solve = momentum.solve

            def recording(rhs, x0=None):
                captured.append(np.array(rhs))
                return solve(rhs, x0)

            momentum.solve = recording
            solver.run(t_final=1.0, max_steps=3)
            del momentum.solve
            assert len(captured) == 6  # two RK stages per step
            for rhs in captured:
                accel = momentum.solve(rhs)
                want, iters = eliminated_solve(momentum, rhs)
                assert accel.tobytes() == want.tobytes()
                assert momentum.last_info.iterations == iters > 0

    def test_unconstrained_matches_direct(self, rng):
        solver, mass, sp = momentum_solver(tol=1e-14)
        rhs = rng.standard_normal((sp.ndof, 2))
        a = solver.solve(rhs)
        dense = mass.to_dense()
        expect = np.linalg.solve(dense, rhs)
        assert np.allclose(a, expect, atol=1e-9)
        assert solver.last_info.converged

    def test_constrained_components_zero(self, rng):
        solver, _, sp = momentum_solver(bc=BoundaryConditions.box_symmetry)
        a = solver.solve(rng.standard_normal((sp.ndof, 2)))
        assert np.allclose(a[solver.bc.mask], 0.0)

    def test_constrained_solution_satisfies_free_equations(self, rng):
        solver, mass, sp = momentum_solver(
            bc=BoundaryConditions.box_symmetry, tol=1e-14
        )
        rhs = rng.standard_normal((sp.ndof, 2))
        a = solver.solve(rhs)
        # On free dofs of component d: (M a)_i == rhs_i.
        for d in range(2):
            free = ~solver.bc.component_mask(d)
            resid = mass.matvec(a[:, d]) - rhs[:, d]
            assert np.allclose(resid[free], 0.0, atol=1e-9)

    def test_solve_info_populated(self, rng):
        solver, _, sp = momentum_solver()
        solver.solve(rng.standard_normal((sp.ndof, 2)))
        info = solver.last_info
        assert info.iterations > 0
        assert info.flops > 0
        assert info.spmv_count >= info.iterations

    def test_shape_validation(self, rng):
        solver, _, sp = momentum_solver()
        with pytest.raises(ValueError):
            solver.solve(rng.standard_normal(sp.ndof))

    def test_bc_size_mismatch(self):
        solver, mass, sp = momentum_solver()
        with pytest.raises(ValueError):
            MomentumSolver(mass, solver.action, BoundaryConditions(sp.ndof + 1, 2))

    def test_action_size_mismatch(self):
        _, mass, sp = momentum_solver()
        other, quad, rho, geo = assembly_inputs(k=1)
        with pytest.raises(ValueError, match="mass action"):
            MomentumSolver(mass, MassAction.for_space(other, quad, rho, geo.det),
                           BoundaryConditions.none(sp))
