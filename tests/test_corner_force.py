"""Tests for the corner-force engine.

The central validation mirrors the paper's Section 4.1: the redesigned
batched formulation must agree with the loop-based reference formulation
to roundoff.
"""

import numpy as np
import pytest

from repro.fem.geometry import GeometryEvaluator
from repro.fem.mesh import cartesian_mesh_2d, cartesian_mesh_3d
from repro.fem.quadrature import tensor_quadrature
from repro.fem.spaces import H1Space, L2Space
from repro.hydro.corner_force import ForceEngine, corner_force_loops
from repro.hydro.eos import GammaLawEOS
from repro.hydro.state import HydroState
from repro.hydro.viscosity import ViscosityCoefficients


def make_engine(dim=2, k=2, nzones=2, gamma=1.4, visc=True):
    if dim == 2:
        mesh = cartesian_mesh_2d(nzones, nzones)
    else:
        mesh = cartesian_mesh_3d(nzones, nzones, nzones)
    h1 = H1Space(mesh, k)
    l2 = L2Space(mesh, k - 1)
    quad = tensor_quadrature(dim, 2 * k)
    geo0 = GeometryEvaluator(h1, quad).evaluate(h1.node_coords)
    rho0 = np.ones((mesh.nzones, quad.nqp))
    eng = ForceEngine(
        h1, l2, quad, GammaLawEOS(gamma=gamma), rho0, geo0,
        viscosity=ViscosityCoefficients(enabled=visc),
    )
    return eng, h1, l2


def random_state(eng, h1, l2, rng, v_scale=0.1, perturb_x=0.0):
    v = v_scale * rng.standard_normal((h1.ndof, h1.dim))
    e = rng.random(l2.ndof) + 0.5
    x = h1.node_coords + perturb_x * rng.standard_normal((h1.ndof, h1.dim))
    return HydroState(v, e, x, 0.0)


class TestBatchedVsLoops:
    """The paper's CPU/GPU consistency check (Table 6 analog)."""

    @pytest.mark.parametrize("dim,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_agreement(self, rng, dim, k):
        eng, h1, l2 = make_engine(dim=dim, k=k, nzones=2)
        state = random_state(eng, h1, l2, rng, perturb_x=0.01)
        batched = eng.compute(state).Fz
        loops = corner_force_loops(eng, state)
        assert np.allclose(batched, loops, rtol=1e-12, atol=1e-13)

    def test_agreement_no_viscosity(self, rng):
        eng, h1, l2 = make_engine(visc=False)
        state = random_state(eng, h1, l2, rng, perturb_x=0.02)
        assert np.allclose(eng.compute(state).Fz, corner_force_loops(eng, state), rtol=1e-12)

    def test_agreement_per_zone_gamma(self, rng):
        eng, h1, l2 = make_engine()
        nz = eng.kinematic.mesh.nzones
        gammas = 1.3 + 0.3 * rng.random(nz)
        eng.eos = GammaLawEOS(gamma=gammas[:, None])
        state = random_state(eng, h1, l2, rng)
        assert np.allclose(eng.compute(state).Fz, corner_force_loops(eng, state), rtol=1e-12)


class TestForceStructure:
    def test_fz_shape_paper_3d_q2q1(self):
        """3D Q2-Q1: Fz rows = 81 vector dofs, cols = 8 (Table 4)."""
        eng, h1, l2 = make_engine(dim=3, k=2, nzones=1)
        state = HydroState(
            np.zeros((h1.ndof, 3)), np.ones(l2.ndof), h1.node_coords, 0.0
        )
        res = eng.compute(state)
        assert res.Fz.shape == (1, 27, 3, 8)  # (i*d) x j = 81 x 8

    def test_uniform_pressure_zero_net_force_interior(self, rng):
        """Constant pressure: F.1 assembles to zero on interior dofs
        (discrete divergence of a constant field)."""
        eng, h1, l2 = make_engine(dim=2, k=2, nzones=3, visc=False)
        e = np.ones(l2.ndof)
        state = HydroState(np.zeros((h1.ndof, 2)), e, h1.node_coords, 0.0)
        res = eng.compute(state)
        rhs = h1.scatter_add(eng.force_times_one(res.Fz))
        boundary = set(h1.boundary_dofs())
        interior = [i for i in range(h1.ndof) if i not in boundary]
        assert np.allclose(rhs[interior], 0.0, atol=1e-12)

    def test_force_pushes_outward_from_hot_zone(self):
        """Pressure in one zone accelerates its neighborhood outward."""
        eng, h1, l2 = make_engine(dim=2, k=1, nzones=2, visc=False)
        e = np.zeros(l2.ndof)
        ez = l2.gather(e)
        ez[0, :] = 10.0  # zone 0 is at the origin corner
        state = HydroState(np.zeros((h1.ndof, 2)), l2.scatter(ez), h1.node_coords, 0.0)
        res = eng.compute(state)
        rhs = h1.scatter_add(eng.force_times_one(res.Fz))
        # The dof diagonally opposite the origin inside zone 0 (0.5, 0.5)
        center = np.argmin(np.linalg.norm(h1.node_coords - 0.5, axis=1))
        assert rhs[center, 0] > 0
        assert rhs[center, 1] > 0

    def test_energy_identity(self, rng):
        """1^T F^T v == v . (F 1): the discrete conservation mechanism."""
        eng, h1, l2 = make_engine(dim=2, k=2)
        state = random_state(eng, h1, l2, rng, perturb_x=0.01)
        res = eng.compute(state)
        rhs_v = h1.scatter_add(eng.force_times_one(res.Fz))  # -F.1
        dedt = eng.force_transpose_times_v(res.Fz, state.v)  # F^T v per dof
        lhs = float(np.sum(dedt))
        rhs = -float(np.sum(rhs_v * state.v))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)

    def test_invalid_geometry_flagged(self):
        eng, h1, l2 = make_engine(dim=2, k=1, nzones=1)
        x = h1.node_coords.copy()
        x[0] = [5.0, 5.0]  # tangle the single zone
        state = HydroState(np.zeros((h1.ndof, 2)), np.ones(l2.ndof), x, 0.0)
        res = eng.compute(state)
        assert not res.valid
        assert res.dt_est == 0.0

    def test_dt_estimate_positive_and_scales(self):
        eng, h1, l2 = make_engine(dim=2, k=2, nzones=2)
        state = HydroState(np.zeros((h1.ndof, 2)), np.ones(l2.ndof), h1.node_coords, 0.0)
        res = eng.compute(state)
        assert res.dt_est > 0
        # Doubling energy raises sound speed, shrinking dt.
        state2 = HydroState(state.v, 4.0 * state.e, state.x, 0.0)
        res2 = eng.compute(state2)
        assert res2.dt_est == pytest.approx(res.dt_est / 2.0, rel=1e-10)

    def test_density_from_mass_conservation(self):
        """Compressing the mesh uniformly doubles the density."""
        eng, h1, l2 = make_engine(dim=2, k=1, nzones=2)
        state = HydroState(np.zeros((h1.ndof, 2)), np.ones(l2.ndof), 0.5 * h1.node_coords, 0.0)
        rho = eng.compute(state).points.rho
        assert np.allclose(rho, 4.0)  # area scales by 1/4 in 2D

    def test_rho0_shape_validation(self):
        mesh = cartesian_mesh_2d(1, 1)
        h1 = H1Space(mesh, 1)
        l2 = L2Space(mesh, 0)
        quad = tensor_quadrature(2, 2)
        geo0 = GeometryEvaluator(h1, quad).evaluate(h1.node_coords)
        with pytest.raises(ValueError):
            ForceEngine(h1, l2, quad, GammaLawEOS(), np.ones((1, 3)), geo0)
