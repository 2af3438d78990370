"""Property-based tests of hydro-core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fem.geometry import GeometryEvaluator
from repro.fem.mesh import cartesian_mesh_2d
from repro.fem.quadrature import tensor_quadrature
from repro.fem.spaces import H1Space, L2Space
from repro.hydro.corner_force import ForceEngine
from repro.hydro.eos import GammaLawEOS
from repro.hydro.state import HydroState
from repro.hydro.viscosity import ViscosityCoefficients


def make_engine(k=2, n=2, visc=True):
    mesh = cartesian_mesh_2d(n, n)
    h1 = H1Space(mesh, k)
    l2 = L2Space(mesh, k - 1)
    quad = tensor_quadrature(2, 2 * k)
    geo0 = GeometryEvaluator(h1, quad).evaluate(h1.node_coords)
    rho0 = np.ones((mesh.nzones, quad.nqp))
    return (
        ForceEngine(h1, l2, quad, GammaLawEOS(), rho0, geo0,
                    viscosity=ViscosityCoefficients(enabled=visc)),
        h1,
        l2,
    )


class TestCornerForceInvariants:
    @given(
        cx=st.floats(-5, 5, allow_nan=False),
        cy=st.floats(-5, 5, allow_nan=False),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=15, deadline=None)
    def test_galilean_invariance(self, cx, cy, seed):
        """Adding a uniform velocity leaves the force matrix unchanged:
        grad(v + c) = grad v, and the EOS sees the same (rho, e)."""
        eng, h1, l2 = make_engine()
        rng = np.random.default_rng(seed)
        v = 0.1 * rng.standard_normal((h1.ndof, 2))
        e = rng.random(l2.ndof) + 0.5
        s1 = HydroState(v, e, h1.node_coords.copy(), 0.0)
        s2 = HydroState(v + np.array([cx, cy]), e, h1.node_coords.copy(), 0.0)
        f1 = eng.compute(s1).Fz
        f2 = eng.compute(s2).Fz
        assert np.allclose(f1, f2, atol=1e-10 * max(1.0, abs(cx) + abs(cy)))

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_energy_exchange_identity(self, seed):
        """1^T F^T v == v . (F 1) for arbitrary admissible states —
        the discrete work identity conservation rests on."""
        eng, h1, l2 = make_engine()
        rng = np.random.default_rng(seed)
        state = HydroState(
            0.2 * rng.standard_normal((h1.ndof, 2)),
            rng.random(l2.ndof) + 0.1,
            h1.node_coords + 0.01 * rng.standard_normal((h1.ndof, 2)),
            0.0,
        )
        res = eng.compute(state)
        if not res.valid:
            return  # the random perturbation tangled the mesh; vacuous
        rhs_v = h1.scatter_add(eng.force_times_one(res.Fz))
        dedt = eng.force_transpose_times_v(res.Fz, state.v)
        assert float(np.sum(dedt)) == pytest.approx(
            -float(np.sum(rhs_v * state.v)), rel=1e-11, abs=1e-12
        )

    @given(scale=st.floats(0.5, 2.0), seed=st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_pressure_force_scales_linearly_with_energy(self, scale, seed):
        """Without viscosity and with v=0, F is linear in e (gamma law)."""
        eng, h1, l2 = make_engine(visc=False)
        rng = np.random.default_rng(seed)
        e = rng.random(l2.ndof) + 0.5
        x = h1.node_coords.copy()
        zero_v = np.zeros((h1.ndof, 2))
        f1 = eng.compute(HydroState(zero_v, e, x, 0.0)).Fz
        f2 = eng.compute(HydroState(zero_v, scale * e, x, 0.0)).Fz
        assert np.allclose(f2, scale * f1, rtol=1e-10, atol=1e-13)

    def test_mirror_symmetry(self):
        """A y-mirrored state produces the y-mirrored force."""
        eng, h1, l2 = make_engine(k=1, n=2, visc=False)
        rng = np.random.default_rng(7)
        e = rng.random(l2.ndof) + 0.5
        x = h1.node_coords
        zero_v = np.zeros((h1.ndof, 2))
        res = eng.compute(HydroState(zero_v, e, x.copy(), 0.0))
        rhs = h1.scatter_add(eng.force_times_one(res.Fz))

        # Mirror: x -> (x0, 1 - x1). Find the dof and zone permutations.
        mirrored = np.column_stack([x[:, 0], 1.0 - x[:, 1]])
        perm = np.array([
            int(np.argmin(np.linalg.norm(x - m, axis=1))) for m in mirrored
        ])
        centroids = eng.geom_eval.physical_points(x).mean(axis=1)
        m_centroids = np.column_stack([centroids[:, 0], 1.0 - centroids[:, 1]])
        zperm = np.array([
            int(np.argmin(np.linalg.norm(centroids - mc, axis=1)))
            for mc in m_centroids
        ])
        ez = l2.gather(e)
        e_mirror = l2.scatter(ez[zperm][:, ::1])  # Q0: one dof per zone
        res_m = eng.compute(HydroState(zero_v, e_mirror, x.copy(), 0.0))
        rhs_m = h1.scatter_add(eng.force_times_one(res_m.Fz))
        # Forces mirror: x-component maps directly, y-component negates.
        assert np.allclose(rhs_m[perm, 0], rhs[:, 0], atol=1e-12)
        assert np.allclose(rhs_m[perm, 1], -rhs[:, 1], atol=1e-12)


class TestStateProperties:
    def test_copy_is_deep(self):
        s = HydroState(np.zeros((2, 2)), np.zeros(3), np.zeros((2, 2)))
        c = s.copy()
        c.v[0, 0] = 5.0
        assert s.v[0, 0] == 0.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            HydroState(np.zeros((2, 2)), np.zeros(3), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            HydroState(np.zeros((2, 2)), np.zeros((3, 1)), np.zeros((2, 2)))


class TestDeterminism:
    def test_runs_are_reproducible(self):
        """Two identical solver runs produce bit-identical states."""
        from repro import LagrangianHydroSolver, SedovProblem

        def one():
            p = SedovProblem(dim=2, order=2, zones_per_dim=3)
            s = LagrangianHydroSolver(p)
            s.run(t_final=0.03)
            return s.state

        a, b = one(), one()
        assert np.array_equal(a.v, b.v)
        assert np.array_equal(a.e, b.e)
        assert np.array_equal(a.x, b.x)
