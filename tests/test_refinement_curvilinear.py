"""Tests for curvilinear mesh transformations."""

import numpy as np
import pytest

from repro.fem.curvilinear import (
    annulus_mesh_2d,
    sinusoid,
    stretch,
    twist_2d,
    validate_positive_jacobians,
)
from repro.fem.geometry import GeometryEvaluator
from repro.fem.mesh import cartesian_mesh_2d, cartesian_mesh_3d
from repro.fem.quadrature import tensor_quadrature
from repro.fem.spaces import H1Space


class TestCurvilinear:
    def test_twist_preserves_volume(self):
        m = cartesian_mesh_2d(4, 4).transform(twist_2d(0.3))
        sp = H1Space(m, 3)
        quad = tensor_quadrature(2, 6)
        vols = GeometryEvaluator(sp, quad).zone_volumes(sp.node_coords)
        # A rotation field is volume preserving up to the polynomial
        # representation of the curved edges.
        assert vols.sum() == pytest.approx(1.0, rel=1e-3)
        assert validate_positive_jacobians(m, order=3)

    def test_sinusoid_valid_at_moderate_amplitude(self):
        m = cartesian_mesh_2d(4, 4).transform(sinusoid(0.05))
        assert validate_positive_jacobians(m, order=2)

    def test_sinusoid_3d(self):
        m = cartesian_mesh_3d(3, 3, 3).transform(sinusoid(0.03))
        assert validate_positive_jacobians(m, order=2)

    def test_extreme_sinusoid_tangles(self):
        m = cartesian_mesh_2d(4, 4).transform(sinusoid(0.6))
        assert not validate_positive_jacobians(m, order=2)

    def test_stretch(self):
        m = cartesian_mesh_2d(2, 2).transform(stretch([2.0, 3.0]))
        assert m.verts[:, 0].max() == pytest.approx(2.0)
        assert m.verts[:, 1].max() == pytest.approx(3.0)

    def test_stretch_validation(self):
        with pytest.raises(ValueError):
            stretch([1.0, -1.0])
        with pytest.raises(ValueError):
            stretch([1.0])(np.zeros((3, 2)))

    def test_annulus(self):
        m = annulus_mesh_2d(3, 6)
        assert m.nzones == 18
        assert validate_positive_jacobians(m, order=2)
        r = np.linalg.norm(m.verts, axis=1)
        assert r.min() == pytest.approx(0.5, rel=1e-12)
        assert r.max() == pytest.approx(1.0, rel=1e-12)

    def test_annulus_area_vertex_geometry(self):
        """Vertex-level polar mesh: area converges at the polygonal rate
        (sub-percent on this grid)."""
        m = annulus_mesh_2d(4, 8, r_inner=0.5, r_outer=1.0, angle=np.pi / 2)
        sp = H1Space(m, 4)
        quad = tensor_quadrature(2, 8)
        area = GeometryEvaluator(sp, quad).zone_volumes(sp.node_coords).sum()
        exact = (np.pi / 4) * (1.0 - 0.25)
        assert area == pytest.approx(exact, rel=1e-2)

    def test_annulus_area_isoparametric(self):
        """Curving the high-order nodes (apply_to_space) makes the same
        area integral accurate to near roundoff-of-quadrature levels."""
        from repro.fem.curvilinear import apply_to_space

        base = cartesian_mesh_2d(4, 8, extent=((0.5, 1.0), (0.0, np.pi / 2)))
        sp = H1Space(base, 4)
        apply_to_space(
            sp,
            lambda v: np.column_stack([v[:, 0] * np.cos(v[:, 1]), v[:, 0] * np.sin(v[:, 1])]),
        )
        quad = tensor_quadrature(2, 8)
        area = GeometryEvaluator(sp, quad).zone_volumes(sp.node_coords).sum()
        exact = (np.pi / 4) * (1.0 - 0.25)
        assert area == pytest.approx(exact, rel=1e-8)

    def test_apply_to_space_rejects_tangling(self):
        from repro.fem.curvilinear import apply_to_space

        sp = H1Space(cartesian_mesh_2d(2, 2), 2)
        with pytest.raises(ValueError):
            apply_to_space(sp, lambda v: 0.0 * v)

    def test_annulus_validation(self):
        with pytest.raises(ValueError):
            annulus_mesh_2d(0, 4)
        with pytest.raises(ValueError):
            annulus_mesh_2d(2, 2, r_inner=1.0, r_outer=0.5)
        with pytest.raises(ValueError):
            annulus_mesh_2d(2, 2, angle=0.0)

    def test_twist_requires_2d(self):
        with pytest.raises(ValueError):
            twist_2d()(np.zeros((4, 3)))

    def test_solver_on_curved_mesh(self):
        """The hydro solver runs on a genuinely curvilinear mesh."""
        from repro import LagrangianHydroSolver
        from repro.problems.base import Problem

        mesh = cartesian_mesh_2d(3, 3).transform(sinusoid(0.04))

        class Quiet(Problem):
            def e0(self, pts):
                return np.ones(pts.shape[0])

        solver = LagrangianHydroSolver(Quiet(mesh, 2))
        res = solver.run(t_final=0.02)
        assert res.reached_t_final
        assert abs(res.energy_change) / res.energy_history[0].total < 1e-12
