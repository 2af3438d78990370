"""Tests for mass matrix assembly."""

import numpy as np
import pytest

from repro.fem.assembly import (
    assemble_kinematic_mass,
    assemble_thermodynamic_mass,
    zone_mass_blocks,
)
from repro.fem.geometry import GeometryEvaluator
from repro.fem.mesh import cartesian_mesh_2d, cartesian_mesh_3d
from repro.fem.quadrature import tensor_quadrature
from repro.fem.spaces import H1Space, L2Space


def setup(nx=2, ny=2, k=2, rho=1.0, dim=2):
    if dim == 2:
        mesh = cartesian_mesh_2d(nx, ny)
    else:
        mesh = cartesian_mesh_3d(nx, ny, ny)
    h1 = H1Space(mesh, k)
    l2 = L2Space(mesh, k - 1)
    quad = tensor_quadrature(dim, 2 * k)
    geo = GeometryEvaluator(h1, quad).evaluate(h1.node_coords)
    rho_qp = np.full((mesh.nzones, quad.nqp), rho)
    return mesh, h1, l2, quad, geo, rho_qp


class TestKinematicMass:
    def test_total_mass(self):
        mesh, h1, _, quad, geo, rho = setup(rho=3.0)
        m = assemble_kinematic_mass(h1, quad, rho, geo)
        # 1^T M 1 = integral of rho over the domain = 3.
        ones = np.ones(h1.ndof)
        assert ones @ m.matvec(ones) == pytest.approx(3.0, rel=1e-12)

    def test_symmetric(self):
        _, h1, _, quad, geo, rho = setup()
        m = assemble_kinematic_mass(h1, quad, rho, geo)
        assert m.is_symmetric(tol=1e-10)

    def test_spd_diagonal_positive(self):
        _, h1, _, quad, geo, rho = setup(k=3)
        m = assemble_kinematic_mass(h1, quad, rho, geo)
        assert np.all(m.diagonal() > 0)

    def test_sparsity(self):
        """Mass couples only dofs sharing a zone: global matrix is sparse."""
        _, h1, _, quad, geo, rho = setup(nx=4, ny=4, k=2)
        m = assemble_kinematic_mass(h1, quad, rho, geo)
        assert m.nnz < 0.3 * h1.ndof**2

    def test_variable_density(self):
        mesh, h1, _, quad, geo, _ = setup()
        rho = np.ones((mesh.nzones, quad.nqp))
        rho[0] = 10.0  # heavy zone
        m = assemble_kinematic_mass(h1, quad, rho, geo)
        ones = np.ones(h1.ndof)
        expect = 1.0 + 9.0 * 0.25  # 1 + extra mass in zone of volume 1/4
        assert ones @ m.matvec(ones) == pytest.approx(expect, rel=1e-12)

    def test_3d_total_mass(self):
        _, h1, _, quad, geo, rho = setup(dim=3, nx=2, ny=2, k=1, rho=2.0)
        m = assemble_kinematic_mass(h1, quad, rho, geo)
        ones = np.ones(h1.ndof)
        assert ones @ m.matvec(ones) == pytest.approx(2.0, rel=1e-12)


class TestThermodynamicMass:
    def test_total_mass(self):
        _, _, l2, quad, geo, rho = setup(rho=2.0)
        # rebuild with matching spaces
        mesh, h1, l2, quad, geo, rho = setup(rho=2.0)
        m = assemble_thermodynamic_mass(l2, quad, rho, geo)
        ones = np.ones(l2.ndof)
        assert np.sum(m.matvec(ones)) == pytest.approx(2.0, rel=1e-12)

    def test_block_structure(self):
        mesh, _, l2, quad, geo, rho = setup()
        m = assemble_thermodynamic_mass(l2, quad, rho, geo)
        assert m.nblocks == mesh.nzones
        assert m.block_size == l2.ndof_per_zone

    def test_solve_inverts(self, rng):
        _, _, l2, quad, geo, rho = setup(k=3)
        mesh, h1, l2, quad, geo, rho = setup(k=3)
        m = assemble_thermodynamic_mass(l2, quad, rho, geo)
        b = rng.standard_normal(l2.ndof)
        x = m.solve(b)
        assert np.allclose(m.matvec(x), b, atol=1e-10)

    def test_symmetric(self):
        mesh, h1, l2, quad, geo, rho = setup()
        m = assemble_thermodynamic_mass(l2, quad, rho, geo)
        assert m.is_symmetric()


class TestZoneBlocks:
    def test_partition_of_unity_row_sums(self):
        """Row sums of each block integrate rho * basis_i over the zone."""
        mesh, h1, _, quad, geo, rho = setup(nx=1, ny=1, k=1)
        basis = h1.element.tabulate(quad.points)
        blocks = zone_mass_blocks(basis, quad, rho, geo.det)
        # Sum of all entries = zone mass = 1 (unit square, rho=1).
        assert blocks.sum() == pytest.approx(1.0, rel=1e-13)
        # Q1 on the reference square: classic bilinear mass matrix has
        # diagonal 1/9 (scaled by zone volume 1).
        assert np.allclose(np.diag(blocks[0]), 1.0 / 9.0)
