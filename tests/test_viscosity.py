"""Tests for the tensor artificial viscosity."""

import numpy as np
import pytest

from repro.fem.geometry import GeometryAtPoints
from repro.hydro.viscosity import (
    ViscosityCoefficients,
    ViscosityKernel,
    directional_length,
    tensor_viscosity,
)
from repro.hydro.workspace import Workspace

PARITY = dict(rtol=1e-13, atol=1e-14)


def uniform_jac(n, h, dim):
    return np.broadcast_to(h * np.eye(dim), (n, dim, dim)).copy()


class TestDirectionalLength:
    def test_isotropic_jacobian(self):
        jac = uniform_jac(4, 0.25, 2)
        dirs = np.broadcast_to(np.eye(2), (4, 2, 2)).copy()
        lengths = directional_length(jac, dirs, order=2)
        assert np.allclose(lengths, 0.25 / 2)

    def test_anisotropic_jacobian(self):
        jac = np.diag([0.5, 0.125])[None]
        dirs = np.eye(2)[None]
        lengths = directional_length(jac, dirs, order=1)
        assert np.allclose(lengths[0], [0.5, 0.125])

    def test_rotated_direction(self):
        """Length along a diagonal of a unit-square zone is sqrt(2)/2 *
        correction — verified against direct computation."""
        jac = np.eye(2)[None]
        d = np.array([[1, 0], [0, 1.0]])  # columns are directions
        lengths = directional_length(jac, d[None], order=1)
        assert np.allclose(lengths, 1.0)


class TestTensorViscosity:
    def test_disabled_returns_zero(self):
        gv = np.random.default_rng(0).standard_normal((5, 2, 2))
        jac = uniform_jac(5, 0.1, 2)
        sigma, mu = tensor_viscosity(
            gv, jac, np.ones(5), np.ones(5), 2, ViscosityCoefficients(enabled=False)
        )
        assert np.allclose(sigma, 0.0)
        assert np.allclose(mu, 0.0)

    def test_pure_expansion_no_viscosity(self):
        """Uniform expansion (positive eigenvalues) triggers nothing."""
        gv = np.broadcast_to(0.5 * np.eye(2), (3, 2, 2)).copy()
        jac = uniform_jac(3, 0.25, 2)
        sigma, mu = tensor_viscosity(
            gv, jac, np.ones(3), np.ones(3), 2, ViscosityCoefficients()
        )
        assert np.allclose(sigma, 0.0)
        assert np.allclose(mu, 0.0)

    def test_uniform_compression_isotropic_stress(self):
        gv = np.broadcast_to(-1.0 * np.eye(2), (2, 2, 2)).copy()
        jac = uniform_jac(2, 0.25, 2)
        coeffs = ViscosityCoefficients(q1=0.5, q2=2.0)
        sigma, mu = tensor_viscosity(gv, jac, np.ones(2), np.ones(2), 1, coeffs)
        # lambda = -1 in both directions; l = 0.25
        l = 0.25
        mu_expect = 1.0 * (2.0 * l * l * 1.0 + 0.5 * l * 1.0)
        assert np.allclose(mu, mu_expect)
        # sigma = mu * lambda * I
        assert np.allclose(sigma, -mu_expect * np.eye(2), atol=1e-12)

    def test_directional_compression(self):
        """1D compression only produces stress along that direction."""
        gv = np.zeros((1, 2, 2))
        gv[0, 0, 0] = -2.0  # compress in x only
        jac = uniform_jac(1, 0.5, 2)
        sigma, _ = tensor_viscosity(
            gv, jac, np.ones(1), np.zeros(1), 1, ViscosityCoefficients(q1=0.0, q2=1.0)
        )
        assert sigma[0, 0, 0] < 0.0
        assert sigma[0, 1, 1] == pytest.approx(0.0, abs=1e-14)
        assert sigma[0, 0, 1] == pytest.approx(0.0, abs=1e-14)

    def test_symmetry_of_stress(self, rng):
        gv = rng.standard_normal((10, 3, 3))
        jac = uniform_jac(10, 0.3, 3)
        sigma, _ = tensor_viscosity(
            gv, jac, np.ones(10), np.ones(10), 2, ViscosityCoefficients()
        )
        assert np.allclose(sigma, np.swapaxes(sigma, -1, -2), atol=1e-12)

    def test_shear_no_normal_viscosity_when_traceless(self, rng):
        """Pure rotation (antisymmetric grad v) has zero strain -> zero."""
        omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
        sigma, mu = tensor_viscosity(
            omega[None], uniform_jac(1, 0.25, 2), np.ones(1), np.ones(1), 1,
            ViscosityCoefficients(),
        )
        assert np.allclose(sigma, 0.0, atol=1e-12)
        assert np.allclose(mu, 0.0, atol=1e-14)

    def test_scales_with_density(self, rng):
        gv = np.broadcast_to(-np.eye(2), (2, 2, 2)).copy()
        jac = uniform_jac(2, 0.25, 2)
        rho = np.array([1.0, 4.0])
        _, mu = tensor_viscosity(gv, jac, rho, np.ones(2), 1, ViscosityCoefficients())
        assert mu[1] == pytest.approx(4.0 * mu[0])

    def test_3d_uniform_compression(self):
        gv = np.broadcast_to(-np.eye(3), (1, 3, 3)).copy()
        jac = uniform_jac(1, 0.2, 3)
        sigma, mu = tensor_viscosity(
            gv, jac, np.ones(1), np.ones(1), 1, ViscosityCoefficients()
        )
        assert np.allclose(sigma[0], sigma[0, 0, 0] * np.eye(3), atol=1e-12)
        assert sigma[0, 0, 0] < 0

    def test_rejects_negative_coeffs(self):
        with pytest.raises(ValueError):
            ViscosityCoefficients(q1=-1.0)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            tensor_viscosity(
                np.zeros((1, 1, 1)), np.ones((1, 1, 1)), np.ones(1), np.ones(1), 1,
                ViscosityCoefficients(),
            )


def rotation(dim, rng):
    """A random proper rotation (QR of a Gaussian, det fixed to +1)."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class TestKernelDegeneratePoints:
    """`ViscosityKernel` against `tensor_viscosity` where the eigenpairs
    of eps(v) degenerate: a zero gradient, a pure rotation (eps = 0),
    isotropic compression -cI (any basis is an eigenbasis, and the
    anisotropic Jacobians make the directional lengths depend on the
    one chosen) and isotropic expansion, next to pure and simple shear
    and axis-aligned compressions."""

    @staticmethod
    def gradients(dim):
        rot = np.zeros((dim, dim))
        rot[0, 1], rot[1, 0] = -0.7, 0.7
        shear = np.zeros((dim, dim))
        shear[0, 1] = shear[1, 0] = 0.4
        simple = np.zeros((dim, dim))
        simple[0, 1] = 0.9
        axial = np.diag([-0.2, -1.3, -0.5][:dim])  # eps diagonal: one
        # eigenvector candidate of sym_eig_2x2 vanishes exactly
        return np.stack([
            np.zeros((dim, dim)), rot, -1.3 * np.eye(dim), 0.6 * np.eye(dim),
            shear, simple, axial, axial[::-1, ::-1],
        ])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_reference_at_degenerate_points(self, dim, rng):
        grads = self.gradients(dim)
        stretch = np.diag([1.0, 0.2, 0.05][:dim])
        jacs = [0.1 * np.eye(dim), 0.1 * stretch] + [
            0.1 * rotation(dim, rng) @ stretch @ rotation(dim, rng) for _ in range(6)
        ]
        shape = (len(grads), len(jacs))
        grad_v = np.broadcast_to(grads[:, None], shape + (dim, dim)).copy()
        jac = np.broadcast_to(np.stack(jacs)[None], shape + (dim, dim)).copy()
        rho = rng.random(shape) + 0.5
        cs = rng.random(shape) + 0.5
        coeffs = ViscosityCoefficients()
        sigma, mu_max = ViscosityKernel(coeffs, 2).compute(
            grad_v, GeometryAtPoints(jac), rho, cs, Workspace()
        )
        ref_sigma, ref_mu = tensor_viscosity(grad_v, jac, rho, cs, 2, coeffs)
        np.testing.assert_allclose(sigma, ref_sigma, **PARITY)
        np.testing.assert_allclose(mu_max, ref_mu, **PARITY)
        # Only the compressions and the shears carry viscosity.
        assert np.all(mu_max[[0, 1, 3]] == 0.0)
        assert np.all(mu_max[[2, 4, 5, 6, 7]] > 0.0)
