"""Tests for 1D polynomial machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fem.polynomials import (
    LagrangeBasis1D,
    gauss_legendre,
    gauss_lobatto_points,
    legendre,
    legendre_deriv,
)


class TestLegendre:
    def test_low_orders_explicit(self):
        x = np.linspace(-1, 1, 11)
        assert np.allclose(legendre(0, x), 1.0)
        assert np.allclose(legendre(1, x), x)
        assert np.allclose(legendre(2, x), 0.5 * (3 * x**2 - 1))
        assert np.allclose(legendre(3, x), 0.5 * (5 * x**3 - 3 * x))

    def test_endpoint_values(self):
        for n in range(10):
            assert legendre(n, np.array([1.0]))[0] == pytest.approx(1.0)
            assert legendre(n, np.array([-1.0]))[0] == pytest.approx((-1.0) ** n)

    def test_deriv_matches_numeric(self):
        x = np.linspace(-0.95, 0.95, 17)
        h = 1e-6
        for n in range(1, 8):
            numeric = (legendre(n, x + h) - legendre(n, x - h)) / (2 * h)
            assert np.allclose(legendre_deriv(n, x), numeric, atol=1e-6)

    def test_deriv_endpoints(self):
        for n in range(1, 8):
            expect = n * (n + 1) / 2
            assert legendre_deriv(n, np.array([1.0]))[0] == pytest.approx(expect)
            assert legendre_deriv(n, np.array([-1.0]))[0] == pytest.approx(
                expect * (-1.0) ** (n - 1)
            )

    def test_orthogonality(self):
        x, w = gauss_legendre(20)
        # map back to [-1, 1]
        xm = 2 * x - 1
        wm = 2 * w
        for m in range(6):
            for n in range(6):
                integral = np.sum(wm * legendre(m, xm) * legendre(n, xm))
                expect = 2.0 / (2 * n + 1) if m == n else 0.0
                assert integral == pytest.approx(expect, abs=1e-13)


class TestGaussLegendre:
    @pytest.mark.parametrize("npts", [1, 2, 3, 5, 8, 16, 32])
    def test_weights_sum_to_one(self, npts):
        x, w = gauss_legendre(npts)
        assert w.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all((x > 0) & (x < 1))
        assert np.all(np.diff(x) > 0)

    @pytest.mark.parametrize("npts", [1, 2, 3, 4, 6])
    def test_exact_for_polynomials(self, npts):
        """n-point Gauss integrates degree 2n-1 exactly on [0, 1]."""
        x, w = gauss_legendre(npts)
        for deg in range(2 * npts):
            assert np.sum(w * x**deg) == pytest.approx(1.0 / (deg + 1), rel=1e-13)

    def test_rejects_zero_points(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)

    def test_symmetry(self):
        x, w = gauss_legendre(7)
        assert np.allclose(x + x[::-1], 1.0)
        assert np.allclose(w, w[::-1])


class TestLobatto:
    @pytest.mark.parametrize("npts", [2, 3, 4, 5, 9])
    def test_endpoints_included(self, npts):
        pts = gauss_lobatto_points(npts)
        assert pts[0] == pytest.approx(0.0, abs=1e-15)
        assert pts[-1] == pytest.approx(1.0, abs=1e-15)
        assert np.all(np.diff(pts) > 0)
        assert pts.size == npts

    def test_q1_is_endpoints(self):
        assert np.allclose(gauss_lobatto_points(2), [0.0, 1.0])

    def test_q2_has_midpoint(self):
        assert np.allclose(gauss_lobatto_points(3), [0.0, 0.5, 1.0])

    def test_interior_are_legendre_deriv_roots(self):
        pts = gauss_lobatto_points(6)
        interior = 2 * pts[1:-1] - 1
        assert np.allclose(legendre_deriv(5, interior), 0.0, atol=1e-12)

    def test_single_point(self):
        assert np.allclose(gauss_lobatto_points(1), [0.5])


class TestLagrangeBasis:
    def test_kronecker_at_nodes(self):
        b = LagrangeBasis1D.lobatto(4)
        vals = b.eval(b.nodes)
        assert np.allclose(vals, np.eye(5), atol=1e-13)

    def test_partition_of_unity(self):
        b = LagrangeBasis1D.lobatto(5)
        x = np.linspace(0, 1, 33)
        assert np.allclose(b.eval(x).sum(axis=1), 1.0, atol=1e-12)

    def test_derivatives_sum_to_zero(self):
        b = LagrangeBasis1D.lobatto(4)
        x = np.linspace(0, 1, 17)
        assert np.allclose(b.eval_deriv(x).sum(axis=1), 0.0, atol=1e-11)

    @given(deg=st.integers(min_value=1, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_reproduces_polynomials(self, deg):
        """Order-k basis interpolates degree <= k polynomials exactly."""
        b = LagrangeBasis1D.lobatto(6)
        coeffs = np.arange(1.0, deg + 2)
        f = lambda x: sum(c * x**i for i, c in enumerate(coeffs))
        x = np.linspace(0, 1, 13)
        interp = b.interpolate(f(b.nodes), x)
        assert np.allclose(interp, f(x), atol=1e-11)

    def test_deriv_of_linear(self):
        b = LagrangeBasis1D.lobatto(3)
        x = np.linspace(0, 1, 9)
        nodal = 2.0 * b.nodes + 1.0
        deriv = b.eval_deriv(x) @ nodal
        assert np.allclose(deriv, 2.0, atol=1e-12)

    def test_diff_matrix_consistency(self):
        b = LagrangeBasis1D.lobatto(4)
        D = b.diff_matrix()
        vals = b.eval_deriv(b.nodes)
        assert np.allclose(D, vals, atol=1e-12)

    def test_q0_constant(self):
        b = LagrangeBasis1D.lobatto(0)
        x = np.linspace(0, 1, 5)
        assert np.allclose(b.eval(x), 1.0)
        assert np.allclose(b.eval_deriv(x), 0.0)

    def test_rejects_unsorted_nodes(self):
        with pytest.raises(ValueError):
            LagrangeBasis1D(np.array([0.5, 0.2]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LagrangeBasis1D(np.array([]))
