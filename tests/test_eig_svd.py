"""Tests for closed-form symmetric eigendecomposition and small singular values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.eig import sym_eig_2x2, sym_eig_3x3, sym_eigvals
from repro.linalg.svd_small import batched_singular_values


def random_sym(rng, n, d):
    a = rng.standard_normal((n, d, d))
    return 0.5 * (a + np.swapaxes(a, -1, -2))


class TestSymEig2x2:
    def test_matches_numpy(self, rng):
        a = random_sym(rng, 50, 2)
        w, v = sym_eig_2x2(a)
        w_np, _ = np.linalg.eigh(a)
        assert np.allclose(w, w_np, atol=1e-12)

    def test_eigen_equation(self, rng):
        a = random_sym(rng, 30, 2)
        w, v = sym_eig_2x2(a)
        for k in range(2):
            assert np.allclose(
                np.einsum("bij,bj->bi", a, v[..., k]), w[..., k, None] * v[..., k], atol=1e-11
            )

    def test_orthonormal_vectors(self, rng):
        a = random_sym(rng, 30, 2)
        _, v = sym_eig_2x2(a)
        vtv = np.swapaxes(v, -1, -2) @ v
        assert np.allclose(vtv, np.eye(2), atol=1e-12)

    def test_diagonal_matrix(self):
        a = np.array([[[3.0, 0.0], [0.0, 1.0]]])
        w, v = sym_eig_2x2(a)
        assert np.allclose(w[0], [1.0, 3.0])

    def test_multiple_of_identity(self):
        a = 2.5 * np.broadcast_to(np.eye(2), (3, 2, 2)).copy()
        w, v = sym_eig_2x2(a)
        assert np.allclose(w, 2.5)
        assert np.allclose(np.swapaxes(v, -1, -2) @ v, np.eye(2), atol=1e-13)

    def test_ascending_order(self, rng):
        a = random_sym(rng, 40, 2)
        w, _ = sym_eig_2x2(a)
        assert np.all(np.diff(w, axis=-1) >= -1e-14)


class TestSymEig3x3:
    def test_matches_numpy(self, rng):
        a = random_sym(rng, 60, 3)
        w = sym_eigvals(a)
        w_np = np.linalg.eigvalsh(a)
        assert np.allclose(w, w_np, atol=1e-10)

    def test_eigen_equation(self, rng):
        a = random_sym(rng, 40, 3)
        w, v = sym_eig_3x3(a)
        for k in range(3):
            lhs = np.einsum("bij,bj->bi", a, v[..., k])
            assert np.allclose(lhs, w[..., k, None] * v[..., k], atol=1e-9)

    def test_orthonormal_vectors(self, rng):
        a = random_sym(rng, 40, 3)
        _, v = sym_eig_3x3(a)
        assert np.allclose(np.swapaxes(v, -1, -2) @ v, np.eye(3), atol=1e-10)

    def test_degenerate_pair(self):
        """Repeated eigenvalues route through the LAPACK fallback."""
        a = np.diag([2.0, 2.0, 5.0])[None]
        w, v = sym_eig_3x3(a)
        assert np.allclose(np.sort(w[0]), [2.0, 2.0, 5.0], atol=1e-12)
        assert np.allclose(np.swapaxes(v, -1, -2) @ v, np.eye(3), atol=1e-12)

    def test_identity(self):
        w, v = sym_eig_3x3(np.eye(3)[None])
        assert np.allclose(w, 1.0)
        assert np.allclose(v @ np.swapaxes(v, -1, -2), np.eye(3), atol=1e-13)

    def test_zero_matrix(self):
        w, v = sym_eig_3x3(np.zeros((2, 3, 3)))
        assert np.allclose(w, 0.0)

    def test_nonsymmetric_input_symmetrized(self, rng):
        a = rng.standard_normal((5, 3, 3))
        w, _ = sym_eig_3x3(a)
        sym = 0.5 * (a + np.swapaxes(a, -1, -2))
        assert np.allclose(w, np.linalg.eigvalsh(sym), atol=1e-10)

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_trace_and_det_invariants(self, seed):
        rng = np.random.default_rng(seed)
        a = random_sym(rng, 8, 3)
        w = sym_eigvals(a)
        assert np.allclose(w.sum(axis=-1), np.trace(a, axis1=-2, axis2=-1), atol=1e-9)
        assert np.allclose(np.prod(w, axis=-1), np.linalg.det(a), atol=1e-8)

    def test_near_degenerate_robust(self, rng):
        """Almost-repeated eigenvalues still satisfy the eigen equation."""
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        w_true = np.array([1.0, 1.0 + 1e-9, 2.0])
        a = (q * w_true) @ q.T
        w, v = sym_eig_3x3(a[None])
        assert np.allclose(np.sort(w[0]), w_true, atol=1e-8)
        for k in range(3):
            assert np.allclose(a @ v[0][:, k], w[0, k] * v[0][:, k], atol=1e-7)


class TestSVD:
    @pytest.mark.parametrize("d", [2, 3])
    def test_singular_values_match_numpy(self, rng, d):
        a = rng.standard_normal((40, d, d))
        s = batched_singular_values(a)
        s_np = np.sort(np.linalg.svd(a, compute_uv=False), axis=-1)
        assert np.allclose(s, s_np, atol=1e-9)

    def test_min_singular_value_is_length_scale(self):
        """For a diagonal stretching map, sigma_min is the shortest axis
        — the dt length scale of the corner-force kernel."""
        jac = np.diag([0.5, 2.0, 1.0])[None]
        s = batched_singular_values(jac)
        assert s[0, 0] == pytest.approx(0.5)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            batched_singular_values(np.ones((4, 2, 3)))


def rotation_2d(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)


class TestSingularValueAccuracy:
    """2x2 singular values against LAPACK on Jacobians R(theta) diag(1,
    kappa) R(phi): relative error within 1e-14 / kappa, anisotropic
    (squaring J through J^T J would lose sigma_min there) and
    near-isotropic alike."""

    @pytest.mark.parametrize("kappa", [1e-3, 1e-6, 1.0 - 1e-9, 1.0])
    def test_matches_lapack(self, kappa, rng):
        theta, phi = rng.uniform(0.0, 2.0 * np.pi, (2, 200))
        scale = 10.0 ** rng.uniform(-3.0, 1.0, 200)[:, None, None]
        a = scale * (rotation_2d(theta) @ (np.array([1.0, kappa])[:, None] * rotation_2d(phi)))
        s = batched_singular_values(a)
        ref = np.sort(np.linalg.svd(a, compute_uv=False), axis=-1)
        np.testing.assert_allclose(s, ref, rtol=1e-14 / kappa, atol=0.0)

    def test_zero_and_rank_one(self):
        a = np.array([np.zeros((2, 2)), [[1.0, 0.0], [0.0, 0.0]]])
        np.testing.assert_array_equal(batched_singular_values(a), [[0.0, 0.0], [0.0, 1.0]])
