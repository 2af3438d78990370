"""Tests for batched small-matrix determinant/adjugate/inverse."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.smallmat import (
    batched_adjugate,
    batched_det,
    batched_inverse,
)


class TestDet:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_numpy(self, rng, d):
        a = rng.standard_normal((20, d, d))
        assert np.allclose(batched_det(a), np.linalg.det(a), atol=1e-12)

    def test_identity(self):
        a = np.broadcast_to(np.eye(3), (5, 3, 3)).copy()
        assert np.allclose(batched_det(a), 1.0)

    def test_multi_batch_axes(self, rng):
        a = rng.standard_normal((4, 6, 2, 2))
        assert np.allclose(batched_det(a), np.linalg.det(a))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            batched_det(np.ones((3, 2, 3)))
        with pytest.raises(ValueError):
            batched_det(np.ones((3, 4, 4)))


class TestAdjugate:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_adjugate_identity_property(self, rng, d):
        """adj(A) @ A = det(A) I, even for singular A."""
        a = rng.standard_normal((25, d, d))
        adj = batched_adjugate(a)
        det = batched_det(a)
        prod = adj @ a
        expect = det[:, None, None] * np.eye(d)
        assert np.allclose(prod, expect, atol=1e-12)

    def test_singular_matrix(self):
        a = np.array([[[1.0, 2.0], [2.0, 4.0]]])  # rank 1
        adj = batched_adjugate(a)
        assert np.allclose(adj @ a, 0.0, atol=1e-14)

    def test_adjugate_of_identity(self):
        assert np.allclose(batched_adjugate(np.eye(3)[None]), np.eye(3))


class TestInverse:
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_numpy(self, rng, d):
        a = rng.standard_normal((15, d, d)) + 3 * np.eye(d)
        assert np.allclose(batched_inverse(a), np.linalg.inv(a), atol=1e-10)

    def test_raises_on_singular(self):
        a = np.zeros((1, 2, 2))
        with pytest.raises(np.linalg.LinAlgError):
            batched_inverse(a)


class TestProperties:
    @given(seed=st.integers(0, 2**31), d=st.sampled_from([2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_det_multiplicative(self, seed, d):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((5, d, d))
        b = rng.standard_normal((5, d, d))
        assert np.allclose(
            batched_det(a @ b), batched_det(a) * batched_det(b), atol=1e-9
        )

    @given(seed=st.integers(0, 2**31), d=st.sampled_from([2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_adjugate_transpose_commutes(self, seed, d):
        """adj(A^T) = adj(A)^T."""
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, d, d))
        lhs = batched_adjugate(np.swapaxes(a, -1, -2))
        rhs = np.swapaxes(batched_adjugate(a), -1, -2)
        assert np.allclose(lhs, rhs, atol=1e-12)
