"""Tests for the CSR sparse matrix."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.csr import CSRMatrix


def random_coo(rng, nrows, ncols, nnz):
    rows = rng.integers(0, nrows, nnz)
    cols = rng.integers(0, ncols, nnz)
    vals = rng.standard_normal(nnz)
    return rows, cols, vals


class TestConstruction:
    def test_from_coo_sums_duplicates(self):
        m = CSRMatrix.from_coo([0, 0, 1], [1, 1, 0], [2.0, 3.0, 4.0], (2, 2))
        dense = m.to_dense()
        assert dense[0, 1] == 5.0
        assert dense[1, 0] == 4.0
        assert m.nnz == 2

    def test_from_dense_roundtrip(self, rng):
        d = rng.standard_normal((5, 7))
        d[np.abs(d) < 0.5] = 0.0
        m = CSRMatrix.from_dense(d)
        assert np.allclose(m.to_dense(), d)

    def test_prune_tol(self):
        m = CSRMatrix.from_coo([0, 1], [0, 1], [1e-15, 1.0], (2, 2), prune_tol=1e-12)
        assert m.nnz == 1

    def test_empty_matrix(self):
        m = CSRMatrix.from_coo([], [], [], (3, 3))
        assert m.nnz == 0
        assert np.allclose(m.matvec(np.ones(3)), 0.0)

    def test_identity(self):
        m = CSRMatrix.identity(4)
        x = np.arange(4.0)
        assert np.allclose(m.matvec(x), x)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            CSRMatrix.from_coo([0], [5], [1.0], (2, 2))
        with pytest.raises(ValueError):
            CSRMatrix.from_coo([3], [0], [1.0], (2, 2))
        with pytest.raises(ValueError):
            CSRMatrix(np.ones(1), np.zeros(1, dtype=int), np.array([0, 1]), (2, 2))


class TestOps:
    def test_matvec_vs_scipy(self, rng):
        rows, cols, vals = random_coo(rng, 20, 15, 80)
        ours = CSRMatrix.from_coo(rows, cols, vals, (20, 15))
        theirs = sp.coo_matrix((vals, (rows, cols)), shape=(20, 15)).tocsr()
        x = rng.standard_normal(15)
        assert np.allclose(ours.matvec(x), theirs @ x)

    def test_matvec_with_empty_rows(self):
        m = CSRMatrix.from_coo([0, 3], [1, 2], [2.0, 5.0], (5, 4))
        y = m.matvec(np.array([1.0, 1.0, 1.0, 1.0]))
        assert np.allclose(y, [2.0, 0, 0, 5.0, 0])

    def test_matmul_operator(self, rng):
        m = CSRMatrix.from_dense(rng.standard_normal((4, 4)))
        x = rng.standard_normal(4)
        assert np.allclose(m @ x, m.matvec(x))

    def test_diagonal(self, rng):
        d = rng.standard_normal((6, 6))
        m = CSRMatrix.from_dense(d)
        assert np.allclose(m.diagonal(), np.diag(d))

    def test_diagonal_with_structural_zero(self):
        m = CSRMatrix.from_coo([0], [1], [1.0], (2, 2))
        assert np.allclose(m.diagonal(), [0.0, 0.0])

    def test_transpose(self, rng):
        rows, cols, vals = random_coo(rng, 8, 11, 30)
        m = CSRMatrix.from_coo(rows, cols, vals, (8, 11))
        assert np.allclose(m.transpose().to_dense(), m.to_dense().T)

    def test_is_symmetric(self, rng):
        a = rng.standard_normal((5, 5))
        sym = CSRMatrix.from_dense(a + a.T)
        assert sym.is_symmetric()
        nonsym = CSRMatrix.from_coo([0], [1], [1.0], (2, 2))
        assert not nonsym.is_symmetric()
        rect = CSRMatrix.from_coo([0], [0], [1.0], (2, 3))
        assert not rect.is_symmetric()

    def test_matvec_shape_check(self):
        m = CSRMatrix.identity(3)
        with pytest.raises(ValueError):
            m.matvec(np.ones(4))


class TestPropertyBased:
    @given(
        n=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_matvec_matches_dense(self, n, seed):
        rng = np.random.default_rng(seed)
        nnz = rng.integers(0, n * n + 1)
        rows = rng.integers(0, n, nnz)
        cols = rng.integers(0, n, nnz)
        vals = rng.standard_normal(nnz)
        m = CSRMatrix.from_coo(rows, cols, vals, (n, n))
        dense = np.zeros((n, n))
        np.add.at(dense, (rows, cols), vals)
        x = rng.standard_normal(n)
        assert np.allclose(m.matvec(x), dense @ x, atol=1e-10)

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_transpose_involution(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols, vals = random_coo(rng, 6, 9, 20)
        m = CSRMatrix.from_coo(rows, cols, vals, (6, 9))
        tt = m.transpose().transpose()
        assert np.allclose(tt.to_dense(), m.to_dense())
