"""Tests for the preconditioned conjugate gradient solver.

Tests named `test_smoke_*` belong to the fast momentum subset
(`pytest -q tests/test_pcg.py tests/test_boundary_momentum.py
tests/test_mass_action.py -k smoke`).
"""

import tracemalloc

import numpy as np
import pytest

from repro.linalg.csr import CSRMatrix
from repro.linalg.pcg import pcg


def spd_matrix(rng, n, cond=10.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = np.linspace(1.0, cond, n)
    return q @ np.diag(w) @ q.T


class TestPCG:
    def test_solves_identity(self):
        a = CSRMatrix.identity(5)
        b = np.arange(5.0)
        res = pcg(a, b)
        assert res.converged
        assert np.allclose(res.x, b)

    def test_solves_random_spd(self, rng):
        a = spd_matrix(rng, 30)
        m = CSRMatrix.from_dense(a)
        x_true = rng.standard_normal(30)
        b = a @ x_true
        res = pcg(m, b, tol=1e-12)
        assert res.converged
        assert np.allclose(res.x, x_true, atol=1e-8)

    def test_jacobi_helps_ill_conditioned_diagonal(self, rng):
        n = 40
        d = np.logspace(0, 6, n)
        a = np.diag(d)
        a[0, 1] = a[1, 0] = 0.1
        m = CSRMatrix.from_dense(a)
        b = rng.standard_normal(n)
        res_precond = pcg(m, b, tol=1e-12)
        res_plain = pcg(m.matvec, b, diag=None, tol=1e-12, maxiter=res_precond.iterations)
        # With Jacobi a diagonal-dominant system converges almost instantly.
        assert res_precond.converged
        assert res_precond.iterations <= res_plain.iterations + 1

    def test_callable_operator(self, rng):
        a = spd_matrix(rng, 10)
        b = rng.standard_normal(10)
        res = pcg(lambda x: a @ x, b, diag=np.diag(a), tol=1e-12, maxiter=500)
        assert res.converged
        assert np.allclose(a @ res.x, b, atol=1e-8)

    def test_zero_rhs(self):
        a = CSRMatrix.identity(4)
        res = pcg(a, np.zeros(4))
        assert res.converged
        assert res.iterations == 0
        assert np.allclose(res.x, 0.0)

    def test_warm_start(self, rng):
        a = spd_matrix(rng, 20)
        m = CSRMatrix.from_dense(a)
        x_true = rng.standard_normal(20)
        b = a @ x_true
        cold = pcg(m, b, tol=1e-12)
        warm = pcg(m, b, x0=x_true + 1e-8 * rng.standard_normal(20), tol=1e-12)
        assert warm.converged
        assert warm.iterations <= cold.iterations

    def test_maxiter_respected(self, rng):
        a = spd_matrix(rng, 50, cond=1e6)
        m = CSRMatrix.from_dense(a)
        res = pcg(m, rng.standard_normal(50), tol=1e-15, maxiter=3)
        assert res.iterations == 3
        assert not res.converged

    def test_residual_norms_monotone_overall(self, rng):
        a = spd_matrix(rng, 25)
        m = CSRMatrix.from_dense(a)
        res = pcg(m, rng.standard_normal(25), tol=1e-12)
        assert res.residual_norms[-1] < res.residual_norms[0]

    def test_counts_populated(self, rng):
        a = spd_matrix(rng, 15)
        m = CSRMatrix.from_dense(a)
        res = pcg(m, rng.standard_normal(15), tol=1e-10)
        assert res.spmv_count == res.iterations
        assert res.flops > 0

    def test_rejects_nonpositive_diag(self):
        a = CSRMatrix.identity(3)
        with pytest.raises(ValueError):
            pcg(a, np.ones(3), diag=np.array([1.0, -1.0, 1.0]))

    def test_size_mismatch(self):
        a = CSRMatrix.identity(3)
        with pytest.raises(ValueError):
            pcg(a, np.ones(4))

    def test_exact_in_n_iterations(self, rng):
        """CG terminates in at most n iterations in exact arithmetic."""
        n = 8
        a = spd_matrix(rng, n, cond=5.0)
        m = CSRMatrix.from_dense(a)
        res = pcg(m, rng.standard_normal(n), tol=1e-13)
        assert res.converged
        assert res.iterations <= n + 2

    def test_smoke_loop_allocates_no_vector(self, rng):
        """With an operator that writes into its own buffer, a solve
        holds no more than its work vectors x, r, z, p and D^-1: the
        loop's updates allocate nothing, however many iterations run."""
        n = 100_000
        out = np.empty(n)

        def op(v):  # tridiag(-1, 4, -1), applied in place
            np.multiply(v, 4.0, out=out)
            out[1:] -= v[:-1]
            out[:-1] -= v[1:]
            return out

        b = rng.standard_normal(n)
        diag = np.full(n, 4.0)
        tracemalloc.start()
        try:
            res = pcg(op, b, diag=diag, tol=1e-10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.converged and res.iterations > 10
        assert peak < 5 * b.nbytes + 64 * 1024
