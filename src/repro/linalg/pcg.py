"""Diagonally preconditioned conjugate gradients.

The paper solves the momentum system M_V dv/dt = -F.1 with a PCG solver
using a diagonal (Jacobi) preconditioner at every time step (kernel 9 on
the GPU, MFEM's PCG on the CPU). This is that solver; it also reports the
operation counts the hardware cost models consume (one SpMV plus a
handful of BLAS-1 operations per iteration).

Like kernel 9, an iteration is one operator apply plus in-place vector
passes: the loop updates four work vectors (x, r, z, p) allocated once
per call and allocates nothing itself, so with an operator that writes
into its own buffer an iteration allocates no vector at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from repro.linalg.csr import CSRMatrix

__all__ = ["PCGResult", "pcg"]

Operator = Union[CSRMatrix, Callable[[np.ndarray], np.ndarray]]


@dataclass
class PCGResult:
    """Outcome of a PCG solve.

    Attributes
    ----------
    x : solution vector.
    iterations : number of iterations performed.
    converged : whether the relative residual dropped below `tol`.
    residual_norms : per-iteration preconditioned residual norms
        (length iterations + 1, starting with the initial residual).
    spmv_count : number of operator applications (for cost models).
    flops : total floating point operations, counting the SpMV as
        2*nnz and each BLAS-1 op as its exact count.
    """

    x: np.ndarray
    iterations: int
    converged: bool
    residual_norms: np.ndarray
    spmv_count: int
    flops: int


def pcg(
    A: Operator,
    b: np.ndarray,
    diag: np.ndarray | None = None,
    x0: np.ndarray | None = None,
    tol: float = 1e-10,
    maxiter: int | None = None,
) -> PCGResult:
    """Solve A x = b with Jacobi-preconditioned CG.

    Parameters
    ----------
    A : a CSRMatrix or a callable computing A @ x. Must be symmetric
        positive definite.
    b : right-hand side.
    diag : diagonal of A for the Jacobi preconditioner. Extracted
        automatically when A is a CSRMatrix; identity preconditioning is
        used when unavailable.
    tol : relative tolerance on sqrt(r.M^{-1}r) against its initial value.
    """
    b = np.asarray(b, dtype=np.float64)
    n = b.size
    if isinstance(A, CSRMatrix):
        if A.shape != (n, n):
            raise ValueError("operator/vector size mismatch")
        matvec = A.matvec
        nnz = A.nnz
        if diag is None:
            diag = A.diagonal()
    else:
        matvec = A
        nnz = None
    if diag is not None:
        diag = np.asarray(diag, dtype=np.float64)
        if diag.shape != (n,):
            raise ValueError("preconditioner diagonal has wrong length")
        if np.any(diag <= 0):
            raise ValueError("Jacobi preconditioner requires positive diagonal")
        inv_diag = 1.0 / diag
    else:
        inv_diag = np.ones(n)
    if maxiter is None:
        maxiter = max(10 * n, 100)

    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)
    spmv_count = 0
    flops = 0

    if x.any():
        r = b - matvec(x)
        spmv_count += 1
        if nnz is not None:
            flops += 2 * nnz + n
    else:
        r = b.copy()
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    flops += 3 * n
    norms = [math.sqrt(abs(rz))]
    if norms[0] == 0.0:
        return PCGResult(x, 0, True, np.asarray(norms), spmv_count, flops)
    stop = tol * norms[0]

    converged = False
    it = 0
    for it in range(1, maxiter + 1):
        Ap = matvec(p)
        spmv_count += 1
        pAp = float(p @ Ap)
        if nnz is not None:
            flops += 2 * nnz
        flops += 2 * n
        if pAp <= 0.0:
            # Not SPD (or roundoff breakdown); stop with what we have.
            it -= 1
            break
        alpha = rz / pAp
        # z is free until it is recomputed, so it carries alpha*p and
        # alpha*Ap; each update rounds exactly as `x += alpha * p` does.
        np.multiply(p, alpha, out=z)
        x += z
        np.multiply(Ap, alpha, out=z)
        r -= z
        np.multiply(inv_diag, r, out=z)
        rz_new = float(r @ z)
        flops += 7 * n
        norms.append(math.sqrt(abs(rz_new)))
        if norms[-1] <= stop:
            converged = True
            rz = rz_new
            break
        beta = rz_new / rz
        rz = rz_new
        p *= beta  # p = z + beta * p, in place and to the same bits
        p += z
        flops += 2 * n
    return PCGResult(x, it, converged, np.asarray(norms), spmv_count, flops)
