"""Dense/sparse linear algebra substrate.

This package provides, from scratch, every linear-algebra building block
the BLAST redesign is expressed in: a CSR sparse matrix with SpMV (the
paper's kernel 11 / the workhorse of the CUDA-PCG kernel 9), a diagonally
preconditioned conjugate-gradient solver, and the batched small-matrix
operations (GEMM, GEMV, determinant/adjugate/inverse, symmetric
eigendecomposition, SVD) that kernels 1-8 and 10 are made of.
"""

from repro.linalg.csr import CSRMatrix
from repro.linalg.pcg import PCGResult, pcg
from repro.linalg.batched import (
    batched_gemm,
    batched_gemm_nt,
    batched_gemm_tn,
    batched_gemv,
    batched_gemv_t,
    gemm_flops,
    gemv_flops,
)
from repro.linalg.smallmat import (
    batched_adjugate,
    batched_det,
    batched_inverse,
    batched_matmul,
    batched_trace,
)
from repro.linalg.eig import sym_eig_2x2, sym_eig_3x3, sym_eigvals
from repro.linalg.svd_small import batched_singular_values, batched_svd
from repro.linalg.blockdiag import BlockDiagonalMatrix
from repro.linalg.cholesky import (
    batched_cholesky,
    batched_cholesky_solve,
    batched_triangular_solve,
)

__all__ = [
    "CSRMatrix",
    "PCGResult",
    "pcg",
    "batched_gemm",
    "batched_gemm_nt",
    "batched_gemm_tn",
    "batched_gemv",
    "batched_gemv_t",
    "gemm_flops",
    "gemv_flops",
    "batched_adjugate",
    "batched_det",
    "batched_inverse",
    "batched_matmul",
    "batched_trace",
    "sym_eig_2x2",
    "sym_eig_3x3",
    "sym_eigvals",
    "batched_singular_values",
    "batched_svd",
    "BlockDiagonalMatrix",
    "batched_cholesky",
    "batched_cholesky_solve",
    "batched_triangular_solve",
]
