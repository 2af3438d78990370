"""Dense/sparse linear algebra substrate.

This package provides, from scratch, the linear-algebra building blocks
the BLAST redesign is expressed in: a CSR sparse matrix with SpMV (the
paper's kernel 11 / the workhorse of the CUDA-PCG kernel 9), a diagonally
preconditioned conjugate-gradient solver, the block-diagonal thermodynamic
mass operator, and the batched small-matrix operations (determinant,
adjugate, inverse, per-point products, symmetric eigendecomposition,
singular values) of kernels 1 and 2. The batched GEMMs and GEMVs of the
other kernels are NumPy `np.matmul`/`np.einsum` calls at their call sites.
"""

from repro.linalg.csr import CSRMatrix
from repro.linalg.pcg import PCGResult, pcg
from repro.linalg.smallmat import (
    batched_adjugate,
    batched_det,
    batched_inverse,
    batched_matmul,
)
from repro.linalg.eig import sym_eig_2x2, sym_eig_3x3, sym_eigvals
from repro.linalg.svd_small import batched_singular_values
from repro.linalg.blockdiag import BlockDiagonalMatrix

__all__ = [
    "CSRMatrix",
    "PCGResult",
    "pcg",
    "batched_adjugate",
    "batched_det",
    "batched_inverse",
    "batched_matmul",
    "sym_eig_2x2",
    "sym_eig_3x3",
    "sym_eigvals",
    "batched_singular_values",
    "BlockDiagonalMatrix",
]
