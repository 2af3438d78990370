"""Momentum solve: M_V dv/dt = -F . 1 with PCG per velocity component.

The kinematic mass matrix is scalar (each velocity component sees the
same matrix), so the momentum update is `dim` independent PCG solves
with a shared Jacobi preconditioner — exactly the CPU (MFEM PCG) and
GPU (kernel 9, CUDA-PCG) structure of the paper.

Every PCG iteration applies M_V through its partial-assembly action
(`repro.fem.assembly.MassAction`); the assembled CSR matrix supplies
the Jacobi diagonal and the nonzero count the flop accounting prices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fem.assembly import MassAction
from repro.hydro.boundary import BoundaryConditions
from repro.linalg.csr import CSRMatrix
from repro.linalg.pcg import pcg

__all__ = ["MomentumSolver", "MomentumSolveInfo"]


@dataclass
class MomentumSolveInfo:
    """Aggregate PCG statistics for one momentum solve (all components)."""

    iterations: int
    spmv_count: int
    flops: int
    converged: bool


class MomentumSolver:
    """PCG-based solver for the (constant) kinematic mass matrix.

    `mass` is the assembled matrix (Jacobi diagonal, nnz for the flop
    count) and `action` the same operator's partial-assembly apply,
    which every iteration uses.
    """

    def __init__(
        self,
        mass: CSRMatrix,
        action: MassAction,
        bc: BoundaryConditions,
        tol: float = 1e-14,
        maxiter: int | None = None,
    ):
        if mass.nrows != mass.ncols:
            raise ValueError("mass matrix must be square")
        if action.ndof != mass.nrows:
            raise ValueError("mass action sized for a different space")
        if bc.ndof != mass.nrows:
            raise ValueError("boundary conditions sized for a different space")
        self.mass = mass
        self.action = action
        self.bc = bc
        self.tol = tol
        self.maxiter = maxiter if maxiter is not None else max(200, 10 * mass.nrows)
        diag = mass.diagonal()
        if np.any(diag <= 0):
            raise ValueError("kinematic mass matrix has non-positive diagonal")
        # Per-component Jacobi diagonals with the constrained dofs
        # eliminated; the constraints are fixed once the solver exists.
        self._diags = [bc.eliminated_diagonal(diag, d) for d in range(bc.dim)]
        self.last_info: MomentumSolveInfo | None = None

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """One mass-matrix application — the distributed override point.

        `VectorizedDistributedMomentumSolver` replaces this with the
        group sum over the ranks' shares; everything else
        (preconditioning, BC elimination, convergence accounting) is
        shared.
        """
        return self.action.matvec(x)

    def solve(self, rhs: np.ndarray, x0: np.ndarray | None = None) -> np.ndarray:
        """Accelerations a with M a = rhs, constrained components zeroed.

        rhs : (ndof, dim). Returns (ndof, dim).
        """
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.ndim != 2 or rhs.shape[0] != self.mass.nrows:
            raise ValueError("rhs must be (ndof, dim)")
        dim = rhs.shape[1]
        accel = np.zeros_like(rhs)
        iters = spmvs = flops = 0
        all_conv = True
        for d in range(dim):
            op = self.bc.eliminated_operator(self.matvec, d)
            b = np.where(self.bc.component_mask(d), 0.0, rhs[:, d])
            guess = None if x0 is None else x0[:, d]
            res = pcg(op, b, diag=self._diags[d], x0=guess, tol=self.tol,
                      maxiter=self.maxiter)
            accel[:, d] = res.x
            iters += res.iterations
            spmvs += res.spmv_count
            # callable operator: price each apply as the CSR SpMV
            flops += res.flops + res.spmv_count * 2 * self.mass.nnz
            all_conv &= res.converged
        accel[self.bc.mask] = 0.0
        self.last_info = MomentumSolveInfo(iters, spmvs, flops, all_conv)
        return accel
