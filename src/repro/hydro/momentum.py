"""Momentum solve: M_V dv/dt = -F . 1 with PCG per velocity component.

The kinematic mass matrix is scalar (each velocity component sees the
same matrix), so the momentum update is `dim` independent PCG solves
with a shared Jacobi preconditioner — exactly the CPU (MFEM PCG) and
GPU (kernel 9, CUDA-PCG) structure of the paper.

Every PCG iteration applies M_V through its partial-assembly action
(`repro.fem.assembly.MassAction`), and the flop count prices each apply
at the action's own arithmetic. The assembled CSR matrix supplies the
Jacobi diagonal and the nonzero count the kernel 9 / 11 cost models
price, since they model the paper's CSR kernel.

The velocity boundary conditions enter as a 0/1 mask per component:
the right-hand side and every operator output are multiplied by the
component's free-dof mask. The right-hand side is zero on the
constrained dofs, so every PCG iterate stays zero there, and the masked
operator restricted to the free dofs is the operator with the
constrained rows and columns eliminated: the same iterates, to the bit,
as the identity-row elimination, at the cost of one multiply per apply.
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

    `mass` is the assembled matrix (the Jacobi diagonal) and `action`
    the same operator's partial-assembly apply, which every iteration
    uses and whose arithmetic `MomentumSolveInfo.flops` counts.
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
        # eliminated, and the 0/1 masks of the free dofs; the
        # constraints are fixed once the solver exists.
        self._diags = [bc.eliminated_diagonal(diag, d) for d in range(bc.dim)]
        self._free = [(~bc.component_mask(d)).astype(np.float64)
                      for d in range(bc.dim)]
        #: Flops of one `matvec`, which `MomentumSolveInfo.flops` counts.
        self.flops_per_apply = action.flops_per_apply
        self.last_info: MomentumSolveInfo | None = None

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """One mass-matrix application — the distributed override point.

        `VectorizedDistributedMomentumSolver` replaces this with the
        group sum over the ranks' shares; everything else
        (preconditioning, the boundary mask, convergence accounting) is
        shared. It must return a new array, which the solve masks in
        place.
        """
        return self.action.matvec(x)

    def solve(self, rhs: np.ndarray, x0: np.ndarray | None = None) -> np.ndarray:
        """Accelerations a with M a = rhs, constrained components zeroed.

        rhs : (ndof, dim). Returns (ndof, dim). One `pcg` per component
        on the masked right-hand side and operator.
        """
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.ndim != 2 or rhs.shape[0] != self.mass.nrows:
            raise ValueError("rhs must be (ndof, dim)")
        dim = rhs.shape[1]
        accel = np.empty_like(rhs)
        matvec = self.matvec
        iters = spmvs = flops = 0
        all_conv = True
        for d in range(dim):
            free = self._free[d]

            def op(p: np.ndarray, free=free) -> np.ndarray:
                y = matvec(p)
                y *= free
                return y

            guess = None if x0 is None else x0[:, d] * free
            res = pcg(op, rhs[:, d] * free, diag=self._diags[d], x0=guess,
                      tol=self.tol, maxiter=self.maxiter)
            accel[:, d] = res.x
            iters += res.iterations
            spmvs += res.spmv_count
            # callable operator: pcg counts only its vector work
            flops += res.flops + res.spmv_count * self.flops_per_apply
            all_conv &= res.converged
        self.last_info = MomentumSolveInfo(iters, spmvs, flops, all_conv)
        return accel
