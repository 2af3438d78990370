"""Sum-factorized (tensor-product) basis contractions.

The dense tables of `ReferenceElement.tabulate_B`/`tabulate_gradW` make
every basis application cost O(nqp * ndof) = O(order^{2d}) per zone. On
tensor-product elements those tables are exact Kronecker products of the
two small 1D matrices `B1[p, i] = phi_i(x_p)` and `G1[p, i] =
phi_i'(x_p)`, so the same applications factor into `dim` passes of 1D
contractions costing O(order^{d+1}) — the matrix-free reorganization of
the MFEM/Umpire/RAJA follow-on to the paper (PAPERS.md, arxiv
2112.07075). This module provides that contraction layer
(`apply_B`/`apply_B_T`/`apply_G`/`apply_G_T`) for the `cpu-sumfact`
engine. Fewer flops are not less time here: at 2D Q2 and Q3 the engine
measures 1.53x and 1.29x slower than the fused dense tables, ties at Q4
and wins only from Q6 (the measured table is in DESIGN.md section 16),
so no cost model of it prices the hybrid split.

Index conventions (matching `ReferenceElement` and `tensor_quadrature`):
dofs and quadrature points are both lexicographic with the *first*
coordinate fastest, so `U.reshape(nz, n1, n1)` has axes [z, i1, i0] and
`W.reshape(nz, q1, q1)` has axes [z, p1, p0] — the 1D contractions line
up without permutations.
"""

from __future__ import annotations

import numpy as np

from repro.fem.quadrature import QuadratureRule
from repro.fem.reference_element import ReferenceElement

__all__ = ["SumFactorizedOperators"]


class SumFactorizedOperators:
    """1D-factorized basis/derivative applications for one element/rule.

    All methods take zone-batched dof or qp arrays and an optional
    preallocated ``out`` (a workspace buffer on the hot path); einsum
    intermediates are transient and small — O(n1^{dim-m} q1^m).
    """

    def __init__(self, element: ReferenceElement, quad: QuadratureRule):
        if quad.dim != element.dim:
            raise ValueError("element and quadrature dimensions differ")
        self.dim = element.dim
        self.n1 = element.ndof_1d
        self.q1 = int(quad.npts_1d)
        self.ndof = element.ndof
        self.nqp = quad.nqp
        self.B1 = element.tabulate_B_1d(quad)  # (q1, n1)
        self.G1 = element.tabulate_G_1d(quad)  # (q1, n1)

    # -- shape helpers ------------------------------------------------------

    def _dofs(self, U: np.ndarray) -> np.ndarray:
        nz = U.shape[0]
        return U.reshape((nz,) + (self.n1,) * self.dim)

    def _qps(self, W: np.ndarray) -> np.ndarray:
        nz = W.shape[0]
        return W.reshape((nz,) + (self.q1,) * self.dim)

    def _tables(self, deriv_axis: int | None) -> list[np.ndarray]:
        """Per-axis 1D table, G1 on `deriv_axis` (axis 0 = first coord)."""
        return [self.G1 if d == deriv_axis else self.B1 for d in range(self.dim)]

    # -- forward: dofs -> quadrature points ---------------------------------

    def _forward(self, U: np.ndarray, tables: list[np.ndarray]) -> np.ndarray:
        """Contract each dof axis against its (q1, n1) table."""
        t = self._dofs(U)
        if self.dim == 1:
            return np.einsum("pa,za->zp", tables[0], t)
        if self.dim == 2:
            t = np.einsum("pa,zba->zbp", tables[0], t)
            return np.einsum("qb,zbp->zqp", tables[1], t)
        t = np.einsum("pa,zcba->zcbp", tables[0], t)
        t = np.einsum("qb,zcbp->zcqp", tables[1], t)
        return np.einsum("rc,zcqp->zrqp", tables[2], t)

    def _backward(self, W: np.ndarray, tables: list[np.ndarray]) -> np.ndarray:
        """Transpose contraction: quadrature points -> dofs."""
        t = self._qps(W)
        if self.dim == 1:
            return np.einsum("pa,zp->za", tables[0], t)
        if self.dim == 2:
            t = np.einsum("qb,zqp->zbp", tables[1], t)
            return np.einsum("pa,zbp->zba", tables[0], t)
        t = np.einsum("rc,zrqp->zcqp", tables[2], t)
        t = np.einsum("qb,zcqp->zcbp", tables[1], t)
        return np.einsum("pa,zcbp->zcba", tables[0], t)

    # -- public contraction layer -------------------------------------------

    def apply_B(self, U: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Basis values at qps: (nz, ndof) -> (nz, nqp)."""
        res = self._forward(U, self._tables(None))
        nz = U.shape[0]
        if out is None:
            return res.reshape(nz, self.nqp)
        out[...] = res.reshape(nz, self.nqp)
        return out

    def apply_B_T(self, W: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Transpose interpolation: (nz, nqp) -> (nz, ndof)."""
        res = self._backward(W, self._tables(None))
        nz = W.shape[0]
        if out is None:
            return res.reshape(nz, self.ndof)
        out[...] = res.reshape(nz, self.ndof)
        return out

    def apply_G(self, U: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Reference gradients at qps: (nz, ndof) -> (nz, nqp, dim)."""
        nz = U.shape[0]
        if out is None:
            out = np.empty((nz, self.nqp, self.dim))
        for d in range(self.dim):
            out[:, :, d] = self._forward(U, self._tables(d)).reshape(nz, self.nqp)
        return out

    def apply_G_T(self, S: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Transpose gradient: (nz, nqp, dim) -> (nz, ndof), summed over dim."""
        nz = S.shape[0]
        if out is None:
            out = np.empty((nz, self.ndof))
        acc = self._backward(S[:, :, 0], self._tables(0)).reshape(nz, self.ndof)
        for d in range(1, self.dim):
            acc += self._backward(S[:, :, d], self._tables(d)).reshape(nz, self.ndof)
        out[...] = acc
        return out
