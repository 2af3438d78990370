"""Mass matrix assembly.

Assembles the two (time-constant) mass matrices of the semi-discrete
scheme:

* the kinematic mass matrix M_V — density-weighted inner products of the
  *continuous* kinematic basis: global, symmetric, sparse (CSR), solved
  with PCG every step;
* the thermodynamic mass matrix M_E — density-weighted inner products of
  the *discontinuous* thermodynamic basis: symmetric block diagonal, one
  dense block per zone, inverted once at initialization.

Both use the initial density and initial geometry: in the Lagrangian
frame strong mass conservation (rho |J| = rho0 |J0| pointwise) makes
them constant in time.

The momentum PCG applies M_V many times per step, so it does not read
the CSR matrix: `MassAction` applies the same operator by partial
assembly (the Laghos mass operator of Vargas et al.), keeping only the
basis table and the quadrature-point weights. Its apply is two halves,
`zone_products` (every zone's local product) and `scatter` (their sum
into the global vector), so the distributed operator routes the same
products to its ranks without computing any zone twice. The
assembled CSR stays for the Jacobi diagonal, the nonzero count the cost
models price, and as the reference the action is tested against.
"""

from __future__ import annotations

import numpy as np

from repro.fem.geometry import GeometryAtPoints
from repro.fem.quadrature import QuadratureRule
from repro.fem.spaces import H1Space, L2Space
from repro.linalg.blockdiag import BlockDiagonalMatrix
from repro.linalg.csr import CSRMatrix

__all__ = [
    "MassAction",
    "zone_mass_blocks",
    "zone_mass_blocks_sumfact",
    "assemble_kinematic_mass",
    "assemble_thermodynamic_mass",
    "lump_mass",
]


def zone_mass_blocks(
    basis_at_qp: np.ndarray,
    quad: QuadratureRule,
    rho_qp: np.ndarray,
    detJ_qp: np.ndarray,
) -> np.ndarray:
    """Local mass blocks M_z[i,j] = sum_k a_k rho_zk |J_zk| b_i(q_k) b_j(q_k).

    basis_at_qp: (nqp, ndz); rho_qp, detJ_qp: (nz, nqp). Returns
    (nz, ndz, ndz), symmetric by construction.
    """
    w = quad.weights[None, :] * rho_qp * detJ_qp  # (nz, nqp)
    return np.einsum("zk,ki,kj->zij", w, basis_at_qp, basis_at_qp, optimize=True)


class MassAction:
    """Matrix-free application of a scalar mass operator (partial assembly).

    M x = sum_z P_z^T B^T (D_z * (B P_z x)), with B the (nqp, ndz) basis
    table, D_z[k] = a_k rho_zk |J_zk| and P_z the gather through `ldof`:
    a gather, two GEMMs over all zones at once (`zone_products`) and a
    `np.bincount` scatter (`scatter`). It equals the assembled matrix's
    SpMV up to summation order.

    basis_at_qp: (nqp, ndz); qp_weights: (nz, nqp); ldof: (nz, ndz)
    local-to-global dof map into a space of `ndof` dofs.
    """

    def __init__(self, basis_at_qp: np.ndarray, qp_weights: np.ndarray,
                 ldof: np.ndarray, ndof: int):
        self.basis = np.ascontiguousarray(basis_at_qp, dtype=np.float64)
        self._basis_t = np.ascontiguousarray(self.basis.T)
        self.qp_weights = np.ascontiguousarray(qp_weights, dtype=np.float64)
        self.ldof = np.ascontiguousarray(ldof, dtype=np.int64)
        self.ndof = int(ndof)
        if self.qp_weights.shape != (self.ldof.shape[0], self.basis.shape[0]):
            raise ValueError("qp_weights must be (nzones, nqp)")
        if self.ldof.shape[1:] != (self.basis.shape[1],):
            raise ValueError("ldof must be (nzones, ndof_per_zone)")
        self._flat = self.ldof.reshape(-1)
        nz, ndz = self.ldof.shape
        nqp = self.basis.shape[0]
        #: Flops of one `matvec`: two (nz, nqp, ndz) GEMMs and the scaling.
        self.flops_per_apply = 4 * nz * ndz * nqp + nz * nqp

    @classmethod
    def for_space(cls, space, quad: QuadratureRule, rho_qp: np.ndarray,
                  detJ_qp: np.ndarray) -> "MassAction":
        """The action of the mass matrix `zone_mass_blocks` assembles on
        `space` (same inputs: quadrature, rho and |J| at its points)."""
        return cls(
            space.element.tabulate(quad.points),
            quad.weights[None, :] * rho_qp * detJ_qp,
            space.ldof,
            space.ndof,
        )

    def zone_products(self, x: np.ndarray) -> np.ndarray:
        """(nz, ndz) local products B^T (D_z * (B P_z x)), one row per zone."""
        q = x[self.ldof] @ self._basis_t  # (nz, nqp) values at the points
        q *= self.qp_weights
        return q @ self.basis

    def scatter(self, products: np.ndarray) -> np.ndarray:
        """(ndof,) sum of (nz, ndz) zone products over `ldof`."""
        return np.bincount(self._flat, weights=products.reshape(-1),
                           minlength=self.ndof)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """y = M @ x."""
        return self.scatter(self.zone_products(x))


def zone_mass_blocks_sumfact(
    element,
    quad: QuadratureRule,
    rho_qp: np.ndarray,
    detJ_qp: np.ndarray,
) -> np.ndarray:
    """`zone_mass_blocks` via 1D tensor-product contractions.

    Same blocks to roundoff, but assembled through the factorized chain
    (the einsum path optimizer contracts one quadrature axis at a time
    against the small (q1, n1) table), so the cost is O(order^{d+2}) per
    zone instead of the dense O(order^{3d}).
    """
    b1 = element.tabulate_B_1d(quad)  # (q1, n1)
    dim = element.dim
    nz = rho_qp.shape[0]
    q1 = int(quad.npts_1d)
    w = (quad.weights[None, :] * rho_qp * detJ_qp).reshape((nz,) + (q1,) * dim)
    if dim == 1:
        blocks = np.einsum("zp,pa,pd->zad", w, b1, b1, optimize=True)
    elif dim == 2:
        # output axes [z, i1, i0, j1, j0]; dof = i0 + n1*i1 (first fastest)
        blocks = np.einsum("zqp,pa,qb,pd,qe->zbaed", w, b1, b1, b1, b1, optimize=True)
    else:
        blocks = np.einsum(
            "zrqp,pa,qb,rc,pd,qe,rf->zcbafed", w, b1, b1, b1, b1, b1, b1, optimize=True
        )
    ndz = element.ndof
    return np.ascontiguousarray(blocks.reshape(nz, ndz, ndz))


def assemble_kinematic_mass(
    space: H1Space,
    quad: QuadratureRule,
    rho_qp: np.ndarray,
    geometry: GeometryAtPoints,
    prune_tol: float = 0.0,
    sumfact: bool = False,
) -> CSRMatrix:
    """Global sparse kinematic mass matrix (scalar form, one component).

    The velocity unknown has `dim` components sharing the same scalar
    mass matrix; the momentum solve applies it per component. With
    `sumfact=True` the local blocks come from the tensor-product chain.
    """
    if sumfact:
        blocks = zone_mass_blocks_sumfact(space.element, quad, rho_qp, geometry.det)
    else:
        basis = space.element.tabulate(quad.points)  # (nqp, ndz)
        blocks = zone_mass_blocks(basis, quad, rho_qp, geometry.det)
    ndz = space.ndof_per_zone
    rows = np.repeat(space.ldof, ndz, axis=1).ravel()
    cols = np.tile(space.ldof, (1, ndz)).ravel()
    return CSRMatrix.from_coo(rows, cols, blocks.ravel(), (space.ndof, space.ndof), prune_tol=prune_tol)


def assemble_thermodynamic_mass(
    space: L2Space,
    quad: QuadratureRule,
    rho_qp: np.ndarray,
    geometry: GeometryAtPoints,
    sumfact: bool = False,
) -> BlockDiagonalMatrix:
    """Block-diagonal thermodynamic mass matrix with lazily-invertible blocks."""
    if sumfact:
        blocks = zone_mass_blocks_sumfact(space.element, quad, rho_qp, geometry.det)
    else:
        basis = space.element.tabulate(quad.points)  # (nqp, ndz)
        blocks = zone_mass_blocks(basis, quad, rho_qp, geometry.det)
    m = BlockDiagonalMatrix(blocks)
    m.precompute_inverse()
    return m


def lump_mass(matrix: CSRMatrix) -> np.ndarray:
    """Row-sum lumping (used for viscosity length scales / diagnostics)."""
    return matrix.matvec(np.ones(matrix.ncols))
