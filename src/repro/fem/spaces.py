"""Finite element spaces: continuous H1 (kinematic) and discontinuous L2
(thermodynamic).

A Qk-Qk-1 BLAST method pairs a continuous order-k kinematic space (for
velocity and positions) with a discontinuous order-(k-1) thermodynamic
space (for specific internal energy). The H1 numbering identifies shared
dofs between zones geometrically: local dof positions from the bi/tri-
linear vertex map are quantized to a mesh-scaled lattice and unified by
hashing — exact for the generator meshes used here, and verified by a
continuity self-check at construction.
"""

from __future__ import annotations

import numpy as np

from repro.fem.mesh import Mesh
from repro.fem.reference_element import ReferenceElement

__all__ = ["H1Space", "L2Space"]


def _bilinear_map(zone_verts: np.ndarray, ref_pts: np.ndarray) -> np.ndarray:
    """Map reference points through the multilinear vertex map.

    zone_verts: (nz, 2**dim, dim); ref_pts: (npts, dim).
    Returns (nz, npts, dim).
    """
    dim = zone_verts.shape[2]
    x = ref_pts[:, 0]
    if dim == 1:
        w = np.stack([1 - x, x], axis=1)
    elif dim == 2:
        y = ref_pts[:, 1]
        w = np.stack([(1 - x) * (1 - y), x * (1 - y), (1 - x) * y, x * y], axis=1)
    else:
        y = ref_pts[:, 1]
        z = ref_pts[:, 2]
        w = np.stack(
            [
                (1 - x) * (1 - y) * (1 - z),
                x * (1 - y) * (1 - z),
                (1 - x) * y * (1 - z),
                x * y * (1 - z),
                (1 - x) * (1 - y) * z,
                x * (1 - y) * z,
                (1 - x) * y * z,
                x * y * z,
            ],
            axis=1,
        )
    return np.einsum("pv,zvd->zpd", w, zone_verts)


class H1Space:
    """Continuous Lagrange space of order k >= 1 on a quad/hex mesh.

    Attributes
    ----------
    ldof : (nzones, ndof_per_zone) local-to-global dof map.
    node_coords : (ndof, dim) initial coordinates of the dof nodes (the
        `x` unknown of the equation of motion starts here).
    """

    def __init__(self, mesh: Mesh, order: int):
        if order < 1:
            raise ValueError("H1 space needs order >= 1")
        self.mesh = mesh
        self.order = order
        self.element = ReferenceElement(mesh.dim, order)
        zone_verts = mesh.zone_vertex_coords()
        ref_coords = self.element.dof_coords
        phys = _bilinear_map(zone_verts, ref_coords)  # (nz, ndz, dim)
        # Quantize positions on a lattice much finer than any edge.
        h = mesh.min_edge_length()
        if not np.isfinite(h) or h <= 0:
            raise ValueError("mesh has degenerate edges")
        quant = h / max(order, 1) * 1e-6
        keys = np.round(phys / quant).astype(np.int64)
        flat = keys.reshape(-1, mesh.dim)
        uniq, inverse = np.unique(flat, axis=0, return_inverse=True)
        self.ldof = inverse.reshape(mesh.nzones, self.element.ndof).astype(np.int64)
        self.ndof = uniq.shape[0]
        coords = np.zeros((self.ndof, mesh.dim))
        coords[self.ldof.reshape(-1)] = phys.reshape(-1, mesh.dim)
        self.node_coords = coords
        self._continuity_check(phys)

    def _continuity_check(self, phys: np.ndarray) -> None:
        """Verify unified dofs agree geometrically to tight tolerance."""
        gathered = self.node_coords[self.ldof]
        err = np.abs(gathered - phys).max()
        scale = max(1.0, np.abs(phys).max())
        if err > 1e-8 * scale:
            raise RuntimeError(
                f"H1 dof unification failed (max mismatch {err:.3e}); "
                "mesh may contain coincident but topologically distinct nodes"
            )

    @property
    def ndof_per_zone(self) -> int:
        return self.element.ndof

    @property
    def dim(self) -> int:
        return self.mesh.dim

    @property
    def nvdof(self) -> int:
        """Number of *vector* dofs (each node carries `dim` components)."""
        return self.ndof * self.dim

    def gather(self, field: np.ndarray) -> np.ndarray:
        """Zone-local view of a global field.

        (ndof,) -> (nz, ndz); (ndof, dim) -> (nz, ndz, dim).
        """
        field = np.asarray(field)
        if field.shape[0] != self.ndof:
            raise ValueError("field leading dimension must equal ndof")
        return field[self.ldof]

    def sumfact_operators(self, quad):
        """Factorized basis applications for this space at a tensor rule."""
        from repro.fem.sumfact import SumFactorizedOperators

        return SumFactorizedOperators(self.element, quad)

    def scatter_add(self, zvals: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Sum zone-local contributions into a global field.

        (nz, ndz[, dim]) -> (ndof[, dim]). `out` (zeroed here) lets the
        hot path accumulate into a workspace buffer.
        """
        zvals = np.asarray(zvals, dtype=np.float64)
        if zvals.shape[:2] != (self.mesh.nzones, self.ndof_per_zone):
            raise ValueError("zvals must be (nzones, ndof_per_zone, ...)")
        if out is None:
            out = np.zeros((self.ndof,) + zvals.shape[2:])
        else:
            if out.shape != (self.ndof,) + zvals.shape[2:]:
                raise ValueError("out has the wrong shape for this scatter")
            out[...] = 0.0
        np.add.at(out, self.ldof.reshape(-1), zvals.reshape((-1,) + zvals.shape[2:]))
        return out

    def boundary_dofs(self, tol_scale: float = 1e-9) -> np.ndarray:
        """Dof ids on the bounding box of the initial configuration."""
        lo = self.node_coords.min(axis=0)
        hi = self.node_coords.max(axis=0)
        tol = tol_scale * max(float(np.max(hi - lo)), 1.0)
        on = np.zeros(self.ndof, dtype=bool)
        for d in range(self.dim):
            on |= np.abs(self.node_coords[:, d] - lo[d]) < tol
            on |= np.abs(self.node_coords[:, d] - hi[d]) < tol
        return np.flatnonzero(on)

    def boundary_dofs_on_plane(self, axis: int, value: float, tol: float = 1e-9) -> np.ndarray:
        """Dof ids lying on the plane coords[axis] == value (initially)."""
        return np.flatnonzero(np.abs(self.node_coords[:, axis] - value) < tol)


class L2Space:
    """Discontinuous Lagrange space of order k >= 0 (zone-local dofs)."""

    def __init__(self, mesh: Mesh, order: int):
        if order < 0:
            raise ValueError("L2 space needs order >= 0")
        self.mesh = mesh
        self.order = order
        self.element = ReferenceElement(mesh.dim, order)
        nz = mesh.nzones
        self.ndof = nz * self.element.ndof
        self.ldof = np.arange(self.ndof, dtype=np.int64).reshape(nz, self.element.ndof)

    @property
    def ndof_per_zone(self) -> int:
        return self.element.ndof

    @property
    def dim(self) -> int:
        return self.mesh.dim

    def gather(self, field: np.ndarray) -> np.ndarray:
        field = np.asarray(field)
        if field.shape[0] != self.ndof:
            raise ValueError("field leading dimension must equal ndof")
        return field.reshape((self.mesh.nzones, self.element.ndof) + field.shape[1:])

    def scatter(self, zvals: np.ndarray) -> np.ndarray:
        zvals = np.asarray(zvals, dtype=np.float64)
        if zvals.shape[:2] != (self.mesh.nzones, self.element.ndof):
            raise ValueError("zvals must be (nzones, ndof_per_zone, ...)")
        return zvals.reshape((self.ndof,) + zvals.shape[2:])

    def sumfact_operators(self, quad):
        """Factorized basis applications for this space at a tensor rule."""
        from repro.fem.sumfact import SumFactorizedOperators

        return SumFactorizedOperators(self.element, quad)
