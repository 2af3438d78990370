"""Batched geometry evaluation at quadrature points.

Evaluates, for every zone z and quadrature point q_k, the Jacobian
J_z(q_k) of the (moving, curvilinear) parametric map, its determinant
|J_z| ("local volume" in the paper) and adjugate. These are exactly the
quantities kernels 1 and 3 produce on the GPU. The Jacobian is the
basis contraction `reference_gradients`: GEMMs of the component-major
zone coordinates against the precomputed reference gradient table, the
one kernel the corner-force engine also runs (into workspace buffers)
for its cached geometry and for the reference velocity gradient.

`GeometryAtPoints` instances can be frozen (read-only views) once they
enter the engine's per-stage cache — any consumer that tries to scribble
on cached geometry gets a loud ValueError instead of silently corrupting
every other consumer of the same stage.
"""

from __future__ import annotations

import numpy as np

from repro.fem.quadrature import QuadratureRule
from repro.fem.spaces import H1Space
from repro.linalg.smallmat import batched_adjugate, batched_det

__all__ = ["GeometryEvaluator", "GeometryAtPoints", "reference_gradients"]


def reference_gradients(
    coef: np.ndarray, grad_table: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """out[z, k, d, e] = sum_i coef[d, z, i] gradW[k, i, e], as GEMMs.

    coef : (dim, nz, ndz) component-major zone coefficients (positions
    give the Jacobians, velocities the reference velocity gradients);
    grad_table : (nqp, ndz, dim); out : (nz, nqp, dim, dim). One
    (nz x ndz) @ (ndz x dim) GEMM per (point, component) pair, written
    straight into `out` through a strided view.
    """
    np.matmul(coef[None], grad_table[:, None], out=out.transpose(1, 2, 0, 3))
    return out


class GeometryAtPoints:
    """Per-zone, per-point geometric data.

    Attributes (all batched over (nzones, nqp, ...)):
      jac      : Jacobians (dim, dim), jac[d, e] = d x_d / d X_e
      det      : |J| determinants
      adj      : adjugates, adj @ J = det * I

    `det`/`adj` may be passed precomputed (hot path writing into
    workspace buffers); when omitted they are derived from `jac` here.
    """

    def __init__(
        self,
        jac: np.ndarray,
        det: np.ndarray | None = None,
        adj: np.ndarray | None = None,
    ):
        self.jac = jac
        self.det = batched_det(jac) if det is None else det
        self.adj = batched_adjugate(jac) if adj is None else adj
        self._inv: np.ndarray | None = None

    @property
    def inv(self) -> np.ndarray:
        """Inverse Jacobians (lazy; adj/det is used on the hot path)."""
        if self._inv is None:
            self._inv = self.adj / self.det[..., None, None]
        return self._inv

    def set_inv(self, inv: np.ndarray) -> None:
        """Attach a precomputed inverse (hot path reuses one division)."""
        self._inv = inv

    def freeze(self) -> "GeometryAtPoints":
        """Mark every array read-only (guards the engine's geometry cache)."""
        for arr in (self.jac, self.det, self.adj, self._inv):
            if arr is not None:
                arr.setflags(write=False)
        return self

    def check_valid(self) -> bool:
        """True when every point has positive volume (untangled mesh)."""
        return bool(np.all(self.det > 0.0))


class GeometryEvaluator:
    """Evaluates Jacobians of the H1 position field at fixed points.

    The reference gradient table is tabulated once per (space, rule)
    pair — the time-constant part — while `evaluate(x)` is called every
    stage with the current node positions.
    """

    def __init__(self, space: H1Space, quad: QuadratureRule):
        if quad.dim != space.dim:
            raise ValueError("quadrature/space dimension mismatch")
        self.space = space
        self.quad = quad
        # (nqp, ndz, dim)
        self.grad_table = space.element.tabulate_grad(quad.points)

    def evaluate(self, node_coords: np.ndarray) -> GeometryAtPoints:
        """Geometry from global H1 node coordinates (ndof, dim)."""
        xz = self.space.gather(node_coords)  # (nz, ndz, dim)
        return self.evaluate_local(xz)

    def evaluate_local(self, xz: np.ndarray) -> GeometryAtPoints:
        """Geometry from zone-local coordinates (nz, ndz, dim).

        Runs the engine's Jacobian kernel on the same component-major
        layout, so the two agree bit for bit.
        """
        xz = np.asarray(xz, dtype=np.float64)
        if xz.ndim != 3 or xz.shape[1] != self.space.ndof_per_zone:
            raise ValueError("xz must be (nzones_local, ndof_per_zone, dim)")
        nz, _, dim = xz.shape
        coef = np.ascontiguousarray(xz.transpose(2, 0, 1))
        jac = np.empty((nz, self.quad.nqp, dim, dim))
        return GeometryAtPoints(reference_gradients(coef, self.grad_table, jac))

    def physical_points(self, node_coords: np.ndarray) -> np.ndarray:
        """Quadrature point positions in physical space (nz, nqp, dim)."""
        vals = self.space.element.tabulate(self.quad.points)  # (nqp, ndz)
        xz = self.space.gather(node_coords)
        return np.einsum("ki,zid->zkd", vals, xz, optimize=True)

    def zone_volumes(self, node_coords: np.ndarray) -> np.ndarray:
        """Quadrature-exact volume of each zone."""
        geo = self.evaluate(node_coords)
        return np.einsum("k,zk->z", self.quad.weights, geo.det, optimize=True)
