"""Curvilinear mesh transformations and generators.

BLAST supports "2D (triangles, quads) and 3D (tets, hexes) unstructured
curvilinear meshes". This module provides the standard smooth maps used
to curve Cartesian generator meshes (twists, sinusoidal perturbations)
plus polar generators (annulus/disk sectors) — all composable with
`Mesh.transform`. Each map documents its Jacobian behaviour so tests
can assert validity.
"""

from __future__ import annotations

import numpy as np

from repro.fem.mesh import Mesh

__all__ = [
    "twist_2d",
    "sinusoid",
    "stretch",
    "annulus_mesh_2d",
    "apply_to_space",
    "validate_positive_jacobians",
]


def twist_2d(amplitude: float = 0.1):
    """Rotation by an angle growing with radius about the domain centre.

    Keeps det J = 1 pointwise (a pure rotation field composed with the
    identity radial map) for moderate amplitudes.
    """

    def fn(verts: np.ndarray) -> np.ndarray:
        if verts.shape[1] != 2:
            raise ValueError("twist_2d applies to 2D meshes")
        centre = 0.5 * (verts.min(axis=0) + verts.max(axis=0))
        rel = verts - centre
        r = np.linalg.norm(rel, axis=1)
        theta = amplitude * r
        c, s = np.cos(theta), np.sin(theta)
        out = np.empty_like(verts)
        out[:, 0] = centre[0] + c * rel[:, 0] - s * rel[:, 1]
        out[:, 1] = centre[1] + s * rel[:, 0] + c * rel[:, 1]
        return out

    return fn


def sinusoid(amplitude: float = 0.05, waves: int = 1):
    """Displace each coordinate by a sine of the others.

    The classic 'wavy' mesh for exercising curved Jacobians; valid
    (det J > 0) while amplitude * waves * pi < ~0.5 on a unit box.
    """

    def fn(verts: np.ndarray) -> np.ndarray:
        out = verts.copy()
        dim = verts.shape[1]
        k = waves * np.pi
        for d in range(dim):
            other = verts[:, (d + 1) % dim]
            out[:, d] += amplitude * np.sin(k * other)
        return out

    return fn


def stretch(factors) -> callable:
    """Anisotropic axis scaling."""
    factors = np.asarray(factors, dtype=np.float64)
    if np.any(factors <= 0):
        raise ValueError("stretch factors must be positive")

    def fn(verts: np.ndarray) -> np.ndarray:
        if verts.shape[1] != factors.size:
            raise ValueError("factor count must match mesh dimension")
        return verts * factors

    return fn


def annulus_mesh_2d(
    nr: int,
    ntheta: int,
    r_inner: float = 0.5,
    r_outer: float = 1.0,
    angle: float = np.pi / 2,
) -> Mesh:
    """Polar quad mesh of an annulus sector.

    Built by mapping a Cartesian (nr x ntheta) grid through
    (r, theta) -> (r cos theta, r sin theta); zones are genuinely
    curved once equipped with an order >= 2 geometry.
    """
    if nr < 1 or ntheta < 1:
        raise ValueError("need at least one zone per direction")
    if not (0 < r_inner < r_outer):
        raise ValueError("need 0 < r_inner < r_outer")
    if not (0 < angle <= 2 * np.pi):
        raise ValueError("angle must be in (0, 2*pi]")
    from repro.fem.mesh import cartesian_mesh_2d

    base = cartesian_mesh_2d(nr, ntheta, extent=((r_inner, r_outer), (0.0, angle)))

    def polar(verts: np.ndarray) -> np.ndarray:
        r, theta = verts[:, 0], verts[:, 1]
        return np.column_stack([r * np.cos(theta), r * np.sin(theta)])

    return base.transform(polar)


def apply_to_space(space, fn) -> None:
    """Curve the *high-order geometry* of an H1 space in place.

    `Mesh.transform` moves only the vertices: high-order nodes are then
    placed by the multilinear map, so edges stay straight. Mapping the
    space's node coordinates directly gives genuinely curved
    (isoparametric) zones — e.g. polar maps become spectrally accurate
    instead of polygonal. Raises if the curved geometry tangles.
    """
    new_coords = np.asarray(fn(space.node_coords.copy()), dtype=np.float64)
    if new_coords.shape != space.node_coords.shape:
        raise ValueError("transform must preserve the node array shape")
    from repro.fem.geometry import GeometryEvaluator
    from repro.fem.quadrature import tensor_quadrature

    quad = tensor_quadrature(space.dim, max(2 * space.order, 2))
    geo = GeometryEvaluator(space, quad).evaluate(new_coords)
    if not geo.check_valid():
        raise ValueError("transform tangles the high-order geometry")
    space.node_coords = new_coords


def validate_positive_jacobians(mesh: Mesh, order: int = 2, quad_points: int | None = None) -> bool:
    """Check the order-`order` geometry of `mesh` is untangled."""
    from repro.fem.geometry import GeometryEvaluator
    from repro.fem.quadrature import tensor_quadrature
    from repro.fem.spaces import H1Space

    space = H1Space(mesh, order)
    quad = tensor_quadrature(mesh.dim, quad_points or 2 * order)
    geo = GeometryEvaluator(space, quad).evaluate(space.node_coords)
    return geo.check_valid()
