"""Quad/hex meshes for the Lagrangian hydro solver.

BLAST runs on 2D quad and 3D hex (possibly curvilinear) meshes. A `Mesh`
here is the *topology*: vertices and zone connectivity in lexicographic
vertex order. High-order (curved) geometry lives in the H1 space node
coordinates, which move with the fluid; the mesh connectivity is fixed
for the lifetime of a Lagrangian run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ConfigError

__all__ = ["Mesh", "cartesian_mesh_2d", "cartesian_mesh_3d"]


@dataclass
class Mesh:
    """Unstructured quad (2D) or hex (3D) mesh.

    Attributes
    ----------
    verts : (nverts, dim) vertex coordinates.
    zones : (nzones, 2**dim) vertex ids per zone, lexicographic order
        with the x index fastest: 2D (v00, v10, v01, v11); 3D appends the
        z layers (v000, v100, v010, v110, v001, ...).
    zone_attributes : (nzones,) integer material/region tags.
    """

    verts: np.ndarray
    zones: np.ndarray
    zone_attributes: np.ndarray = None

    def __post_init__(self):
        self.verts = np.asarray(self.verts, dtype=np.float64)
        self.zones = np.asarray(self.zones, dtype=np.int64)
        if self.verts.ndim != 2 or self.verts.shape[1] not in (1, 2, 3):
            raise ValueError("verts must be (nverts, dim), dim in {1,2,3}")
        dim = self.verts.shape[1]
        if self.zones.ndim != 2 or self.zones.shape[1] != 2**dim:
            raise ValueError(f"zones must be (nzones, {2**dim}) for dim={dim}")
        if self.zones.size and (self.zones.min() < 0 or self.zones.max() >= self.verts.shape[0]):
            raise ValueError("zone vertex index out of range")
        if self.zone_attributes is None:
            self.zone_attributes = np.zeros(self.zones.shape[0], dtype=np.int64)
        else:
            self.zone_attributes = np.asarray(self.zone_attributes, dtype=np.int64)
            if self.zone_attributes.shape != (self.zones.shape[0],):
                raise ValueError("zone_attributes must be (nzones,)")

    @property
    def dim(self) -> int:
        return self.verts.shape[1]

    @property
    def nverts(self) -> int:
        return self.verts.shape[0]

    @property
    def nzones(self) -> int:
        return self.zones.shape[0]

    def zone_vertex_coords(self) -> np.ndarray:
        """(nzones, 2**dim, dim) coordinates of each zone's vertices."""
        return self.verts[self.zones]

    def min_edge_length(self) -> float:
        """Shortest vertex-to-vertex edge (sets geometric hash tolerance)."""
        zc = self.zone_vertex_coords()
        dim = self.dim
        best = np.inf
        # Edges of the reference square/cube in lexicographic vertex order.
        if dim == 1:
            pairs = [(0, 1)]
        elif dim == 2:
            pairs = [(0, 1), (2, 3), (0, 2), (1, 3)]
        else:
            pairs = [
                (0, 1), (2, 3), (4, 5), (6, 7),
                (0, 2), (1, 3), (4, 6), (5, 7),
                (0, 4), (1, 5), (2, 6), (3, 7),
            ]
        for a, b in pairs:
            d = np.linalg.norm(zc[:, a] - zc[:, b], axis=1)
            m = d.min() if d.size else np.inf
            best = min(best, float(m))
        return best

    def transform(self, fn: Callable[[np.ndarray], np.ndarray]) -> "Mesh":
        """Return a copy with vertices mapped through `fn` (curving etc.)."""
        new_verts = np.asarray(fn(self.verts.copy()), dtype=np.float64)
        if new_verts.shape != self.verts.shape:
            raise ValueError("transform must preserve vertex array shape")
        return Mesh(new_verts, self.zones.copy(), self.zone_attributes.copy())


def _structured_zones(dims: tuple[int, ...]) -> np.ndarray:
    """Zone connectivity of a structured vertex grid (x index fastest)."""
    if len(dims) == 2:
        nx, ny = dims
        vx = nx + 1
        i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
        i = i.T.ravel()
        j = j.T.ravel()
        v00 = i + vx * j
        return np.column_stack([v00, v00 + 1, v00 + vx, v00 + vx + 1])
    nx, ny, nz = dims
    vx, vy = nx + 1, ny + 1
    i, j, k = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
    t = (2, 1, 0)
    i = i.transpose(t).ravel()
    j = j.transpose(t).ravel()
    k = k.transpose(t).ravel()
    v0 = i + vx * (j + vy * k)
    dzy = vx * vy
    return np.column_stack(
        [v0, v0 + 1, v0 + vx, v0 + vx + 1, v0 + dzy, v0 + dzy + 1, v0 + dzy + vx, v0 + dzy + vx + 1]
    )


def cartesian_mesh_2d(
    nx: int,
    ny: int,
    extent: tuple[tuple[float, float], tuple[float, float]] = ((0.0, 1.0), (0.0, 1.0)),
) -> Mesh:
    """Uniform nx-by-ny quad mesh over a rectangle."""
    if nx < 1 or ny < 1:
        raise ConfigError(f"need at least one zone per direction, got {nx}x{ny}")
    (x0, x1), (y0, y1) = extent
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    verts = np.column_stack([X.T.ravel(), Y.T.ravel()])
    zones = _structured_zones((nx, ny))
    return Mesh(verts, zones)


def cartesian_mesh_3d(
    nx: int,
    ny: int,
    nz: int,
    extent: tuple[tuple[float, float], ...] = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)),
) -> Mesh:
    """Uniform nx-by-ny-by-nz hex mesh over a box."""
    if min(nx, ny, nz) < 1:
        raise ConfigError(
            f"need at least one zone per direction, got {nx}x{ny}x{nz}"
        )
    (x0, x1), (y0, y1), (z0, z1) = extent
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    zs = np.linspace(z0, z1, nz + 1)
    X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij")
    t = (2, 1, 0)
    verts = np.column_stack([X.transpose(t).ravel(), Y.transpose(t).ravel(), Z.transpose(t).ravel()])
    zones = _structured_zones((nx, ny, nz))
    return Mesh(verts, zones)
