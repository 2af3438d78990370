"""Domain partitioning for the (simulated) MPI layer.

BLAST delegates domain splitting to MFEM at initialization (step 2 of
the algorithm); each MPI task owns a contiguous set of zones. We provide
two partitioners: a Cartesian block splitter for generator meshes (what
the paper's structured test problems use) and a recursive coordinate
bisection (RCB) partitioner for general zone clouds, plus helpers to
validate a partition's balance and connectivity.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.fem.mesh import Mesh

__all__ = [
    "partition_cartesian",
    "partition_rcb",
    "partition_balance",
    "zone_adjacency",
]


def partition_cartesian(mesh: Mesh, parts_per_dim: tuple[int, ...]) -> np.ndarray:
    """Block partition of a generator mesh into a grid of subdomains.

    Returns (nzones,) rank ids. Requires `mesh.grid_shape`.
    """
    if mesh.grid_shape is None:
        raise ValueError("cartesian partition requires a generator mesh with grid_shape")
    dims = mesh.grid_shape
    if len(parts_per_dim) != len(dims):
        raise ValueError("parts_per_dim must match mesh dimensionality")
    for n, p in zip(dims, parts_per_dim):
        if p < 1 or p > n:
            raise ValueError(f"cannot split {n} zones into {p} parts")
    # Zone (i, j, k) index from the lexicographic zone id (x fastest).
    idx = np.arange(mesh.nzones)
    coords = []
    for n in dims:
        coords.append(idx % n)
        idx //= n
    rank = np.zeros(mesh.nzones, dtype=np.int64)
    stride = 1
    for c, n, p in zip(coords, dims, parts_per_dim):
        # Balanced 1D block split: first (n % p) blocks get one extra.
        block = (c * p) // n
        rank += block * stride
        stride *= p
    return rank


def partition_rcb(centroids: np.ndarray, nparts: int) -> np.ndarray:
    """Recursive coordinate bisection over zone centroids.

    Splits the widest coordinate direction at the weighted median, giving
    each side a zone count proportional to its share of parts. Handles
    any nparts >= 1 (not just powers of two).
    """
    centroids = np.asarray(centroids, dtype=np.float64)
    if centroids.ndim != 2:
        raise ValueError("centroids must be (nzones, dim)")
    if nparts < 1:
        raise ValueError("nparts must be >= 1")
    n = centroids.shape[0]
    if nparts > n:
        raise ConfigError(f"{nparts} parts for {n} zones: more parts than zones")
    rank = np.zeros(n, dtype=np.int64)

    def recurse(ids: np.ndarray, parts: int, base: int) -> None:
        if parts == 1:
            rank[ids] = base
            return
        pts = centroids[ids]
        spans = pts.max(axis=0) - pts.min(axis=0)
        axis = int(np.argmax(spans))
        left_parts = parts // 2
        right_parts = parts - left_parts
        ncut = (ids.size * left_parts) // parts
        order = np.argsort(pts[:, axis], kind="stable")
        recurse(ids[order[:ncut]], left_parts, base)
        recurse(ids[order[ncut:]], right_parts, base + left_parts)

    recurse(np.arange(n), nparts, 0)
    return rank


def partition_balance(rank: np.ndarray, nparts: int | None = None) -> float:
    """Load imbalance factor: max part size over mean part size (>= 1)."""
    rank = np.asarray(rank)
    if nparts is None:
        nparts = int(rank.max()) + 1 if rank.size else 0
    counts = np.bincount(rank, minlength=nparts)
    if nparts == 0 or counts.sum() == 0:
        return 1.0
    return float(counts.max() / (counts.sum() / nparts))


def zone_adjacency(mesh: Mesh) -> list[tuple[int, int]]:
    """Zone pairs sharing at least one vertex (communication graph edges)."""
    from collections import defaultdict

    by_vertex: dict[int, list[int]] = defaultdict(list)
    for z, vs in enumerate(mesh.zones):
        for v in vs:
            by_vertex[int(v)].append(z)
    edges = set()
    for zs in by_vertex.values():
        for i in range(len(zs)):
            for j in range(i + 1, len(zs)):
                edges.add((zs[i], zs[j]) if zs[i] < zs[j] else (zs[j], zs[i]))
    return sorted(edges)
