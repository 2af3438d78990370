"""Domain partitioning for the (simulated) MPI layer.

BLAST delegates domain splitting to MFEM at initialization (step 2 of
the algorithm); each MPI task owns a contiguous set of zones. The one
partitioner is recursive coordinate bisection (RCB) over zone centroids,
which splits any mesh, structured or curved, into any number of parts.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

__all__ = ["partition_rcb"]


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
