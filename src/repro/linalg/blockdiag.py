"""Block-diagonal operator with precomputed inverse blocks.

The thermodynamic mass matrix M_E is symmetric block diagonal, one dense
block per zone (the thermodynamic basis is discontinuous). Following the
paper, the inverse of each local block is computed once at initialization
and applied every time step — the energy equation (2) is then a batched
dense solve that the GPU expresses as SpMV on the inverse (kernel 11).
"""

from __future__ import annotations

import numpy as np

__all__ = ["BlockDiagonalMatrix"]


class BlockDiagonalMatrix:
    """Square block-diagonal matrix stored as (nblocks, bs, bs)."""

    def __init__(self, blocks: np.ndarray):
        blocks = np.asarray(blocks, dtype=np.float64)
        if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2]:
            raise ValueError("blocks must be (nblocks, bs, bs)")
        self.blocks = blocks
        self.nblocks = blocks.shape[0]
        self.block_size = blocks.shape[1]
        self.n = self.nblocks * self.block_size
        self._inv: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    def precompute_inverse(self) -> np.ndarray:
        """Factor every block once (the paper's initialization step)."""
        if self._inv is None:
            self._inv = np.linalg.inv(self.blocks)
        return self._inv

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"x must have shape ({self.n},)")
        xb = x.reshape(self.nblocks, self.block_size)
        return np.einsum("bij,bj->bi", self.blocks, xb).ravel()

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x = M^{-1} b using the precomputed block inverses."""
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (self.n,):
            raise ValueError(f"b must have shape ({self.n},)")
        inv = self.precompute_inverse()
        bb = b.reshape(self.nblocks, self.block_size)
        return np.einsum("bij,bj->bi", inv, bb).ravel()

    def diagonal(self) -> np.ndarray:
        return np.einsum("bii->bi", self.blocks).ravel()

    def is_symmetric(self, tol: float = 1e-12) -> bool:
        return bool(np.allclose(self.blocks, np.swapaxes(self.blocks, 1, 2), atol=tol, rtol=tol))
