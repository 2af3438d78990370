"""Tests for the block-diagonal operator."""

import numpy as np
import pytest

from repro.linalg.blockdiag import BlockDiagonalMatrix


def spd_blocks(rng, nb, bs):
    a = rng.standard_normal((nb, bs, bs))
    return a @ np.swapaxes(a, 1, 2) + 2 * np.eye(bs)


class TestBlockDiagonal:
    def test_matvec_matches_dense(self, rng):
        blocks = spd_blocks(rng, 4, 3)
        m = BlockDiagonalMatrix(blocks)
        x = rng.standard_normal(12)
        dense = np.zeros((12, 12))
        for i in range(4):
            dense[3 * i : 3 * i + 3, 3 * i : 3 * i + 3] = blocks[i]
        assert np.allclose(m.matvec(x), dense @ x)

    def test_solve_roundtrip(self, rng):
        m = BlockDiagonalMatrix(spd_blocks(rng, 5, 4))
        b = rng.standard_normal(20)
        assert np.allclose(m.matvec(m.solve(b)), b, atol=1e-10)

    def test_inverse_precomputed_once(self, rng):
        m = BlockDiagonalMatrix(spd_blocks(rng, 3, 2))
        inv1 = m.precompute_inverse()
        inv2 = m.precompute_inverse()
        assert inv1 is inv2  # cached, per the paper's init-once strategy

    def test_diagonal(self, rng):
        blocks = spd_blocks(rng, 3, 2)
        m = BlockDiagonalMatrix(blocks)
        assert np.allclose(m.diagonal(), np.concatenate([np.diag(b) for b in blocks]))

    def test_symmetry_check(self, rng):
        sym = BlockDiagonalMatrix(spd_blocks(rng, 2, 3))
        assert sym.is_symmetric()
        nonsym = BlockDiagonalMatrix(rng.standard_normal((2, 3, 3)))
        assert not nonsym.is_symmetric()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BlockDiagonalMatrix(np.zeros((2, 3, 4)))
        m = BlockDiagonalMatrix(np.eye(2)[None])
        with pytest.raises(ValueError):
            m.matvec(np.ones(3))
        with pytest.raises(ValueError):
            m.solve(np.ones(3))

    def test_shape_property(self, rng):
        m = BlockDiagonalMatrix(spd_blocks(rng, 6, 5))
        assert m.shape == (30, 30)
