"""Tests for domain partitioning."""

import numpy as np
import pytest

from repro.fem.partition import partition_rcb


class TestRCB:
    def test_balanced_power_of_two(self, rng):
        pts = rng.random((64, 2))
        rank = partition_rcb(pts, 8)
        assert np.all(np.bincount(rank) == 8)

    def test_balanced_non_power_of_two(self, rng):
        pts = rng.random((30, 3))
        rank = partition_rcb(pts, 5)
        counts = np.bincount(rank, minlength=5)
        assert counts.max() - counts.min() <= 1

    def test_spatial_locality(self):
        """Two well-separated clusters split along the gap."""
        left = np.column_stack([np.linspace(0, 1, 10), np.zeros(10)])
        right = np.column_stack([np.linspace(10, 11, 10), np.zeros(10)])
        rank = partition_rcb(np.vstack([left, right]), 2)
        assert len(set(rank[:10])) == 1
        assert len(set(rank[10:])) == 1
        assert rank[0] != rank[-1]

    def test_single_part(self, rng):
        assert np.all(partition_rcb(rng.random((5, 2)), 1) == 0)

    def test_rejects_more_parts_than_zones(self, rng):
        with pytest.raises(ValueError):
            partition_rcb(rng.random((3, 2)), 4)
