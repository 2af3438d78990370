"""Tests for mesh generation and topology."""

import numpy as np
import pytest

from repro.fem.mesh import Mesh, cartesian_mesh_2d, cartesian_mesh_3d


class TestCartesian2D:
    def test_counts(self):
        m = cartesian_mesh_2d(3, 2)
        assert m.nzones == 6
        assert m.nverts == 12
        assert m.dim == 2

    def test_vertex_ordering_lexicographic(self):
        m = cartesian_mesh_2d(2, 2)
        # first row of vertices along x
        assert np.allclose(m.verts[0], [0, 0])
        assert np.allclose(m.verts[1], [0.5, 0])
        assert np.allclose(m.verts[3], [0, 0.5])

    def test_zone_connectivity(self):
        m = cartesian_mesh_2d(2, 1)
        # zone 0: vertices (0,0),(1,0),(0,1),(1,1) of the 3x2 vertex grid
        assert list(m.zones[0]) == [0, 1, 3, 4]
        assert list(m.zones[1]) == [1, 2, 4, 5]

    def test_extent(self):
        m = cartesian_mesh_2d(4, 2, extent=((0.0, 7.0), (0.0, 3.0)))
        assert m.verts[:, 0].max() == pytest.approx(7.0)
        assert m.verts[:, 1].max() == pytest.approx(3.0)

    def test_zone_vertex_coords_shape(self):
        m = cartesian_mesh_2d(3, 3)
        zc = m.zone_vertex_coords()
        assert zc.shape == (9, 4, 2)
        # Every zone is an axis-aligned square of side 1/3.
        assert np.allclose(zc[:, 1, 0] - zc[:, 0, 0], 1 / 3)

    def test_min_edge_length(self):
        m = cartesian_mesh_2d(4, 2)
        assert m.min_edge_length() == pytest.approx(0.25)

    def test_rejects_zero_zones(self):
        with pytest.raises(ValueError):
            cartesian_mesh_2d(0, 3)


class TestCartesian3D:
    def test_counts(self):
        m = cartesian_mesh_3d(2, 3, 4)
        assert m.nzones == 24
        assert m.nverts == 3 * 4 * 5

    def test_zone_volume_partition(self):
        m = cartesian_mesh_3d(2, 2, 2)
        zc = m.zone_vertex_coords()
        # hexes are cubes of side 0.5
        assert np.allclose(zc[:, 7] - zc[:, 0], 0.5)

    def test_connectivity_first_zone(self):
        m = cartesian_mesh_3d(1, 1, 1)
        assert list(m.zones[0]) == [0, 1, 2, 3, 4, 5, 6, 7]


class TestMeshValidation:
    def test_rejects_bad_zone_width(self):
        with pytest.raises(ValueError):
            Mesh(np.zeros((4, 2)), np.zeros((1, 8), dtype=int))

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            Mesh(np.zeros((2, 2)), np.array([[0, 1, 2, 3]]))

    def test_zone_attributes_default(self):
        m = cartesian_mesh_2d(2, 2)
        assert np.array_equal(m.zone_attributes, np.zeros(4, dtype=int))

    def test_transform(self):
        m = cartesian_mesh_2d(2, 2)
        m2 = m.transform(lambda v: 2.0 * v)
        assert np.allclose(m2.verts, 2.0 * m.verts)
        assert m2 is not m

    def test_transform_shape_check(self):
        m = cartesian_mesh_2d(2, 2)
        with pytest.raises(ValueError):
            m.transform(lambda v: v[:1])
