"""Shared fixtures for the test suite, and its warning policy."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.fem.mesh import cartesian_mesh_2d, cartesian_mesh_3d
from repro.fem.quadrature import tensor_quadrature
from repro.fem.spaces import H1Space, L2Space


_TESTS_DIR = Path(__file__).parent
# A leaked file handle fails the test that leaks it: its ResourceWarning,
# also when raised from a finalizer (pytest reports those as unraisable).
_LEAK_FILTERS = (
    "error::ResourceWarning",
    "error::pytest.PytestUnraisableExceptionWarning",
)


def pytest_collection_modifyitems(config, items):
    for item in items:
        if _TESTS_DIR in item.path.parents:
            for spec in _LEAK_FILTERS:
                item.add_marker(pytest.mark.filterwarnings(spec))


@pytest.fixture
def rng():
    return np.random.default_rng(20140519)  # IPDPS 2014 conference date


@pytest.fixture
def mesh2d():
    return cartesian_mesh_2d(3, 2)


@pytest.fixture
def mesh3d():
    return cartesian_mesh_3d(2, 2, 2)


@pytest.fixture
def h1_q2_2d(mesh2d):
    return H1Space(mesh2d, 2)


@pytest.fixture
def l2_q1_2d(mesh2d):
    return L2Space(mesh2d, 1)


@pytest.fixture
def quad2d():
    return tensor_quadrature(2, 4)


@pytest.fixture
def quad3d():
    return tensor_quadrature(3, 4)
