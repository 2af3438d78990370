"""The Noh implosion problem.

A cold, unit-density gas streams radially inward at speed 1; an
infinite-strength shock reflects from the origin and moves outward at
speed (gamma - 1)/2. With gamma = 5/3 the exact post-shock density is
((gamma + 1) / (gamma - 1))^dim = 16 in 2D (cylindrical) and 64 in 3D
(spherical). A brutal benchmark for Lagrangian codes (wall heating at
the origin is the classic artifact); BLAST's lineage of schemes is
routinely validated on it.

Boundary conditions: symmetry walls on the origin planes only — the
outer boundary is free and rides inward with the flow.
"""

from __future__ import annotations

import numpy as np

from repro.fem.mesh import cartesian_mesh_2d, cartesian_mesh_3d
from repro.hydro.boundary import BoundaryConditions
from repro.problems.base import Problem

__all__ = ["NohProblem"]


class NohProblem(Problem):
    """Noh implosion on [0, 1]^dim (one quadrant/octant)."""

    name = "noh"
    default_t_final = 0.25
    default_cfl = 0.4

    def __init__(
        self,
        dim: int = 2,
        order: int = 2,
        zones_per_dim: int = 8,
        gamma: float = 5.0 / 3.0,
        background_e: float = 1e-10,
    ):
        if dim == 2:
            mesh = cartesian_mesh_2d(zones_per_dim, zones_per_dim)
        elif dim == 3:
            mesh = cartesian_mesh_3d(zones_per_dim, zones_per_dim, zones_per_dim)
        else:
            raise ValueError("Noh problem supports dim 2 and 3")
        super().__init__(mesh, order)
        self.gamma = gamma
        self.background_e = background_e

    def make_eos(self):
        from repro.hydro.eos import GammaLawEOS

        return GammaLawEOS(gamma=self.gamma)

    def v0(self, pts: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(pts, axis=1)
        safe = np.maximum(r, 1e-14)
        v = -pts / safe[:, None]
        v[r < 1e-12] = 0.0  # the origin node is stagnant by symmetry
        return v

    def e0(self, pts: np.ndarray) -> np.ndarray:
        return np.full(pts.shape[0], self.background_e)

    def boundary_conditions(self, space) -> BoundaryConditions:
        """Walls on the origin planes; the outer boundary is free."""
        return BoundaryConditions.box_faces(
            space, faces=[(d, "lo") for d in range(self.dim)]
        )

    # -- Exact solution helpers ------------------------------------------------

    def shock_speed(self) -> float:
        return 0.5 * (self.gamma - 1.0)

    def shock_radius(self, t: float) -> float:
        return self.shock_speed() * t

    def post_shock_density(self) -> float:
        """((gamma+1)/(gamma-1))^dim: 16 in 2D, 64 in 3D at gamma=5/3."""
        return ((self.gamma + 1.0) / (self.gamma - 1.0)) ** self.dim
