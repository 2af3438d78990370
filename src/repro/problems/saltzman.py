"""The Saltzman piston problem.

A unit-speed piston drives a planar shock through a cold gas meshed
with deliberately *skewed* zones — the acid test for multidimensional
Lagrangian schemes, which must keep the planar shock planar despite the
mesh distortion. With gamma = 5/3 the shock runs at 4/3 and compresses
the gas to rho = 4.

The piston is a prescribed-velocity boundary (v_x = 1 at the left
wall), exercising the inhomogeneous-constraint path of the momentum
solver; total energy is *not* conserved — it grows by exactly the work
the piston does on the gas.
"""

from __future__ import annotations

import numpy as np

from repro.fem.mesh import cartesian_mesh_2d
from repro.hydro.boundary import BoundaryConditions
from repro.problems.base import Problem

__all__ = ["SaltzmanProblem"]


class SaltzmanProblem(Problem):
    """2D Saltzman piston on [0, 1] x [0, 0.1] with a skewed mesh."""

    name = "saltzman"
    default_t_final = 0.4
    default_cfl = 0.3

    PISTON_SPEED = 1.0

    def __init__(
        self,
        order: int = 2,
        nx: int = 20,
        ny: int = 2,
        skew: float = 0.25,
        gamma: float = 5.0 / 3.0,
        background_e: float = 1e-8,
    ):
        if not (0.0 <= skew < 1.0):
            raise ValueError("skew must be in [0, 1)")
        mesh = cartesian_mesh_2d(nx, ny, extent=((0.0, 1.0), (0.0, 0.1)))
        if skew:
            height = 0.1

            def skew_map(verts: np.ndarray) -> np.ndarray:
                out = verts.copy()
                # The classic Saltzman distortion: x shifted by a
                # y-dependent sine, vanishing at both walls' corners.
                out[:, 0] += skew * (height - verts[:, 1]) * np.sin(np.pi * verts[:, 0]) / 2.0
                return out

            mesh = mesh.transform(skew_map)
        super().__init__(mesh, order)
        self.gamma = gamma
        self.skew = skew
        self.background_e = background_e

    def make_eos(self):
        from repro.hydro.eos import GammaLawEOS

        return GammaLawEOS(gamma=self.gamma)

    def e0(self, pts: np.ndarray) -> np.ndarray:
        return np.full(pts.shape[0], self.background_e)

    def v0(self, pts: np.ndarray) -> np.ndarray:
        v = np.zeros_like(pts)
        # The piston face starts moving at t=0.
        v[np.abs(pts[:, 0]) < 1e-12, 0] = self.PISTON_SPEED
        return v

    def boundary_conditions(self, space) -> BoundaryConditions:
        bc = BoundaryConditions.box_faces(
            space, faces=[(0, "hi"), (1, "lo"), (1, "hi")]
        )
        piston = space.boundary_dofs_on_plane(0, 0.0)
        bc.constrain(piston, component=0, value=self.PISTON_SPEED)
        return bc

    # -- Exact solution helpers ------------------------------------------------

    def shock_speed(self) -> float:
        """Strong piston shock: D = (gamma+1)/2 * u_piston."""
        return 0.5 * (self.gamma + 1.0) * self.PISTON_SPEED

    def post_shock_density(self) -> float:
        """(gamma+1)/(gamma-1) = 4 at gamma=5/3."""
        return (self.gamma + 1.0) / (self.gamma - 1.0)

    def piston_work(self, t: float) -> float:
        """Energy delivered by the piston: the shocked slab's energy.

        The strong-shock solution: mass swept = rho0 * D * t per unit
        height; post-shock velocity = u_p; specific total energy =
        u_p^2/2 (kinetic) + u_p^2/2 (internal, strong shock) = u_p^2.
        Domain height is 0.1.
        """
        d = self.shock_speed()
        height = 0.1
        swept_mass = 1.0 * d * t * height
        return swept_mass * self.PISTON_SPEED**2 * 0.5 * 2.0
