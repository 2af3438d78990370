"""Velocity boundary conditions.

The paper's benchmarks run in a box with symmetry walls: the normal
velocity component vanishes on every boundary face (one octant/quadrant
of the blast is simulated). For axis-aligned generator meshes this is a
per-component dof constraint, which the momentum solve enforces by
eliminating constrained rows/columns — the standard MFEM treatment, and
the one that keeps the discrete total-energy identity exact. The solve
(`repro.hydro.momentum`) applies the elimination as a 0/1 mask of each
component's free dofs on its right-hand side and operator outputs, with
`eliminated_diagonal` as the Jacobi diagonal.
"""

from __future__ import annotations

import numpy as np

from repro.fem.spaces import H1Space

__all__ = ["BoundaryConditions"]


class BoundaryConditions:
    """A set of (dof, component) velocity constraints.

    Constraints are *prescribed constant values* (zero for symmetry
    walls, non-zero for moving pistons a la Saltzman): the momentum
    solve pins the acceleration of a constrained component to zero, so
    the velocity stays at whatever `apply_to_field` installed.
    """

    def __init__(self, ndof: int, dim: int):
        self.ndof = ndof
        self.dim = dim
        self.mask = np.zeros((ndof, dim), dtype=bool)
        self.values = np.zeros((ndof, dim))

    @classmethod
    def box_symmetry(cls, space: H1Space, tol: float = 1e-9) -> "BoundaryConditions":
        """Zero normal velocity on all faces of the initial bounding box."""
        return cls.box_faces(space, faces=None, tol=tol)

    @classmethod
    def box_faces(
        cls,
        space: H1Space,
        faces: list[tuple[int, str]] | None = None,
        tol: float = 1e-9,
    ) -> "BoundaryConditions":
        """Symmetry walls on selected box faces.

        `faces` lists (axis, side) pairs with side in {"lo", "hi"};
        None means every face (the full-box symmetry of the Sedov and
        triple-point setups). Problems with free outer boundaries (Noh)
        constrain only the origin planes.
        """
        bc = cls(space.ndof, space.dim)
        lo = space.node_coords.min(axis=0)
        hi = space.node_coords.max(axis=0)
        scale = max(float(np.max(hi - lo)), 1.0)
        if faces is None:
            faces = [(d, side) for d in range(space.dim) for side in ("lo", "hi")]
        for axis, side in faces:
            if not 0 <= axis < space.dim or side not in ("lo", "hi"):
                raise ValueError(f"bad face spec ({axis}, {side})")
            value = lo[axis] if side == "lo" else hi[axis]
            dofs = np.flatnonzero(np.abs(space.node_coords[:, axis] - value) < tol * scale)
            bc.mask[dofs, axis] = True
        return bc

    @classmethod
    def none(cls, space: H1Space) -> "BoundaryConditions":
        return cls(space.ndof, space.dim)

    def constrain(self, dofs: np.ndarray, component: int, value: float = 0.0) -> None:
        """Prescribe one velocity component at given dofs."""
        if not 0 <= component < self.dim:
            raise ValueError("component out of range")
        dofs = np.asarray(dofs, dtype=np.int64)
        self.mask[dofs, component] = True
        self.values[dofs, component] = value

    @property
    def n_constrained(self) -> int:
        return int(self.mask.sum())

    def apply_to_field(self, field: np.ndarray) -> np.ndarray:
        """Install prescribed values in-place; returns the field."""
        field[self.mask] = self.values[self.mask]
        return field

    def component_mask(self, d: int) -> np.ndarray:
        return self.mask[:, d]

    def eliminated_diagonal(self, diag: np.ndarray, d: int) -> np.ndarray:
        """Matching Jacobi diagonal (1 on constrained dofs)."""
        out = diag.copy()
        out[self.mask[:, d]] = 1.0
        return out
