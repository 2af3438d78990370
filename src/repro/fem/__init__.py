"""Finite element substrate.

Implements the discretization machinery BLAST builds on: 1D polynomial
bases and quadrature, tensor-product reference elements (the Qk family),
quad/hex meshes (`curvilinear` maps curve them), continuous (H1,
kinematic) and discontinuous (L2, thermodynamic) finite element spaces,
batched geometry evaluation (Jacobians and friends at quadrature points),
mass-matrix assembly and its partial-assembly action, sum-factorized
basis operators, and the RCB zone partitioner of the distributed backend.
"""

from repro.fem.polynomials import (
    LagrangeBasis1D,
    gauss_legendre,
    gauss_lobatto_points,
    legendre,
)
from repro.fem.quadrature import QuadratureRule, tensor_quadrature
from repro.fem.reference_element import ReferenceElement
from repro.fem.mesh import Mesh, cartesian_mesh_2d, cartesian_mesh_3d
from repro.fem.spaces import H1Space, L2Space
from repro.fem.geometry import GeometryEvaluator
from repro.fem.assembly import (
    assemble_kinematic_mass,
    assemble_thermodynamic_mass,
)
from repro.fem.partition import partition_rcb
from repro.fem import curvilinear

__all__ = [
    "LagrangeBasis1D",
    "gauss_legendre",
    "gauss_lobatto_points",
    "legendre",
    "QuadratureRule",
    "tensor_quadrature",
    "ReferenceElement",
    "Mesh",
    "cartesian_mesh_2d",
    "cartesian_mesh_3d",
    "H1Space",
    "L2Space",
    "GeometryEvaluator",
    "assemble_kinematic_mass",
    "assemble_thermodynamic_mass",
    "partition_rcb",
    "curvilinear",
]
