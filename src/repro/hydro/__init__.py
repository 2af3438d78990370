"""Lagrangian hydrodynamics core (the BLAST algorithm).

Implements the semi-discrete conservation laws of the paper's Section 2:

* momentum:  M_V dv/dt = -F . 1      (global sparse PCG solve)
* energy:    de/dt = M_E^{-1} F^T v  (precomputed block inverses)
* motion:    dx/dt = v

with the generalized corner-force matrix F assembled zone-by-zone from a
quadrature-point contraction of the total stress (pressure + tensor
artificial viscosity) against the kinematic basis gradients, eq. (4)-(6).
"""

from repro.hydro.state import HydroState
from repro.hydro.eos import GammaLawEOS
from repro.hydro.viscosity import ViscosityCoefficients, tensor_viscosity
from repro.hydro.corner_force import ForceEngine, ForceResult
from repro.hydro.timestep import TimestepController
from repro.hydro.integrator import RK2AvgIntegrator
from repro.hydro.solver import LagrangianHydroSolver, RunResult
from repro.hydro.diagnostics import EnergyBreakdown

__all__ = [
    "HydroState",
    "GammaLawEOS",
    "ViscosityCoefficients",
    "tensor_viscosity",
    "ForceEngine",
    "ForceResult",
    "TimestepController",
    "RK2AvgIntegrator",
    "LagrangianHydroSolver",
    "RunResult",
    "EnergyBreakdown",
]
