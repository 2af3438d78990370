"""repro — reproduction of "A Step towards Energy Efficient Computing:
Redesigning a Hydrodynamic Application on CPU-GPU" (IPDPS 2014).

The package implements BLAST's high-order finite element Lagrangian
hydrodynamics (the paper's application), the batched linear-algebra
kernel set of its GPU redesign, and a simulated CPU/GPU hardware
substrate (timing, occupancy, power: RAPL- and NVML-like interfaces)
that reproduces the paper's performance and energy evaluation.

Quickstart::

    from repro.api import RunConfig, run

    report = run("sedov", RunConfig(zones=8, t_final=0.05))
    print(report.summary())

The constructor-level API takes the same config:
`LagrangianHydroSolver(problem, RunConfig(...)).run()`.
"""

from repro.version import __version__

# Core public API re-exports (kept import-light: heavy subsystems are
# imported lazily by their subpackages).
from repro.config import RunConfig
from repro.hydro.solver import LagrangianHydroSolver, RunResult
from repro.problems.sedov import SedovProblem
from repro.problems.triple_point import TriplePointProblem
from repro.problems.taylor_green import TaylorGreenProblem
from repro.problems.noh import NohProblem
from repro.problems.saltzman import SaltzmanProblem
from repro.problems.sod import SodProblem

__all__ = [
    "__version__",
    "RunConfig",
    "LagrangianHydroSolver",
    "RunResult",
    "SedovProblem",
    "TriplePointProblem",
    "TaylorGreenProblem",
    "NohProblem",
    "SaltzmanProblem",
    "SodProblem",
]
