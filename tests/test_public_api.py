"""Public-API surface checks.

Production-quality gates: every name a package exports resolves, every
public item carries a docstring, and the documented entry points exist.
Cheap tests that catch the embarrassing breakages (renamed symbol still
in __all__, new public class with no docs) before users do.
"""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.fem",
    "repro.linalg",
    "repro.hydro",
    "repro.problems",
    "repro.kernels",
    "repro.gpu",
    "repro.cpu",
    "repro.tuning",
    "repro.runtime",
    "repro.cluster",
    "repro.analysis",
    "repro.io",
    "repro.resilience",
    "repro.telemetry",
]

MODULES = [
    "repro.fem.polynomials", "repro.fem.quadrature", "repro.fem.reference_element",
    "repro.fem.mesh", "repro.fem.spaces", "repro.fem.geometry", "repro.fem.assembly",
    "repro.fem.partition", "repro.fem.refinement", "repro.fem.curvilinear",
    "repro.linalg.csr", "repro.linalg.pcg", "repro.linalg.batched",
    "repro.linalg.smallmat", "repro.linalg.eig", "repro.linalg.svd_small",
    "repro.linalg.blockdiag", "repro.linalg.cholesky",
    "repro.hydro.state", "repro.hydro.eos", "repro.hydro.viscosity",
    "repro.hydro.corner_force", "repro.hydro.boundary", "repro.hydro.momentum",
    "repro.hydro.timestep", "repro.hydro.integrator", "repro.hydro.solver",
    "repro.hydro.diagnostics",
    "repro.problems.sedov", "repro.problems.triple_point", "repro.problems.noh",
    "repro.problems.saltzman", "repro.problems.sod", "repro.problems.taylor_green",
    "repro.kernels.config", "repro.kernels.registry", "repro.kernels.cublas",
    "repro.gpu.specs", "repro.gpu.occupancy", "repro.gpu.execution",
    "repro.gpu.power", "repro.gpu.nvml", "repro.gpu.device", "repro.gpu.pcie",
    "repro.gpu.streams", "repro.gpu.multigpu",
    "repro.cpu.specs", "repro.cpu.core_model", "repro.cpu.rapl", "repro.cpu.openmp",
    "repro.tuning.parameters", "repro.tuning.autotuner", "repro.tuning.balance",
    "repro.tuning.cache",
    "repro.runtime.mpi_sim", "repro.runtime.groups", "repro.runtime.hybrid",
    "repro.runtime.energy", "repro.backends.distributed",
    "repro.cluster.machines", "repro.cluster.scaling",
    "repro.analysis.profiles", "repro.analysis.report", "repro.analysis.convergence",
    "repro.analysis.roofline", "repro.analysis.exascale", "repro.analysis.riemann",
    "repro.io.vtk", "repro.io.checkpoint",
    "repro.resilience.faults", "repro.resilience.policy",
    "repro.resilience.watchdog", "repro.resilience.driver",
    "repro.telemetry.tracer", "repro.telemetry.sampler",
    "repro.telemetry.export", "repro.telemetry.manifest",
    "repro.config", "repro.api",
    "repro.cli",
]


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_module_imports_and_documented(name):
    mod = importlib.import_module(name)
    assert mod.__doc__ and mod.__doc__.strip(), f"{name} lacks a module docstring"


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_all_exports_resolve(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    for symbol in exported:
        assert hasattr(mod, symbol), f"{name}.__all__ lists missing '{symbol}'"


@pytest.mark.parametrize("name", MODULES)
def test_public_callables_documented(name):
    """Every public class/function defined in the module has a docstring."""
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", None)
    if exported is None:
        return
    for symbol in exported:
        obj = getattr(mod, symbol)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if getattr(obj, "__module__", None) != name:
                continue  # re-export; documented at its source
            assert obj.__doc__ and obj.__doc__.strip(), f"{name}.{symbol} undocumented"


def test_top_level_quickstart_surface():
    """The README quickstart names must exist at the top level."""
    import repro

    for name in ("SedovProblem", "LagrangianHydroSolver",
                 "TriplePointProblem", "NohProblem", "SaltzmanProblem",
                 "SodProblem", "RunConfig", "__version__"):
        assert hasattr(repro, name)


def test_facade_surface():
    """The one-call facade exists with its documented signature."""
    from repro.api import RunConfig, RunReport, make_problem, run

    assert callable(run) and callable(make_problem)
    assert RunConfig is not None and RunReport is not None


def test_cli_entry_point_exists():
    from repro.cli import build_parser, main

    assert callable(main)
    assert build_parser().prog == "repro"

