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
    "repro.fem.partition", "repro.fem.curvilinear",
    "repro.linalg.csr", "repro.linalg.pcg", "repro.linalg.smallmat",
    "repro.linalg.eig", "repro.linalg.svd_small", "repro.linalg.blockdiag",
    "repro.hydro.state", "repro.hydro.eos", "repro.hydro.viscosity",
    "repro.hydro.corner_force", "repro.hydro.boundary", "repro.hydro.momentum",
    "repro.hydro.timestep", "repro.hydro.integrator", "repro.hydro.solver",
    "repro.hydro.diagnostics",
    "repro.problems.sedov", "repro.problems.triple_point", "repro.problems.noh",
    "repro.problems.saltzman", "repro.problems.sod", "repro.problems.taylor_green",
    "repro.kernels.config", "repro.kernels.registry", "repro.kernels.cublas",
    "repro.gpu.specs", "repro.gpu.occupancy", "repro.gpu.execution",
    "repro.gpu.power", "repro.gpu.device", "repro.gpu.pcie",
    "repro.gpu.streams",
    "repro.cpu.specs", "repro.cpu.core_model", "repro.cpu.rapl", "repro.cpu.openmp",
    "repro.tuning.parameters", "repro.tuning.autotuner", "repro.tuning.balance",
    "repro.tuning.cache",
    "repro.runtime.mpi_sim", "repro.runtime.groups", "repro.runtime.hybrid",
    "repro.runtime.energy", "repro.backends.distributed",
    "repro.cluster.machines", "repro.cluster.scaling",
    "repro.analysis.profiles", "repro.analysis.report", "repro.analysis.convergence",
    "repro.analysis.riemann",
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



#: Exports that no non-test code reads, kept on purpose. Keys are
#: modules (every export defined there) or single export names.
UNREAD_EXPORTS_KEPT = {
    "repro.fem.curvilinear":
        "the only non-affine meshes the solver's energy test runs on",
    "repro.analysis.convergence":
        "the only p-convergence check of the solver",
    "batched_dgemm_roofline_gflops":
        "the paper's 52 Gflop/s roof that test_kernels holds kernel 5 to",
}


def _non_test_lines() -> list[str]:
    """Source lines that can read an export, minus those that only name it.

    `src/` without its `__all__` assignments and import statements, plus
    `benchmarks/`, `examples/` and `perfbench/` without `perfbench/tests/`.
    """
    import ast
    from pathlib import Path

    repo = Path(__file__).resolve().parents[1]
    out = []
    for path in sorted((repo / "src").rglob("*.py")):
        lines = path.read_text().splitlines()
        skip = set()
        for node in ast.walk(ast.parse("\n".join(lines))):
            names_all = isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            )
            if names_all or isinstance(node, (ast.Import, ast.ImportFrom)):
                skip.update(range(node.lineno - 1, node.end_lineno))
        out.extend(line for i, line in enumerate(lines) if i not in skip)
    for top in ("benchmarks", "examples", "perfbench"):
        for path in sorted((repo / top).rglob("*.py")):
            if repo / "perfbench" / "tests" not in path.parents:
                out.extend(path.read_text().splitlines())
    return out


def test_every_export_has_a_non_test_reader():
    """Each name in a `__all__` under `repro` occurs, as a whole word, in
    non-test code other than its own definition line (f-strings and
    docstrings count). Modules are found by walking the package.

    This checks exports only: a dead method or an unexported function
    is not caught here.
    """
    import pkgutil
    import re
    import types

    import repro

    lines = _non_test_lines()
    where: dict[str, list[int]] = {}
    for i, line in enumerate(lines):
        for word in set(re.findall(r"\w+", line)):
            where.setdefault(word, []).append(i)
    names = ["repro"] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.name != "repro.__main__"  # importing it runs the CLI
    ]
    unread = []
    for name in names:
        mod = importlib.import_module(name)
        for symbol in getattr(mod, "__all__", ()):
            obj = getattr(mod, symbol)
            if isinstance(obj, types.ModuleType):
                origin = obj.__name__
            elif inspect.isclass(obj) or inspect.isfunction(obj):
                origin = obj.__module__
            else:
                origin = name
            if origin in UNREAD_EXPORTS_KEPT or symbol in UNREAD_EXPORTS_KEPT:
                continue
            s = re.escape(symbol)
            defines = re.compile(rf"\s*(?:def|class)\s+{s}\b|{s}\s*[:=]")
            if all(defines.match(lines[i]) for i in where.get(symbol, ())):
                unread.append(f"{name}.{symbol}")
    assert not unread, f"exported but read by no non-test code: {unread}"
