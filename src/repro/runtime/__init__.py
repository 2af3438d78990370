"""Hybrid MPI + CUDA + OpenMP runtime (simulated).

Functional layer: a single-process MPI simulator with real domain
decomposition, shared-DOF groups and reductions, proving the
decomposition reproduces the serial physics bit-for-bit. Performance
layer: the hybrid executor meters a solver workload on the simulated
CPU/GPU hardware and produces the time/power/energy numbers behind the
paper's Figures 11, 14-16 and Table 7. The memory layer (`arena`) is the
pool allocator behind every hot-path workspace. Wall-clock phase timing
lives with the solver: its `WorkloadRecorder` is the run's one phase
record (`repro.hydro.solver`).

Submodules are resolved lazily (PEP 562): `repro.runtime.arena` sits
below `repro.hydro.workspace` in the import graph, while `hybrid` sits
above `repro.hydro` — eager imports here would close an import cycle
through `corner_force`.
"""

_EXPORTS = {
    "SimulatedComm": "repro.runtime.mpi_sim",
    "CommCostModel": "repro.runtime.mpi_sim",
    "DofGroups": "repro.runtime.groups",
    "build_dof_groups": "repro.runtime.groups",
    "EnergyAccount": "repro.runtime.energy",
    "GreenupReport": "repro.runtime.energy",
    "greenup": "repro.runtime.energy",
    "HybridExecutor": "repro.runtime.hybrid",
    "ExecutionReport": "repro.runtime.hybrid",
    "StepBreakdown": "repro.runtime.hybrid",
    "Arena": "repro.runtime.arena",
    "Lease": "repro.runtime.arena",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
