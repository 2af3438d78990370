"""Shared infrastructure for the benchmark harness.

Every bench regenerates one of the paper's tables or figures: it builds
the workload (running the real solver where the experiment calls for
it), evaluates the simulated hardware, prints a paper-vs-measured
comparison, and returns the data so the pytest-benchmark wrapper can
assert the reproduced *shape*.

Run any bench directly (`python benchmarks/bench_table7_greenup.py`) to
see its tables, or through pytest-benchmark
(`pytest benchmarks/ --benchmark-only`).
"""

from __future__ import annotations

from functools import lru_cache

from repro import LagrangianHydroSolver, RunConfig, SedovProblem
from repro.analysis.record import append_bench_record
from repro.kernels import FEConfig

__all__ = [
    "measured_pcg_iterations",
    "reference_workload",
    "append_bench_record",
    "PAPER",
]

# The paper's reported numbers, collected in one place.
PAPER = {
    "fig11_speedup_q2": 1.9,
    "fig11_speedup_q4": 2.5,
    "table7_powerup_q2": 0.67,
    "table7_powerup_q4": 0.57,
    "table7_greenup_q2": 1.27,
    "table7_greenup_q4": 1.42,
    "table1": {  # method -> (corner force s, CG s, total s)
        "2D: Q4-Q3": (198.6, 53.6, 262.7),
        "2D: Q3-Q2": (72.6, 26.2, 103.7),
        "3D: Q2-Q1": (90.0, 56.7, 164.0),
    },
    "table4": {"streamed_cublas": 0.2, "kernel8": 18.0, "theoretical": 35.5},
    "table5": {"sedov": (0.75, 14), "triple-pt": (0.77, 12)},
    "table6_energy_change": (-9.2192919964873e-13, -4.9382720135327e-13),
    "fig12_endpoints": {8: 0.85, 4096: 1.83},
    "fig15_idle_w": 20.0,
    "fig15_startup_w": 50.0,
    "fig14_pkg_full_w": 95.0,
    "fig14_dram_w": 15.0,
    "fig16_pkg_w": 75.0,
    "fig16_pp0_w": 60.0,
    "opt_time_reduction": 0.60,
    "opt_power_reduction": 0.10,
}


@lru_cache(maxsize=None)
def measured_pcg_iterations(dim: int = 3, order: int = 2, zones_per_dim: int = 3) -> float:
    """Average momentum-PCG iterations per solve, measured on a real run.

    PCG on the (well-conditioned, Jacobi-preconditioned) mass matrix
    converges in a mesh-size-independent iteration count, so a small
    run calibrates the big configurations.
    """
    problem = SedovProblem(dim=dim, order=order, zones_per_dim=zones_per_dim)
    solver = LagrangianHydroSolver(problem, RunConfig(max_steps=6))
    solver.run(t_final=1.0, max_steps=6)
    return solver.workload.pcg_iters_per_solve


@lru_cache(maxsize=None)
def reference_workload(dim: int = 3, order: int = 2, zones_per_dim: int = 16) -> FEConfig:
    """The paper's single-node 3D Sedov configuration (16^3 zones)."""
    return FEConfig(dim=dim, order=order, nzones=zones_per_dim**dim)
