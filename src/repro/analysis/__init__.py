"""Analysis and reporting helpers for the benchmark harness.

`profiles` models the paper's Table 1 CPU profile and Fig 6 kernel
breakdown, `report` prints paper-vs-measured tables, `scaling_bench` and
`record` run and record the scaling gate, `riemann` is the exact Sod
solution and `convergence` the solver's p-convergence check.
"""

from repro.analysis.profiles import cpu_profile, kernel_breakdown
from repro.analysis.report import Table, Series, paper_vs_measured
from repro.analysis.convergence import convergence_study, observed_rate

__all__ = [
    "cpu_profile",
    "kernel_breakdown",
    "Table",
    "Series",
    "paper_vs_measured",
    "convergence_study",
    "observed_rate",
]
