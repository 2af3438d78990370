"""Execution backends: one workload, four interchangeable policies.

See `repro.backends.base` for the protocol and the physics contract;
select a policy with `RunConfig(backend="cpu-fused" | "cpu-sumfact" |
"cpu-parallel" | "hybrid")` or build one directly via `make_backend`.
`DistributedBackend` is the composition layer: `RunConfig(ranks=N)`
wraps the selected node backend in it, running the same physics with
rank-partitioned evaluation and simulated-MPI collectives.
"""

from repro.backends.base import BACKEND_NAMES, ExecutionBackend, make_backend
from repro.backends.cpu import CpuFusedBackend, CpuParallelBackend
from repro.backends.distributed import DistributedBackend
from repro.backends.hybrid import HybridBackend

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "make_backend",
    "CpuFusedBackend",
    "CpuParallelBackend",
    "HybridBackend",
    "DistributedBackend",
]
