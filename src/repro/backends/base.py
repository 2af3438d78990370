"""`ExecutionBackend`: one workload description, many execution policies.

The paper's systems contribution is that a single BLAST workload runs
under interchangeable execution policies — serial CPU, OpenMP CPU, and
the CUDA+OpenMP hybrid — with the scheduler free to move between them
(Sections 3.2-3.3). This module is that seam for the repro: a backend
owns the corner-force evaluation strategy of one solver (which engine
flavour, whether a worker pool runs it, whether a simulated device
prices it) behind a uniform four-method surface, selected by one
`RunConfig.backend` string.

Physics contract: every backend computes the corner force with the one
`ForceEngine`'s fused arithmetic. `cpu-fused` and `hybrid` share the
identical full-batch evaluation and are *bitwise* equal; `cpu-parallel`
with pinned `chunks` is bitwise invariant under the worker count (and
within a few ULP of the full batch — the final contraction's BLAS
accumulation order depends on the batch extent); `cpu-sumfact` agrees
to contraction-reordering roundoff (1e-10 budget). The independent
reference is `repro.hydro.corner_force.corner_force_loops`. Tests pin
all of this down with state hashes.
"""

from __future__ import annotations

import weakref
from typing import Protocol, runtime_checkable

from repro.config import BACKEND_NAMES

__all__ = ["ExecutionBackend", "BACKEND_NAMES", "make_backend"]


@runtime_checkable
class ExecutionBackend(Protocol):
    """What the solver needs from an execution policy.

    Lifecycle: the solver constructs its FEM spaces and fields, then
    calls `attach(solver)` exactly once — the backend builds its
    `ForceEngine` (via `solver._make_engine`) plus any executor, and
    from then on `force_fn` is the solver's corner-force evaluator
    (installed as `integrator.force_fn`). `close()` releases worker
    pools / shared memory and must be idempotent.
    """

    #: Registry name, one of `BACKEND_NAMES`.
    name: str

    def attach(self, solver) -> None:
        """Bind to a constructed solver; build engine and executors."""
        ...

    @property
    def force_fn(self):
        """The corner-force evaluator: `HydroState -> ForceResult`."""
        ...

    def close(self) -> None:
        """Release resources (idempotent)."""
        ...

    def describe(self) -> dict:
        """Manifest-friendly summary of the policy."""
        ...


class _SolverRef:
    """The attached solver, held through a weak reference.

    The solver owns its backend; a strong back-reference would make a
    cycle, and every dropped solver would then wait for the cyclic
    garbage collector to free its arrays. `solver` is None before
    `_bind` and once the solver is gone.
    """

    _solver = None

    @property
    def solver(self):
        return None if self._solver is None else self._solver()

    def _bind(self, solver) -> None:
        self._solver = weakref.ref(solver)


def make_backend(name: str, **kwargs) -> "ExecutionBackend":
    """Build a backend by registry name.

    kwargs are forwarded to the concrete constructor (`workers=` for
    cpu-parallel; `device=` / `cpu=` / `ratio=` for hybrid) — unknown
    names raise with the valid list, mirroring `RunConfig` validation.
    """
    from repro.backends.cpu import CpuFusedBackend, CpuParallelBackend, CpuSumfactBackend
    from repro.backends.hybrid import HybridBackend

    registry = {
        cls.name: cls
        for cls in (CpuFusedBackend, CpuSumfactBackend, CpuParallelBackend, HybridBackend)
    }
    try:
        cls = registry[name]
    except KeyError:
        raise ValueError(
            f"unknown backend '{name}' (choose from {BACKEND_NAMES})"
        ) from None
    return cls(**kwargs)
