"""The two in-process CPU execution backends.

`CpuFusedBackend` and `CpuSumfactBackend` differ only in which
`ForceEngine` flavour they build (the dense fused pipeline vs. its
matrix-free sum-factorized subclass); both evaluate the corner force
in process through the engine's own `compute`. The paper's OpenMP
share of a task's zones is priced analytically (`repro.cpu.openmp`,
and the host side of `HybridBackend`), not executed.

Every CPU backend can also serve as the *node* backend under
`repro.backends.distributed.DistributedBackend`: `attach_node` builds
its engine, and the distributed layer evaluates every rank's zones in
one call of that engine's `compute`, whichever flavour the node built.
"""

from __future__ import annotations

from repro.backends.base import _SolverRef

__all__ = [
    "CpuFusedBackend",
    "CpuSumfactBackend",
]


class _EngineBackend(_SolverRef):
    """Shared attach/close plumbing for the in-process engines."""

    name = "?"
    sumfact = False

    def __init__(self):
        self.engine = None

    def attach(self, solver) -> None:
        """Bind to a solver as its primary backend (builds the engine)."""
        self.attach_node(solver)

    def attach_node(self, solver) -> None:
        """Bind as the node backend under the distributed layer.

        Builds the engine, but no device pricing (the distributed layer
        prices a hybrid node per rank).
        """
        if self.engine is not None:
            raise RuntimeError(f"backend '{self.name}' is already attached")
        self._bind(solver)
        self.engine = solver._make_engine(sumfact=self.sumfact)

    def finalize(self, solver) -> None:
        """Late hook, called once the solver is fully constructed.

        The in-process backends need nothing here; the distributed
        backend uses it to build everything that requires the mass
        matrices / momentum solver / integrator to exist.
        """

    @property
    def force_fn(self):
        if self.engine is None:
            raise RuntimeError(f"backend '{self.name}' is not attached")
        return self.engine.compute

    def tuning_target(self):
        """The object the in-band scheduler drives, or None.

        Only hybrid execution has a device split to tune; the CPU
        backends return None and the solver skips the scheduler.
        """
        return None

    def describe(self) -> dict:
        return {"backend": self.name}


class CpuFusedBackend(_EngineBackend):
    """The fused zero-allocation hot path, single process (the default)."""

    name = "cpu-fused"


class CpuSumfactBackend(_EngineBackend):
    """Matrix-free sum-factorization engine, single process.

    Builds `SumfactForceEngine`: every basis contraction runs through
    the 1D tensor-product chains (O(order^{d+1}) per zone) and the dense
    corner-force matrix is never materialized — `compute` hands the
    integrator a `SumfactStress`. Mass assembly goes through the
    factorized block route as well. Parity with `cpu-fused` is a
    contraction-reordering roundoff (documented budget 1e-10 relative
    per evaluation); the crossover where this wins on modeled work is
    Q3+ in 2D (see DESIGN.md section 16).
    """

    name = "cpu-sumfact"
    sumfact = True

    def describe(self) -> dict:
        return {"backend": self.name, "sumfact": True}
