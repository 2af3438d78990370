"""Shared-memory zone-parallel corner-force executor.

The paper's CPU baseline splits the corner-force loop over zones across
OpenMP threads; the MPI layer does the same across ranks. This module
is the real (multi-process) analogue for the NumPy engine: the mesh's
zones are partitioned into contiguous chunks, each worker process owns
its chunks for the lifetime of the run, and all state/result traffic
goes through `multiprocessing.shared_memory` segments mapped before the
fork — the only per-evaluation costs are three array copies in
(v, e, x) and one 16-byte command packet per worker
(`runtime.workers.PersistentWorkerPool`), never pickling of mesh-sized
data and never a steady-state allocation.

Partition contract: the default is **one contiguous span per worker**
(`chunks = workers`), the paper's static OpenMP schedule. With a fused
engine each span goes through `ForceEngine.compute_fused_span`, and the
single-worker partition is the full span (0, nzones) — documented
bitwise-identical to `ForceEngine.compute` — so `workers=1` costs only
the dispatch syscalls over serial and returns serial's exact bits.
Multi-worker partitions are deterministic for a fixed (nzones, chunks)
pair; pin `chunks=K` explicitly to make results invariant under the
worker count (K spans round-robined over however many processes run
them). `compute_chunked` runs the identical chunked loop serially so
tests can assert bitwise equality directly. The global dt is the min
over chunk minima (min is exactly associative).

The `cpu-parallel` backend wires the executor into the solver, chosen
by `RunConfig(backend="cpu-parallel", workers=N)` (or just
`RunConfig(workers=N)`) and the CLI's `repro run --workers N`.
"""

from __future__ import annotations

import atexit
import os

import numpy as np
from multiprocessing import shared_memory

from repro.hydro.corner_force import ForceEngine, ForceResult
from repro.hydro.state import HydroState
from repro.runtime.workers import PersistentWorkerPool, WorkerError

__all__ = ["ZoneParallelExecutor", "SPAN_GRANULE", "default_chunk_count"]

#: Minimum zones per chunk: partitions never go finer than this, so a
#: huge worker count on a small mesh cannot shred the BLAS batch sizes.
SPAN_GRANULE = 16


def default_chunk_count(nzones: int, workers: int) -> int:
    """Default partition: one span per worker, floored at SPAN_GRANULE zones."""
    return max(1, min(int(workers), -(-int(nzones) // SPAN_GRANULE)))


class ZoneParallelExecutor:
    """Persistent fork-based worker pool over static zone chunks.

    Parameters
    ----------
    engine : the (already constructed) ForceEngine; workers inherit it
        copy-on-write through fork, so no per-call serialization.
    workers : process count (default: os.cpu_count(), capped at the
        chunk count).
    chunks : zone partition count. Default: one contiguous span per
        worker (the paper's static OpenMP schedule) — the coarsest
        partition, so per-span batching stays near the full-batch
        optimum. Pinning an explicit count instead makes the schedule —
        and therefore the result bits — independent of how many
        processes run it.
    tracer : optional enabled `repro.telemetry.Tracer`; when given,
        each parallel dispatch is one "executor"-category span covering
        copy-in, worker wake-up, evaluation and the dt reduction.

    Lifecycle: `start()` forks the pool (idempotent; `compute` calls it
    lazily), `close()` shuts it down and releases shared memory. The
    fork happens *after* `prepare_spans` leased every span workspace on
    the arena, so children never allocate on the hot path and the pool
    can serve thousands of evaluations (`stats()` reports how the fork
    amortized).
    """

    def __init__(
        self,
        engine: ForceEngine,
        workers: int | None = None,
        chunks: int | None = None,
        tracer=None,
    ):
        if workers is None:
            workers = os.cpu_count() or 1
        nzones = engine.kinematic.mesh.nzones
        workers = max(1, int(workers))
        chunks = (
            default_chunk_count(nzones, workers)
            if chunks is None
            else max(1, min(int(chunks), nzones))
        )
        workers = min(workers, chunks)
        self.engine = engine
        self.workers = workers
        self.tracer = tracer if (tracer is not None and tracer.enabled) else None
        self.chunk_ids = [
            np.ascontiguousarray(c, dtype=np.int64)
            for c in np.array_split(np.arange(nzones, dtype=np.int64), chunks)
        ]
        spans = np.cumsum([0] + [c.size for c in self.chunk_ids])
        self._spans = [
            (int(spans[i]), int(spans[i + 1])) for i in range(len(self.chunk_ids))
        ]

        kin = engine.kinematic
        thermo = engine.thermodynamic
        dim = kin.dim
        self._segments: list[shared_memory.SharedMemory] = []

        def shared_array(shape: tuple[int, ...]) -> np.ndarray:
            nbytes = max(int(np.prod(shape)) * 8, 8)
            seg = shared_memory.SharedMemory(create=True, size=nbytes)
            self._segments.append(seg)
            return np.ndarray(shape, dtype=np.float64, buffer=seg.buf)

        # Inputs (parent writes, workers read).
        self._x = shared_array((kin.ndof, dim))
        self._v = shared_array((kin.ndof, dim))
        self._e = shared_array((thermo.ndof,))
        # Outputs (workers write disjoint slices). F_z is double-buffered
        # so the two most recent results stay live across RK2's stages.
        fz_shape = (nzones, kin.ndof_per_zone, dim, thermo.ndof_per_zone)
        self._fz = [shared_array(fz_shape), shared_array(fz_shape)]
        self._dt = shared_array((len(self.chunk_ids),))
        self._valid = shared_array((len(self.chunk_ids),))
        self._slot = 0

        # Static round-robin chunk -> worker assignment (1:1 under the
        # default chunks == workers partition).
        self._assignment: list[list[int]] = [[] for _ in range(workers)]
        for i in range(len(self.chunk_ids)):
            self._assignment[i % workers].append(i)

        # Lease the per-span workspaces parent-side before forking: the
        # children inherit the arena-backed buffers copy-on-write, so a
        # fused worker never allocates on its hot path and the parent's
        # arena high-water statistic covers the span pool.
        if engine.fused and hasattr(engine, "prepare_spans"):
            engine.prepare_spans(self._spans)

        self._pool = PersistentWorkerPool(
            workers, self._worker_eval, name="zone-parallel"
        )
        self._closed = False
        atexit.register(self.close)

    # -- worker side --------------------------------------------------------

    def _worker_eval(self, wid: int, slot: int, t: float) -> None:
        """Runs in the forked child: evaluate owned chunks into shared out."""
        state = HydroState(self._v, self._e, self._x, t)
        fz = self._fz[slot]
        for ci in self._assignment[wid]:
            lo, hi = self._spans[ci]
            res = self._compute_chunk(state, ci)
            fz[lo:hi] = res.Fz
            self._dt[ci] = res.dt_est
            self._valid[ci] = 1.0 if res.valid else 0.0

    def _compute_chunk(self, state: HydroState, ci: int) -> ForceResult:
        """One chunk's corner forces: fused span path or legacy subset."""
        if self.engine.fused:
            lo, hi = self._spans[ci]
            return self.engine.compute_fused_span(state, lo, hi)
        return self.engine.compute_local(state, self.chunk_ids[ci])

    # -- parent side --------------------------------------------------------

    def start(self) -> None:
        """Fork the worker pool (idempotent)."""
        if self._closed:
            raise RuntimeError("executor has been closed")
        self._pool.start()

    def compute(self, state: HydroState, keep_az: bool = False) -> ForceResult:
        """Drop-in replacement for `ForceEngine.compute`.

        Returns a ForceResult whose F_z is a view of the shared output
        buffer (double-buffered; valid until two more evaluations).
        `geometry`/`points` are not assembled here — the time loop only
        consumes Fz / dt_est / valid, and geometry queries go through
        the engine's own cached `point_geometry`.
        """
        if self._closed:
            raise RuntimeError("executor has been closed")
        if keep_az:  # debug path: not worth distributing
            return self.engine.compute(state, keep_az=True)
        if not self._pool.running:
            self._pool.start()
        if self.tracer is not None:
            with self.tracer.span(
                "parallel_dispatch", category="executor",
                meta={"workers": self.workers, "chunks": len(self.chunk_ids)},
            ):
                return self._compute_impl(state)
        return self._compute_impl(state)

    def _compute_impl(self, state: HydroState) -> ForceResult:
        np.copyto(self._x, state.x)
        np.copyto(self._v, state.v)
        np.copyto(self._e, state.e)
        slot = self._slot
        self._slot = 1 - slot
        try:
            self._pool.dispatch(slot, state.t)
            self._pool.wait()
        except WorkerError as exc:
            raise RuntimeError(f"parallel corner-force worker failed: {exc}") from exc
        valid = bool(np.all(self._valid > 0.5))
        dt_est = float(self._dt.min()) if valid else 0.0
        return ForceResult(
            Fz=self._fz[slot],
            geometry=None,
            points=None,
            dt_est=dt_est,
            valid=valid,
        )

    def compute_chunked(self, state: HydroState) -> ForceResult:
        """The identical chunked evaluation, run serially in-process.

        This is the executor's bitwise reference: `compute` must produce
        exactly these arrays (tests assert equality down to the last
        ULP), proving the multiprocessing layer changes scheduling only,
        never arithmetic. With a fused engine this is additionally
        bitwise equal to `engine.compute` itself when the partition is a
        single span (the default at workers=1), and within span
        slice-invariance otherwise.
        """
        results = [self._compute_chunk(state, ci) for ci in range(len(self.chunk_ids))]
        Fz = np.concatenate([r.Fz for r in results], axis=0)
        valid = all(r.valid for r in results)
        dt_est = min((r.dt_est for r in results)) if valid else 0.0
        return ForceResult(Fz=Fz, geometry=None, points=None, dt_est=dt_est, valid=valid)

    def stats(self) -> dict:
        """Pool amortization stats plus the partition geometry."""
        return {
            **self._pool.stats(),
            "chunks": len(self.chunk_ids),
            "nzones": int(self.chunk_ids[-1][-1]) + 1 if self.chunk_ids else 0,
        }

    def close(self) -> None:
        """Stop workers and release the shared-memory segments."""
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown()
        for seg in self._segments:
            try:
                seg.close()
                seg.unlink()
            except Exception:
                pass
        self._segments.clear()
        try:
            atexit.unregister(self.close)
        except Exception:
            pass

    def __enter__(self) -> "ZoneParallelExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - belt and braces
        try:
            self.close()
        except Exception:
            pass
