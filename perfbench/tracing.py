"""Spans recorded from outside the program, around calls into its layers.

The traced run replaces public methods on the objects the benchmark
builds (instance attributes, or class attributes for the solvers a
fleet builds itself) with wrappers that record one span per call:
name, start, end, parent span, and an operation id (the step index or
the job id). The program's own `repro.telemetry.Tracer` stays detached
and no program file changes. Spans are kept in memory and written out
when the run ends.

A layer's self time is its spans' durations minus the durations of
their child spans, so the layers of a run plus its unattributed
remainder (the root span's self time) add up to the run's wall time.
"""

from __future__ import annotations

import gzip
import json
import threading
from time import perf_counter

__all__ = ["SpanLog", "instrument_solver", "patch"]

NAME, PARENT, OP, T0, T1, THREAD = range(6)


class SpanLog:
    """In-memory span store shared by every wrapper of one run."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def set_op(self, op) -> None:
        """Operation id stamped on the calling thread's later spans."""
        self._local.op = op

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, after=None, op_of=None):
        """Return `fn` wrapped in a span named `name`.

        `after(result)` runs once the span is closed (for counters read
        from the program's public stats); `op_of(result)` names the
        operation the call served (None for none), stamped on the span
        and on the thread's later spans.
        """

        def wrapper(*args, **kwargs):
            stack = self._stack()
            op = None if op_of is not None else getattr(self._local, "op", None)
            rec = [name, stack[-1] if stack else -1, op, 0.0, 0.0, threading.get_ident()]
            with self._lock:
                idx = len(self.spans)
                self.spans.append(rec)
            stack.append(idx)
            rec[T0] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[T1] = perf_counter()
                stack.pop()
            if op_of is not None:
                op = op_of(result)
                if op is not None:
                    rec[OP] = op
                    self._local.op = op
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def self_times(self) -> list[float]:
        """Per-span self time: duration minus direct children's durations."""
        out = [s[T1] - s[T0] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[T1] - s[T0]
        return out

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines (times in seconds)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "parent": s[PARENT], "op": s[OP],
                    "start": s[T0], "end": s[T1], "thread": s[THREAD],
                }) + "\n")


def patch(obj, attr: str, replacement) -> "callable":
    """Set `obj.attr`; return the undo, which restores the attribute, or
    deletes it when `obj` only inherited it."""
    had_own = attr in vars(obj)
    original = vars(obj)[attr] if had_own else None

    def undo():
        if had_own:
            setattr(obj, attr, original)
        else:
            delattr(obj, attr)

    setattr(obj, attr, replacement)
    return undo


class SolverCounters:
    """Counts read from the program's public stats during traced solves."""

    def __init__(self):
        self.cg_solves = 0
        self.cg_iterations = 0
        self.cg_flops = 0
        self.spmv_bytes = 0


def bytes_per_spmv(momentum) -> int:
    """Bytes one operator application touches, computed from array sizes.

    The CSR arrays plus the input and output vectors; the vectorized
    distributed operator adds its interface-zone blocks and index maps.
    Cache behaviour is ignored, so this is a computed, not a measured,
    figure.
    """
    m = momentum.mass
    total = m.data.nbytes + m.indices.nbytes + m.indptr.nbytes + 2 * 8 * m.nrows
    plan = getattr(momentum, "plan", None)
    if plan is not None:
        total += (plan.mass_blocks.nbytes + plan.ldof_ifz.nbytes
                  + plan.scat_idx.nbytes + plan.scat_src.nbytes)
    return int(total)


def instrument_solver(log: SpanLog, solver, counters: SolverCounters,
                      step_ops: bool = True):
    """Wrap one solver's layer entry points; returns the undo function.

    Covers `integrator.force_fn`, `momentum.solve` and `momentum.matvec`,
    `mass_e.solve`, `engine.point_geometry`, `solver.step` and
    `solver.energies`, and, when the backend has a communicator, its
    `iallreduce_sum_stacked`, `iallreduce_min_batch` and `wait`. With
    `step_ops` each step's spans carry the step index as operation id;
    inside a fleet job they keep the job id instead.
    """
    momentum = solver.momentum
    per_call = bytes_per_spmv(momentum)

    def after_cg(accel):
        info = momentum.last_info
        counters.cg_solves += accel.shape[1]  # one PCG solve per component
        counters.cg_iterations += info.iterations
        counters.cg_flops += info.flops

    def after_spmv(_):
        counters.spmv_bytes += per_call

    undos = [
        patch(solver.integrator, "force_fn", log.wrap("force", solver.integrator.force_fn)),
        patch(momentum, "solve", log.wrap("cg", momentum.solve, after=after_cg)),
        patch(momentum, "matvec", log.wrap("spmv", momentum.matvec, after=after_spmv)),
        patch(solver.mass_e, "solve", log.wrap("mass_e", solver.mass_e.solve)),
        patch(solver.engine, "point_geometry",
              log.wrap("geometry", solver.engine.point_geometry)),
        patch(solver, "energies", log.wrap("energies", solver.energies)),
    ]
    inner_step = log.wrap("step", solver.step)

    def step(dt):
        if step_ops:
            log.set_op(solver.workload.steps)
        return inner_step(dt)

    undos.append(patch(solver, "step", step))
    comm = getattr(solver.backend, "comm", None)
    if comm is not None:
        for name in ("iallreduce_sum_stacked", "iallreduce_min_batch", "wait"):
            undos.append(patch(comm, name, log.wrap("comm", getattr(comm, name))))

    def undo():
        for u in reversed(undos):
            u()

    return undo
