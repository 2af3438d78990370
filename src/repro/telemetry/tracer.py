"""Structured tracing: nested spans over a monotonic clock.

A `Tracer` records the run as a tree of spans — run → step → RK stage →
phase (force / cg) → kernel — the same hierarchy the paper's
time-synchronized RAPL/NVML measurement needs in order to say *which*
kernel burned the joules (Section 5, Figures 14-16). Every layer of the
solver emits into one tracer; listeners (`repro.telemetry.sampler`)
observe span transitions and attribute energy to whichever span is open.

Disabled tracing is a strict no-op: `Tracer(enabled=False).span(...)`
returns one shared null context manager and allocates nothing, and a
solver built with telemetry off holds no tracer at all (pinned by
`tests/test_telemetry.py`: `test_disabled_tracer_is_null` and
`test_solver_without_tracer_allocates_no_spans`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["Span", "Tracer", "NULL_SPAN"]


@dataclass
class Span:
    """One closed-or-open interval in the trace tree.

    Times are seconds since the tracer's epoch on the monotonic clock
    (`time.perf_counter`). `cpu_j` / `gpu_j` hold *leaf-attributed*
    energy: a `CounterSampler` credits each elapsed interval to the
    innermost span open at the time, never to its ancestors (use
    `Tracer.inclusive_energy` for subtree rollups).
    """

    name: str
    category: str
    t0_s: float
    index: int
    parent: int = -1
    depth: int = 0
    t1_s: float = -1.0
    cpu_j: float = 0.0
    gpu_j: float = 0.0
    meta: dict | None = None

    @property
    def duration_s(self) -> float:
        """Span length (0.0 while still open)."""
        return max(self.t1_s - self.t0_s, 0.0)

    @property
    def energy_j(self) -> float:
        """Leaf-attributed CPU + GPU joules."""
        return self.cpu_j + self.gpu_j


class _NullSpanContext:
    """Shared do-nothing context manager for disabled tracers."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


NULL_SPAN = _NullSpanContext()


class _SpanContext:
    """Context manager that opens/closes one span on the tracer."""

    __slots__ = ("_tracer", "_name", "_category", "_meta", "index")

    def __init__(self, tracer: "Tracer", name: str, category: str, meta: dict | None):
        self._tracer = tracer
        self._name = name
        self._category = category
        self._meta = meta

    def __enter__(self) -> Span:
        self.index = self._tracer._open(self._name, self._category, self._meta)
        return self._tracer.spans[self.index]

    def __exit__(self, *exc):
        self._tracer._close(self.index)
        return False


class Tracer:
    """Collects nested spans and instant events on a monotonic clock.

    Parameters
    ----------
    enabled : when False every `span()` call returns the shared
        `NULL_SPAN` and the tracer never allocates (telemetry-off mode).
    clock : injectable monotonic clock (tests use a fake); defaults to
        `time.perf_counter`. The first reading becomes the epoch, so all
        span times are relative seconds.
    """

    def __init__(self, enabled: bool = True, clock=time.perf_counter):
        self.enabled = enabled
        self._clock = clock
        self.epoch = clock() if enabled else 0.0
        self.spans: list[Span] = []
        self.events: list[dict] = []
        self._stack: list[int] = []
        self._listeners: list = []
        self._finished = False

    # -- clock / structure -------------------------------------------------------

    def now(self) -> float:
        """Seconds since the epoch on the tracer's clock."""
        return self._clock() - self.epoch

    @property
    def current(self) -> Span | None:
        """The innermost open span, or None at top level."""
        return self.spans[self._stack[-1]] if self._stack else None

    def add_listener(self, listener) -> None:
        """Attach a transition listener (e.g. a `CounterSampler`).

        Listeners receive `on_interval(t0, t1, span_or_none)` for every
        maximal interval during which the open-leaf span is constant,
        and `on_finish(t)` when the trace ends.
        """
        self._listeners.append(listener)
        notify_from = getattr(listener, "attach_at", None)
        if notify_from is not None:
            listener.attach_at(self.now())

    def span(self, name: str, category: str = "", meta: dict | None = None):
        """Open a nested span as a context manager.

        Returns `NULL_SPAN` (shared, allocation-free) when disabled.
        """
        if not self.enabled:
            return NULL_SPAN
        return _SpanContext(self, name, category, meta)

    def begin(self, name: str, category: str = "", meta: dict | None = None) -> int:
        """Open a span without a `with` block; pair with `end(index)`.

        For spans whose lifetime cannot nest lexically — e.g. a
        scheduler's `tuning_period` span opened in one solver step and
        closed forty steps later. The LIFO discipline still holds:
        `end` must see this span as the innermost open one. Returns -1
        when disabled (safe to pass straight back to `end`).
        """
        if not self.enabled:
            return -1
        return self._open(name, category, meta)

    def end(self, index: int) -> None:
        """Close a span opened with `begin` (no-op for index -1)."""
        if not self.enabled or index < 0:
            return
        self._close(index)

    def instant(self, name: str, category: str = "", **meta) -> None:
        """Record a point event (fault, checkpoint, rollback...)."""
        if not self.enabled:
            return
        self.events.append(
            {"name": name, "category": category, "t_s": self.now(), **meta}
        )

    def _notify(self, t: float) -> None:
        if not self._listeners:
            return
        leaf = self.spans[self._stack[-1]] if self._stack else None
        for listener in self._listeners:
            listener.on_interval(t, leaf)

    def _open(self, name: str, category: str, meta: dict | None) -> int:
        t = self.now()
        self._notify(t)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            Span(
                name=name,
                category=category,
                t0_s=t,
                index=index,
                parent=parent,
                depth=len(self._stack),
                meta=meta,
            )
        )
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        t = self.now()
        self._notify(t)
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(
                f"span close out of order: closing #{index}, open stack {self._stack}"
            )
        self._stack.pop()
        self.spans[index].t1_s = t

    def finish(self) -> None:
        """Close the trace: flush listeners up to `now()` (idempotent)."""
        if not self.enabled or self._finished:
            return
        t = self.now()
        self._notify(t)
        for listener in self._listeners:
            on_finish = getattr(listener, "on_finish", None)
            if on_finish is not None:
                on_finish(t)
        self._finished = True

    # -- aggregation -------------------------------------------------------------

    def inclusive_energy(self) -> list[tuple[float, float]]:
        """(cpu_j, gpu_j) per span including all descendants.

        Children always carry a larger index than their parent (spans
        are appended at open time), so one reverse pass rolls leaves up.
        """
        incl = [[s.cpu_j, s.gpu_j] for s in self.spans]
        for i in range(len(self.spans) - 1, -1, -1):
            p = self.spans[i].parent
            if p >= 0:
                incl[p][0] += incl[i][0]
                incl[p][1] += incl[i][1]
        return [(c, g) for c, g in incl]

    def phase_table(self, category: str | None = None) -> dict[str, dict[str, float]]:
        """Aggregate spans by name: seconds, calls, inclusive joules.

        Restricted to `category` when given (e.g. "phase" for the
        force/cg breakdown). Nested same-name spans are counted once at
        their outermost occurrence to keep seconds additive.
        """
        incl = self.inclusive_energy()
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            if category is not None and s.category != category:
                continue
            # Skip if an ancestor carries the same name (avoid double count).
            p = s.parent
            shadowed = False
            while p >= 0:
                if self.spans[p].name == s.name:
                    shadowed = True
                    break
                p = self.spans[p].parent
            if shadowed:
                continue
            row = out.setdefault(
                s.name, {"seconds": 0.0, "calls": 0, "cpu_j": 0.0, "gpu_j": 0.0}
            )
            row["seconds"] += s.duration_s
            row["calls"] += 1
            row["cpu_j"] += incl[s.index][0]
            row["gpu_j"] += incl[s.index][1]
        return out

    def leaf_energy_table(self) -> dict[str, dict[str, float]]:
        """Leaf-attributed joules aggregated by span name.

        Because the sampler credits every elapsed interval to exactly
        one leaf, the rows of this table sum to the sampler's total
        integrated energy up to the idle time metered outside any span —
        the per-phase accounting the paper's Figures 14-16 are built
        from. Time a `step` span spends outside its force/cg children is
        the solver's "other" phase.

        Each row also carries `seconds` of *self* time (span duration
        minus its children's) — the wall time the leaf attribution
        corresponds to, so joules / seconds is the phase's average power.
        """
        child_s = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_s[s.parent] += s.duration_s
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            self_s = max(s.duration_s - child_s[s.index], 0.0)
            if s.cpu_j == 0.0 and s.gpu_j == 0.0 and self_s == 0.0:
                continue
            row = out.setdefault(
                s.name, {"seconds": 0.0, "cpu_j": 0.0, "gpu_j": 0.0}
            )
            row["seconds"] += self_s
            row["cpu_j"] += s.cpu_j
            row["gpu_j"] += s.gpu_j
        return out
