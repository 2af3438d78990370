"""Host-speed correction: a fixed reference kernel timed between operations.

On a shared virtual machine the same pure-Python loop can drift by tens
of percent in phases of 10-30 s, and CPU time drifts with wall time, so
neither clock alone repeats within a tenth. Operations are timed on the
wall clock (`time.perf_counter`), and the benchmark runs a fixed
reference kernel of its own (pure Python, small NumPy calls and two
passes over 8 MiB, about 2 ms) after every operation, while the program
is idle, and scales each operation's time by

    nominal reference time / local median of nearby reference samples.

A reference sample whose wall time exceeds its CPU time ran against
program threads or processes (or a neighbour on the host). Such a
sample is dropped and counted, so a change that leaves work running
between operations cannot flatter its own corrected numbers: with every
sample dropped the factor falls back to 1 and raw times are reported.

In some phases the hypervisor steals time from the VM, which wall time
counts and the reference kernel, far shorter than a steal slice, mostly
misses. The host's steal counter (`/proc/stat`) is read between
operations, outside their timed intervals (a read takes ~0.1 ms); an
operation whose segment lost more than `STOLEN_SHARE` of its wall time
to steal is dropped and counted the same way.
"""

from __future__ import annotations

import math
import os
import threading
import time

import numpy as np

__all__ = [
    "CONTENDED_RATIO",
    "HostProbe",
    "STOLEN_SHARE",
    "WINDOW",
    "correction_factors",
    "percentile",
    "reference_kernel",
    "steal_s",
    "stolen",
]

#: A sample is contended when wall > CONTENDED_RATIO x its CPU time.
CONTENDED_RATIO = 1.05
#: Reference samples on each side of an operation that set its factor.
WINDOW = 8
#: A percentile counts only with at least this many samples beyond it.
MIN_BEYOND = 10


class _KernelData:
    """The reference kernel's fixed inputs (built once per probe)."""

    def __init__(self):
        rng = np.random.default_rng(1)
        self.a = rng.standard_normal((16, 16))
        self.b = rng.standard_normal((16, 16))
        self.v = rng.standard_normal(256)
        self.x = rng.standard_normal(STREAM_DOUBLES)
        self.y = rng.standard_normal(STREAM_DOUBLES)


#: Doubles per streamed array: two 4 MiB arrays, beyond a core's L2,
#: each read twice.
STREAM_DOUBLES = 1 << 19


def reference_kernel(data: _KernelData) -> float:
    """About 2 ms: interpreter work, small NumPy calls, two memory passes.

    In the host phases measured, the first two parts alone slowed down
    more than a solver step and the streamed passes alone less; together
    they track a step's slowdown better than either.
    """
    acc = 0.0
    table = {}
    for i in range(700):
        acc += (i * 0.5) % 7.0
        table[i & 63] = acc
    a, b, v = data.a, data.b, data.v
    s = 0.0
    for _ in range(50):
        c = a @ b
        c += 1.0
        s += float(v @ c.ravel())
        s += float((np.sqrt(np.abs(v)) * 0.5).sum())
    # Read-only: a write would page-fault after every fork the program makes.
    s += float(data.x @ data.y) + float(data.y @ data.x)
    return acc + s


class HostProbe:
    """Runs the reference kernel on its own thread, on request.

    `sample()` blocks the caller while the probe thread runs the kernel,
    so the program is idle for the duration; the probe records the
    kernel's wall time and its thread's CPU time.
    """

    def __init__(self):
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self._data = _KernelData()
        self._go = threading.Event()
        self._done = threading.Event()
        self._stop = False
        self._thread = threading.Thread(target=self._loop, name="host-probe", daemon=True)
        self._thread.start()
        for _ in range(20):  # warm the kernel's caches and code paths
            reference_kernel(self._data)

    def _loop(self) -> None:
        data = self._data
        while True:
            self._go.wait()
            self._go.clear()
            if self._stop:
                self._done.set()
                return
            c0 = time.thread_time()
            t0 = time.perf_counter()
            reference_kernel(data)
            t1 = time.perf_counter()
            c1 = time.thread_time()
            self.wall.append(t1 - t0)
            self.cpu.append(c1 - c0)
            self._done.set()

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            self._done.clear()
            self._go.set()
            self._done.wait()

    def close(self) -> None:
        if self._thread.is_alive():
            self._stop = True
            self._done.clear()
            self._go.set()
            self._thread.join(timeout=5.0)

    def clean(self) -> np.ndarray:
        """Mask of samples that did not run against other work."""
        wall = np.asarray(self.wall)
        cpu = np.asarray(self.cpu)
        return wall <= CONTENDED_RATIO * cpu

    @property
    def dropped(self) -> int:
        return int((~self.clean()).sum())

    def median_ms(self) -> float:
        cpu = np.asarray(self.cpu)[self.clean()]
        return 1e3 * float(np.median(cpu)) if cpu.size else math.nan

    def factors(self, positions, nominal_s: float) -> np.ndarray:
        return correction_factors(positions, self.wall, self.cpu, nominal_s)


#: An operation is stolen when the host's steal counter grew by more
#: than this share of its wall time. The counter moves in clock ticks
#: (10 ms), so any tick drops a step or a job; a 100-step solve of ~2 s
#: is dropped above 4 ticks.
STOLEN_SHARE = 0.02
_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def steal_s() -> float:
    """Hypervisor steal so far, summed over the host's CPUs, in seconds
    (0.0 where the kernel does not report it)."""
    try:
        with open("/proc/stat", "rb") as fh:
            fields = fh.readline().split()
        return int(fields[8]) * _TICK_S
    except (OSError, ValueError, IndexError):
        return 0.0


def stolen(steal, wall) -> np.ndarray:
    """Mask of intervals that lost more than `STOLEN_SHARE` to steal."""
    return np.asarray(steal, dtype=float) > STOLEN_SHARE * np.asarray(wall, dtype=float)


def correction_factors(positions, wall, cpu, nominal_s: float,
                       window: int = WINDOW) -> np.ndarray:
    """Per-operation host-speed factors.

    `positions[i]` is the index of the first reference sample taken after
    operation i. Its factor is `nominal_s` over the median CPU time of
    the clean samples within `window` of that index; with none nearby the
    run-wide clean median is used, and with no clean sample at all the
    factor is 1.
    """
    cpu = np.asarray(cpu, dtype=float)
    clean = np.asarray(wall, dtype=float) <= CONTENDED_RATIO * cpu
    out = np.ones(len(positions))
    if not clean.any():
        return out
    overall = float(np.median(cpu[clean]))
    for i, p in enumerate(positions):
        lo, hi = max(0, p - window), min(cpu.size, p + window + 1)
        local = cpu[lo:hi][clean[lo:hi]]
        out[i] = nominal_s / (float(np.median(local)) if local.size else overall)
    return out


def percentile(values, q: float) -> tuple[float, int]:
    """Nearest-rank percentile `q` (0-100) and the sample count.

    Raises ValueError unless at least MIN_BEYOND samples lie beyond the
    percentile's rank; a median needs no such margin.
    """
    vals = np.sort(np.asarray(values, dtype=float))
    n = vals.size
    if n == 0:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q / 100.0 * n))
    if q > 50 and n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} needs {MIN_BEYOND} samples beyond it; {n} samples give {n - rank}"
        )
    return float(vals[rank - 1]), n
