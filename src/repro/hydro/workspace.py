"""Preallocated, shape-keyed buffer pool for the corner-force hot path.

The paper's GPU redesign (Section 4.2) lives or dies on where per-point
intermediates are kept: the register-based kernels beat the local-memory
versions precisely because they never round-trip scratch data through
off-chip memory. The NumPy analogue of that discipline is to never ask
the allocator for a fresh array inside the timestep loop: every einsum
gets an ``out=`` target owned by a `Workspace`, so steady-state steps
touch only memory that was mapped (and cache-warmed) at engine
construction.

Buffers are keyed by *name*; the (shape, dtype) of a name is fixed after
first use in steady state, and the pool records hits/misses so tests can
assert allocation discipline (`misses` must stop growing after warmup).

Since the sum-factorization refactor the backing store is a
`repro.runtime.arena.Arena`: a miss leases an aligned block from the
arena's size-bucketed free lists (returning the displaced block when a
name changes shape), so allocation discipline survives mesh-size changes
and solver reuse — several workspaces, e.g. those of all solvers in a
service warm pool, can share one arena.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.arena import Arena, Lease

__all__ = ["Workspace"]


class Workspace:
    """Named pool of reusable ndarray buffers over an `Arena`.

    `get` returns the existing buffer when name, shape and dtype match,
    else leases a fresh block (a *miss*). Frozen buffers (read-only views
    handed to consumers, see `GeometryAtPoints.freeze`) are transparently
    thawed on reuse — the workspace owns its arrays, so only the engine
    that holds the pool can recycle them.
    """

    def __init__(self, arena: Arena | None = None):
        self.arena = arena if arena is not None else Arena(name="workspace")
        self._buffers: dict[str, np.ndarray] = {}
        self._leases: dict[str, Lease] = {}
        self.hits = 0
        self.misses = 0

    def get(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        shape = tuple(int(s) for s in shape)
        dtype = np.dtype(dtype)
        buf = self._buffers.get(name)
        if buf is not None and buf.shape == shape and buf.dtype == dtype:
            self.hits += 1
            if not buf.flags.writeable:
                buf.setflags(write=True)
            return buf
        self.misses += 1
        old = self._leases.pop(name, None)
        if old is not None:
            # Shape/dtype changed: recycle the displaced block through the
            # arena so a resized mesh reuses memory instead of growing it.
            self.arena.release(old)
        buf, lease = self.arena.alloc(name, shape, dtype)
        self._buffers[name] = buf
        self._leases[name] = lease
        return buf

    def close(self) -> None:
        """Release every lease back to the arena (solver retirement)."""
        for lease in self._leases.values():
            self.arena.release(lease)
        self._leases.clear()
        self._buffers.clear()

    def buffer_ids(self) -> dict[str, int]:
        """Identity map of the pooled arrays (for allocation-discipline tests)."""
        return {name: id(buf) for name, buf in self._buffers.items()}

    @property
    def nbytes(self) -> int:
        return sum(buf.nbytes for buf in self._buffers.values())

    def __len__(self) -> int:
        return len(self._buffers)

    def __contains__(self, name: str) -> bool:
        return name in self._buffers

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Workspace({len(self._buffers)} buffers, {self.nbytes / 1e6:.2f} MB, "
            f"{self.hits} hits / {self.misses} misses)"
        )
