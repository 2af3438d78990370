"""Solver checkpoint/restart.

Long Lagrangian runs checkpoint and restart (the paper even motivates
the hybrid design with fault tolerance: "Applications are more fault
tolerant and runs faster, since the frequency of checking points can be
reduced"). A checkpoint stores the full unknown state (v, e, x, t), the
dt-controller state (so a restarted run reproduces the uninterrupted
trajectory bit-for-bit), and enough configuration metadata to verify a
restart is being applied to the same discretization.

Checkpoints are written atomically (temp file + `os.replace`, so a
crash mid-write never leaves a half-checkpoint under the final name)
and carry a SHA-256 content checksum inside the archive; a truncated or
bit-flipped file surfaces as `CheckpointCorruptionError` instead of a
raw numpy/zipfile exception.
"""

from __future__ import annotations

import hashlib
import os
import zipfile
from pathlib import Path

import numpy as np

from repro.hydro.state import HydroState
from repro.errors import CorruptionError

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "restore_solver",
    "payload_digest",
    "CheckpointCorruptionError",
]

# Version 2 adds the SHA-256 content checksum and the dt-controller
# state (`last_dt_est`); version-1 archives still load, without the
# integrity check.
_FORMAT_VERSION = 2
_CHECKSUM_KEY = "sha256"


class CheckpointCorruptionError(CorruptionError):
    """The checkpoint file is truncated, unreadable, or fails its checksum."""


def payload_digest(payload: dict[str, np.ndarray]) -> str:
    """SHA-256 over every entry except the checksum itself, in key order.

    Shared by every durable artifact in the repo that embeds its own
    integrity hash (checkpoints here, the service result store): one
    digest convention means one verification path to audit.
    """
    h = hashlib.sha256()
    for key in sorted(payload):
        if key == _CHECKSUM_KEY:
            continue
        arr = np.ascontiguousarray(payload[key])
        h.update(key.encode())
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def save_checkpoint(path: str | Path, solver, state: HydroState | None = None) -> Path:
    """Atomically write the solver state to a .npz checkpoint; returns the path."""
    state = state or solver.state
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    payload = {
        "format_version": np.asarray(_FORMAT_VERSION),
        "v": np.asarray(state.v),
        "e": np.asarray(state.e),
        "x": np.asarray(state.x),
        "t": np.asarray(state.t),
        "dim": np.asarray(solver.kinematic.dim),
        "order": np.asarray(solver.kinematic.order),
        "nzones": np.asarray(solver.kinematic.mesh.nzones),
        "quad_points_1d": np.asarray(solver.quad.npts_1d),
        "problem": np.asarray(getattr(solver.problem, "name", "unknown")),
        "controller_dt": np.asarray(solver.controller.dt),
        "last_dt_est": np.asarray(getattr(solver, "_last_dt_est", 0.0)),
    }
    payload[_CHECKSUM_KEY] = np.asarray(payload_digest(payload))
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as f:
            np.savez_compressed(f, **payload)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def load_checkpoint(path: str | Path, verify: bool = True) -> dict:
    """Read a checkpoint into a plain dict (state + metadata).

    Verifies the stored SHA-256 checksum (version >= 2); truncated
    archives, missing entries, and checksum mismatches all raise
    `CheckpointCorruptionError`.
    """
    path = Path(path)
    try:
        # Open the file here so it is closed even when a truncated
        # archive makes np.load raise before handing back the NpzFile.
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            payload = {key: data[key].copy() for key in data.files}
    except (zipfile.BadZipFile, EOFError, OSError) as exc:
        raise CheckpointCorruptionError(
            f"checkpoint {path} is unreadable (truncated or corrupted): {exc}"
        ) from exc
    if "format_version" not in payload:
        raise CheckpointCorruptionError(f"checkpoint {path} has no format_version entry")
    version = int(payload["format_version"])
    if not (1 <= version <= _FORMAT_VERSION):
        raise ValueError(f"unsupported checkpoint version {version}")
    if version >= 2:
        if _CHECKSUM_KEY not in payload:
            raise CheckpointCorruptionError(f"checkpoint {path} is missing its checksum")
        stored = str(payload.pop(_CHECKSUM_KEY).item())
        if verify:
            computed = payload_digest(payload)
            if computed != stored:
                raise CheckpointCorruptionError(
                    f"checkpoint {path} failed its SHA-256 check "
                    f"(stored {stored[:12]}..., computed {computed[:12]}...)"
                )
    return {key: arr.copy() if arr.ndim else arr.item() for key, arr in payload.items()}


def restore_solver(path: str | Path, solver) -> None:
    """Install a checkpoint into an already-constructed solver.

    The solver must be built on the *same* problem configuration; the
    metadata is cross-checked and mismatches raise instead of silently
    producing garbage. The dt-controller state is restored too, so a
    continued `run` reproduces the uninterrupted trajectory bit-for-bit.
    """
    chk = load_checkpoint(path)
    expectations = {
        "dim": solver.kinematic.dim,
        "order": solver.kinematic.order,
        "nzones": solver.kinematic.mesh.nzones,
        "quad_points_1d": solver.quad.npts_1d,
    }
    for key, expect in expectations.items():
        if int(chk[key]) != expect:
            raise ValueError(
                f"checkpoint mismatch: {key} is {chk[key]}, solver has {expect}"
            )
    if chk["v"].shape != solver.state.v.shape or chk["e"].shape != solver.state.e.shape:
        raise ValueError("checkpoint field shapes do not match the solver")
    solver.state = HydroState(chk["v"], chk["e"], chk["x"], float(chk["t"]))
    dt = float(chk["controller_dt"])
    if dt > 0:
        solver.controller.dt = dt
        last_est = float(chk.get("last_dt_est", 0.0))
        solver._last_dt_est = last_est if last_est > 0 else dt / solver.controller.cfl
