"""Leave nothing behind: processes, shared-memory segments, temp dirs.

The workload runs in its own session, so every process it starts --
pool children, the multiprocessing resource tracker that `SharedMemory`
launches, anything a future change forks -- carries that session id,
even after it is orphaned. `run.py` also makes itself a child
subreaper, so orphans are re-parented to it and can be reaped. The
workload logs the name of every shared-memory segment it creates. After
it exits, `leftovers` lists what is still there; `clean` stops it and
removes it, and the run fails naming the PIDs and paths. A new /dev/shm
entry the workload did not create (another program's) is reported and
left alone.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import signal
import time
from pathlib import Path

__all__ = ["become_subreaper", "child_pids", "clean", "leftovers", "processes",
           "shm_entries"]

SHM = Path("/dev/shm")
_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    """Adopt orphaned descendants (Linux); False where unsupported."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def processes() -> list[tuple[int, int, int, str]]:
    """(pid, ppid, session, state) for every process visible in /proc."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read().decode("utf-8", "replace")
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        out.append((int(entry), int(fields[1]), int(fields[3]), fields[0]))
    return out


def child_pids() -> list[int]:
    """Live child processes of this one, the multiprocessing resource
    tracker excluded (it is stopped separately)."""
    me, out = os.getpid(), []
    for pid, ppid, _sid, state in processes():
        if ppid != me or state == "Z":
            continue
        try:
            if b"resource_tracker" in Path(f"/proc/{pid}/cmdline").read_bytes():
                continue
        except OSError:
            continue
        out.append(pid)
    return out


def shm_entries() -> set[str]:
    return set(os.listdir(SHM)) if SHM.is_dir() else set()


def _reap(pid: int) -> bool:
    """Reap `pid` if it is our exited child; True once it is gone."""
    try:
        done, _ = os.waitpid(pid, os.WNOHANG)
        return done == pid
    except ChildProcessError:
        return not Path(f"/proc/{pid}").exists()


def leftovers(session: int, shm_before: set[str], tmp_dir: Path | None,
              own_shm: set[str] = frozenset()) -> dict:
    """What the workload in `session` left: live processes (own session,
    or orphans adopted by this process), the segments of `own_shm` (the
    names it created) still in /dev/shm, and any content of its temp
    dir. Under `foreign_shm`, the other /dev/shm entries that appeared
    meanwhile."""
    me = os.getpid()
    pids = []
    for pid, ppid, sid, state in processes():
        if pid == me or not (sid == session or ppid == me):
            continue
        if state == "Z" and _reap(pid):
            continue  # exited; nothing left running
        pids.append(pid)
    now = shm_entries()
    paths = sorted(str(p) for p in tmp_dir.iterdir()) if tmp_dir and tmp_dir.exists() else []
    return {"pids": sorted(pids), "shm": sorted(str(SHM / n) for n in now & set(own_shm)),
            "foreign_shm": sorted(str(SHM / n) for n in now - shm_before - set(own_shm)),
            "paths": paths}


def clean(found: dict, timeout: float = 5.0) -> None:
    """Kill and reap leftover processes, unlink the workload's own
    segments, remove paths."""
    for pid in found["pids"]:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout
    pending = list(found["pids"])
    while pending and time.monotonic() < deadline:
        pending = [p for p in pending if not _reap(p)]
        if pending:
            time.sleep(0.01)
    for path in found["shm"]:
        Path(path).unlink(missing_ok=True)
    for path in found["paths"]:
        p = Path(path)
        if p.is_dir() and not p.is_symlink():
            shutil.rmtree(p, ignore_errors=True)
        else:
            p.unlink(missing_ok=True)
