"""Durable BENCH_*.json history files.

The scaling and comm-overlap benchmarks append one record per
invocation to a JSON history file at the repo root
(`BENCH_scaling.json`, `BENCH_comm_overlap.json`), so regressions are
visible across runs. `append_bench_record` is the one shared writer,
with the same hardening the rest of the repo's durable artifacts get:

* the updated history is written to a temp file in the same directory
  and moved into place with `os.replace` — a crash mid-write can never
  leave a truncated history under the final name;
* a missing, unreadable, or non-list history file is *tolerated*: the
  helper warns and starts a fresh history rather than crashing the
  benchmark that produced a perfectly good new record;
* every record is stamped with provenance — the record schema version,
  the git commit it ran at ("-dirty" when tracked files had uncommitted
  changes), and a host fingerprint — so a number in a shared history
  can always be traced back to the code and machine that produced it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import platform
import subprocess
import time
import warnings
from pathlib import Path

__all__ = ["append_bench_record", "BENCH_SCHEMA_VERSION", "host_fingerprint"]

#: Version of the record envelope written by `append_bench_record`.
#: Bump when the stamped provenance fields change shape.
BENCH_SCHEMA_VERSION = 2


@functools.lru_cache(maxsize=1)
def _git_commit(cwd: str | Path | None = None) -> str:
    """Short commit hash of the working tree at `cwd` (default: this
    source tree), suffixed "-dirty" when tracked files have uncommitted
    changes, or "unknown" outside git."""
    cwd = Path(__file__).resolve().parent if cwd is None else Path(cwd)

    def git(*args: str) -> str | None:
        try:
            out = subprocess.run(["git", *args], cwd=cwd, capture_output=True,
                                 text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    commit = git("rev-parse", "--short", "HEAD")
    if not commit:
        return "unknown"
    return commit + "-dirty" if git("status", "--porcelain", "--untracked-files=no") else commit


@functools.lru_cache(maxsize=1)
def host_fingerprint() -> str:
    """Stable short identifier of the machine running the benchmark."""
    ident = "|".join((
        platform.node(), platform.machine(), platform.system(),
        str(os.cpu_count() or 0),
    ))
    return hashlib.sha256(ident.encode("utf-8")).hexdigest()[:12]


def append_bench_record(record: dict, path: str | Path,
                        timestamp: bool = True) -> Path:
    """Atomically append one record to a BENCH_*.json history file.

    Returns the path written. The file holds a JSON list (a legacy
    single-object file is wrapped into one); corrupt content warns and
    starts fresh. When `timestamp`, a UTC ISO `timestamp` field is
    added to the record unless it already has one. Provenance fields
    (`schema_version`, `git_commit`, `host_fingerprint`) are stamped
    the same way — caller-supplied values win.
    """
    path = Path(path)
    history: list = []
    if path.exists():
        try:
            history = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, OSError, UnicodeDecodeError) as exc:
            warnings.warn(
                f"benchmark history {path} is unreadable ({exc}); "
                "starting a fresh history",
                stacklevel=2,
            )
            history = []
        if not isinstance(history, list):
            history = [history]
    record = dict(record)
    if timestamp and "timestamp" not in record:
        record["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
    record.setdefault("schema_version", BENCH_SCHEMA_VERSION)
    record.setdefault("git_commit", _git_commit())
    record.setdefault("host_fingerprint", host_fingerprint())
    history.append(record)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_text(json.dumps(history, indent=2) + "\n", encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path
