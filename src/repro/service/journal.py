"""Crash-safe write-ahead job journal + content-addressed result store.

The fleet's durability story, in the same hardening idiom as
`repro.io.checkpoint` and the `TuningCache`:

* `JobJournal` — an append-only JSONL write-ahead log. Every record
  carries a monotonically increasing `seq` and a SHA-256 over its own
  canonical JSON, and every append is flushed (+ fsynced by default)
  before the action it describes proceeds. A crash can tear at most
  the final line, and a torn, bit-flipped or undecodable line is
  *detected* on replay — skipped with a warning in lenient mode, raised
  as the typed `JournalCorruptionError` in strict mode — never silently
  trusted. Reopening a journal whose last line is torn ends that line
  first, so the next record starts a line of its own.
* `recover` — folds a replayed journal into the fleet's restart state:
  jobs with a `submit` record and no terminal record are pending again
  (a job that was mid-run when the process died re-runs — it never
  completed, so re-running preserves exactly-once), jobs with a
  terminal record are never re-run.
* `ResultStore` — completed results keyed by the job's content key
  (SHA-256 of problem + canonical config + code-version). The final
  state arrays are stored whole (atomic temp + `os.replace`, SHA-256
  inside the archive), so a recovered or repeated job's result is
  *bit-identical* to the original run, verifiably.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from repro.service.jobs import JobResult, JobSpec
from repro.errors import CorruptionError

__all__ = [
    "JournalCorruptionError",
    "JobJournal",
    "RecoveredState",
    "recover",
    "ResultStore",
]

_HASH_KEY = "sha256"

#: Journal record types. "submit" precedes enqueue (write-ahead), the
#: terminal types are mutually exclusive per job id.
RECORD_TYPES = ("submit", "start", "complete", "fail", "shed", "cancel")
_TERMINAL_TYPES = ("complete", "fail", "shed", "cancel")


class JournalCorruptionError(CorruptionError):
    """A journal line failed to parse or verify (strict mode only)."""


def _record_digest(record: dict) -> str:
    """SHA-256 over the record's canonical JSON, minus the hash field."""
    body = {k: v for k, v in record.items() if k != _HASH_KEY}
    return hashlib.sha256(
        json.dumps(body, sort_keys=True, default=repr).encode()
    ).hexdigest()


class JobJournal:
    """Append-only, self-verifying JSONL write-ahead log."""

    def __init__(self, path: str | Path, strict: bool = False, sync: bool = True):
        self.path = Path(path)
        self.strict = strict
        self.sync = sync
        self._lock = threading.Lock()
        self.recovered_corrupt_lines = 0
        # Continue the sequence from the existing journal (restart). The
        # records this replay read are kept for the first `recover()`,
        # so a fleet start parses and verifies each line once; an append
        # drops them, since they no longer cover the file.
        self._seq = 0
        self._opened: list[dict] | None = None
        if self.path.exists():
            self._opened = self.replay()
            if self._opened:
                self._seq = max(r["seq"] for r in self._opened) + 1
            self._end_torn_line()

    def _take_opened(self) -> list[dict] | None:
        """The records the open read, if nothing was appended since;
        handed out once (package-internal: `recover`, the fleet)."""
        with self._lock:
            records, self._opened = self._opened, None
        return records

    def _end_torn_line(self) -> None:
        """Terminate a last line a crash tore, once per open: appended
        to the fragment, the next record would share its corrupt line."""
        with open(self.path, "rb") as fh:
            if fh.seek(0, os.SEEK_END) == 0:
                return
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) == b"\n":
                return
        self._write(b"\n")

    def _write(self, data: bytes) -> None:
        """Append `data`, flushed (and fsynced when `sync`)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "ab") as fh:
            fh.write(data)
            fh.flush()
            if self.sync:
                os.fsync(fh.fileno())

    def append(self, rtype: str, **payload) -> int:
        """Durably append one record; returns its sequence number.

        The write is flushed (and fsynced when `sync`) before
        returning, so the caller may treat the record as stable — this
        is what makes the journal *write-ahead*: the fleet records
        intent (submit) before acting on it (enqueue).
        """
        if rtype not in RECORD_TYPES:
            raise ValueError(f"unknown journal record type '{rtype}'")
        with self._lock:
            self._opened = None
            record = {"seq": self._seq, "type": rtype, **payload}
            record[_HASH_KEY] = _record_digest(record)
            line = json.dumps(record, sort_keys=True, default=repr)
            self._write(line.encode() + b"\n")
            self._seq += 1
            return record["seq"]

    def replay(self) -> list[dict]:
        """Parse + verify every record; see module docstring for the
        lenient (skip + warn) vs strict (raise) corruption contract.

        Lines are split and parsed as bytes, so a byte that is not
        UTF-8 corrupts only its own line (its decode error is a
        ValueError like any other parse failure)."""
        if not self.path.exists():
            return []
        records: list[dict] = []
        bad = 0
        for lineno, line in enumerate(self.path.read_bytes().split(b"\n"), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("record is not an object")
                stored = record.get(_HASH_KEY)
                if stored != _record_digest(record):
                    raise ValueError("record failed its SHA-256 check")
            except (ValueError, TypeError) as exc:
                if self.strict:
                    raise JournalCorruptionError(
                        f"journal {self.path} line {lineno} is corrupt: {exc}"
                    ) from exc
                bad += 1
                warnings.warn(
                    f"journal {self.path} line {lineno} is corrupt "
                    f"({exc}); skipping it",
                    stacklevel=2,
                )
                continue
            records.append(record)
        self.recovered_corrupt_lines = bad
        return records


@dataclass
class RecoveredState:
    """What a restarted fleet learns from its journal."""

    #: Submitted jobs with no terminal record, in submission order —
    #: including jobs that were running at the crash (they never
    #: completed; re-running them preserves exactly-once).
    pending: list[JobSpec] = field(default_factory=list)
    #: job_id -> content_key for jobs with a `complete` record; these
    #: are never re-run, their results live in the `ResultStore`.
    completed: dict[str, str] = field(default_factory=dict)
    #: job_ids that had started (a `start` record) but not finished.
    interrupted: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def recover(journal: JobJournal) -> RecoveredState:
    """Fold a replayed journal into restart state (see `RecoveredState`).

    Reuses the records the journal's open read when nothing was appended
    since, so each line is parsed, verified and warned about once."""
    specs: dict[str, JobSpec] = {}
    order: list[str] = []
    started: set[str] = set()
    terminal: dict[str, str] = {}
    completed: dict[str, str] = {}
    records = journal._take_opened()
    for record in records if records is not None else journal.replay():
        rtype = record.get("type")
        job_id = record.get("job_id") or record.get("job", {}).get("job_id")
        if rtype == "submit":
            try:
                spec = JobSpec.from_dict(record["job"])
            except (KeyError, TypeError, ValueError) as exc:
                warnings.warn(
                    f"journal submit record seq={record.get('seq')} does not "
                    f"describe a valid job ({exc}); skipping it",
                    stacklevel=2,
                )
                continue
            specs[spec.job_id] = spec
            order.append(spec.job_id)
        elif rtype == "start" and job_id:
            started.add(job_id)
        elif rtype in _TERMINAL_TYPES and job_id:
            terminal.setdefault(job_id, rtype)  # first terminal wins
            if rtype == "complete":
                completed[job_id] = record.get("content_key", "")
    pending = [
        specs[j] for j in order if j in specs and j not in terminal
    ]
    state = RecoveredState(
        pending=pending,
        completed=completed,
        interrupted=[j for j in order if j in started and j not in terminal],
    )
    state.counts = {
        "submitted": len(order),
        "pending": len(pending),
        "completed": len(completed),
        "interrupted": len(state.interrupted),
        "terminal": len(terminal),
        "corrupt_lines": journal.recovered_corrupt_lines,
    }
    return state


class ResultStore:
    """Content-addressed store of completed results (state included).

    With a `root` directory, results persist as one `.npz` per content
    key with the `repro.io.checkpoint` hardening (atomic temp +
    `os.replace`, SHA-256 inside the archive, typed corruption
    handling). With `root=None` the store is in-memory — same
    interface, no durability (used by journal-less fleets).
    """

    def __init__(self, root: str | Path | None = None, strict: bool = False):
        self.root = Path(root) if root is not None else None
        self.strict = strict
        self._memory: dict[str, tuple[JobResult, object]] = {}
        self._lock = threading.Lock()

    def _path(self, key: str) -> Path:
        assert self.root is not None
        return self.root / f"result_{key}.npz"

    def __contains__(self, key: str) -> bool:
        if self.root is None:
            return key in self._memory
        return self._path(key).exists()

    def put(self, key: str, result: JobResult, state) -> None:
        """Store a completed result under its content key."""
        if self.root is None:
            with self._lock:
                self._memory[key] = (result, state.copy())
            return
        import numpy as np

        from repro.io.checkpoint import payload_digest

        meta = result.to_dict()
        payload = {
            "v": np.asarray(state.v),
            "e": np.asarray(state.e),
            "x": np.asarray(state.x),
            "t": np.asarray(state.t),
            "meta_json": np.asarray(json.dumps(meta, sort_keys=True)),
        }
        payload[_HASH_KEY] = np.asarray(payload_digest(payload))
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        tmp = path.with_name(f".{path.name}.tmp")
        try:
            with open(tmp, "wb") as fh:
                np.savez_compressed(fh, **payload)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    def get(self, key: str) -> tuple[JobResult, object] | None:
        """Load `(result, state)` or None on a miss.

        The stored SHA-256 is verified and the state digest recomputed
        from the loaded arrays, so a served cache hit is provably
        bit-identical to what the original run produced. Corrupt
        archives are a miss (warned) in lenient mode, raised in strict.
        """
        if self.root is None:
            with self._lock:
                hit = self._memory.get(key)
            if hit is None:
                return None
            result, state = hit
            import dataclasses

            return dataclasses.replace(result, cached=True), state.copy()
        path = self._path(key)
        if not path.exists():
            return None
        import zipfile

        import numpy as np

        from repro.hydro.state import HydroState
        from repro.io.checkpoint import payload_digest

        try:
            with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
                payload = {k: data[k].copy() for k in data.files}
            stored = str(payload.pop(_HASH_KEY).item())
            if stored != payload_digest(payload):
                raise ValueError("stored SHA-256 does not match the content")
            meta = json.loads(str(payload["meta_json"].item()))
            state = HydroState(
                payload["v"], payload["e"], payload["x"], float(payload["t"])
            )
        except (zipfile.BadZipFile, EOFError, OSError, KeyError,
                ValueError, json.JSONDecodeError) as exc:
            if self.strict:
                raise JournalCorruptionError(
                    f"result archive {path} is corrupt: {exc}"
                ) from exc
            warnings.warn(
                f"result archive {path} is corrupt ({exc}); treating as a "
                "cache miss",
                stacklevel=2,
            )
            return None
        meta["cached"] = True
        return JobResult(**meta), state

    def __len__(self) -> int:
        if self.root is None:
            return len(self._memory)
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("result_*.npz"))
