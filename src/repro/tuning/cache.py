"""Persistent autotuning cache with architecture-change detection.

"Auto tuning is a convenient and robust tool. When the code is ported
on another architecture, the changes will be detected and the load will
be rebalanced automatically." (Section 3.3.) The cache keys tuned
parameters by (device fingerprint, FE configuration, kernel) — plus an
optional execution-backend component, so the in-band scheduler's
winners for `backend="hybrid"` never leak into a different execution
policy: a lookup on the same architecture returns instantly, a lookup
on a new device misses — triggering a fresh tuning campaign — without
ever serving stale parameters across hardware.

Durability mirrors the hardened `repro.io.checkpoint` pattern: every
flush goes to a temp file in the same directory followed by an atomic
`os.replace`, so a crash mid-write can never leave a truncated cache
behind. A cache file that *is* corrupt (hand-edited, torn by an old
writer, wrong shape) raises the typed `TuningCacheCorruptionError` in
strict mode and is otherwise recovered from gracefully: the cache
starts empty and the next campaign repopulates it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.errors import CorruptionError
from repro.gpu.specs import GPUSpec
from repro.kernels.config import FEConfig

__all__ = ["TuningCache", "TuningCacheCorruptionError"]


class TuningCacheCorruptionError(CorruptionError):
    """A tuning-cache file failed to parse or validate.

    Part of the unified `repro.errors` hierarchy (CLI exit code 3);
    still a `RuntimeError` through `CorruptionError` for compatibility.
    """


class TuningCache:
    """JSON-backed map: (device fingerprint, config, kernel[, backend]) -> params.

    Parameters
    ----------
    path : JSON file backing the cache (None = in-memory only).
    strict : raise `TuningCacheCorruptionError` on a corrupt file
        instead of the default graceful recovery (start empty, re-tune;
        `recovered_from_corruption` records that it happened).
    """

    def __init__(self, path: str | Path | None = None, strict: bool = False):
        self.path = Path(path) if path is not None else None
        self._store: dict[str, dict] = {}
        self.recovered_from_corruption = False
        if self.path is not None and self.path.exists():
            self._store = self._load(strict)

    def _load(self, strict: bool) -> dict[str, dict]:
        try:
            store = json.loads(self.path.read_text())
            if not isinstance(store, dict) or not all(
                isinstance(v, dict) for v in store.values()
            ):
                raise TuningCacheCorruptionError(
                    f"tuning cache {self.path} is not a mapping of "
                    "key -> parameter dict"
                )
            return store
        except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
            err = TuningCacheCorruptionError(
                f"tuning cache {self.path} is corrupt ({exc}); "
                "delete it or re-run the tuning campaign"
            )
            if strict:
                raise err from exc
        except TuningCacheCorruptionError:
            if strict:
                raise
        self.recovered_from_corruption = True
        return {}

    # -- Keys ---------------------------------------------------------------

    @staticmethod
    def device_fingerprint(spec: GPUSpec) -> str:
        """Identity of the hardware the tuning is valid for.

        Any property that changes kernel behaviour participates: a port
        from Fermi to Kepler (more registers, Hyper-Q) changes the
        fingerprint and invalidates cached tunings, exactly the
        'detected and rebalanced automatically' behaviour.
        """
        return (
            f"{spec.name}|cc{spec.compute_capability}|sm{spec.sm_count}"
            f"|regs{spec.registers_per_sm}|shmem{spec.shared_kb_per_sm}"
            f"|bw{spec.mem_bandwidth_gbs}"
        )

    @staticmethod
    def config_key(cfg: FEConfig) -> str:
        return f"{cfg.dim}d-q{cfg.order}-qp{cfg.quad_points_1d}"

    def _key(
        self,
        spec: GPUSpec,
        cfg: FEConfig,
        kernel: str,
        backend: str | None = None,
        objective: str | None = None,
    ) -> str:
        key = f"{self.device_fingerprint(spec)}::{self.config_key(cfg)}::{kernel}"
        if backend:
            key += f"::{backend}"
        # The default time objective keeps the historical key shape, so
        # caches written before objectives existed stay valid; any other
        # objective gets its own namespace — an energy winner can never
        # warm-start a time campaign or vice versa.
        if objective and objective != "time":
            key += f"::obj={objective}"
        return key

    # -- API ------------------------------------------------------------------

    def lookup(
        self,
        spec: GPUSpec,
        cfg: FEConfig,
        kernel: str,
        backend: str | None = None,
        objective: str | None = None,
    ) -> dict | None:
        """Cached parameters, or None on a (device/config/backend/objective) miss."""
        return self._store.get(self._key(spec, cfg, kernel, backend, objective))

    def store(
        self,
        spec: GPUSpec,
        cfg: FEConfig,
        kernel: str,
        params: dict,
        backend: str | None = None,
        objective: str | None = None,
    ) -> None:
        if not isinstance(params, dict) or not params:
            raise ValueError("params must be a non-empty dict")
        self._store[self._key(spec, cfg, kernel, backend, objective)] = dict(params)
        self._flush()

    def get_or_tune(
        self,
        spec: GPUSpec,
        cfg: FEConfig,
        kernel: str,
        tune_fn,
        backend: str | None = None,
        objective: str | None = None,
    ) -> dict:
        """Return cached parameters or run `tune_fn()` and cache them."""
        hit = self.lookup(spec, cfg, kernel, backend, objective)
        if hit is not None:
            return hit
        params = tune_fn()
        self.store(spec, cfg, kernel, params, backend, objective)
        return params

    def __len__(self) -> int:
        return len(self._store)

    def _flush(self) -> None:
        """Atomic write: temp file in the same directory + `os.replace`.

        A crash between the two steps leaves either the previous intact
        cache or the complete new one on disk — never a truncation.
        """
        if self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(f".{self.path.name}.tmp")
        try:
            tmp.write_text(json.dumps(self._store, indent=1, sort_keys=True))
            os.replace(tmp, self.path)
        finally:
            tmp.unlink(missing_ok=True)
