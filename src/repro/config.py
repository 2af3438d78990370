"""`RunConfig`: the one frozen configuration for a whole run.

Every entry point reads this single immutable dataclass: the solver
(`LagrangianHydroSolver(problem, config)` keeps it as `solver.config`),
the distributed backend and the `ResilientDriver` (through
`solver.config`), the service fleet (journaled in every `JobSpec`), and
`repro.api.run`, which composes them. Execution backend, simulated
ranks, resilience and telemetry are all fields here; `resolved_backend`
is the one place a backend name is resolved, and `BACKEND_NAMES` the
one list of valid names (re-exported by `repro.backends`, the CLI's
`--backend` choices).

The retired `cpu-parallel` spelling (`backend="cpu-parallel"` or
`workers` > 0) is rewritten here to what runs, `backend="cpu-fused"`
with `workers=0`, so warm keys, content keys, journals and manifests
only ever see the rewritten config. This is the only module that knows
the name.

This module stays import-light (stdlib only) so every layer can depend
on it without cycles.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields

from repro.errors import ConfigError

__all__ = [
    "RunConfig",
    "BACKEND_NAMES",
    "validate_order",
    "parse_rank_schedule",
    "MAX_ORDER",
    "DEFAULT_MAX_STEPS",
]

#: Step budget of a run whose config leaves `max_steps` unset.
DEFAULT_MAX_STEPS = 100_000
_INTEGRATORS = ("rk2avg", "euler", "rk4")
#: The execution policies `backend` accepts (also the CLI's `--backend`
#: choices and the `make_backend` registry keys).
BACKEND_NAMES = ("cpu-fused", "cpu-sumfact", "hybrid")
# The forked worker pool's backend name, retired: it runs as cpu-fused.
_RETIRED_PARALLEL = "cpu-parallel"
# Supported kinematic orders: the Qk-Qk-1 pairing needs k >= 1, and the
# problem registry / bench grid is validated through Q8 (ROADMAP item 3).
MAX_ORDER = 8


def validate_order(order) -> int:
    """Reject unsupported kinematic orders with a typed `ConfigError`.

    Shared by `RunConfig` and the CLI paths that build an `FEConfig`
    directly, so a bad --order exits with code 2 and a one-line hint
    instead of a deep stack trace from the FEM layer.
    """
    if not isinstance(order, int) or isinstance(order, bool):
        raise ConfigError(
            f"order must be an integer, got {order!r} "
            f"(hint: pass --order K with 1 <= K <= {MAX_ORDER})"
        )
    if not 1 <= order <= MAX_ORDER:
        raise ConfigError(
            f"unsupported order {order} "
            f"(hint: the Qk-Qk-1 pairing supports 1 <= order <= {MAX_ORDER})"
        )
    return order


def parse_rank_schedule(schedule: "str | None") -> dict[int, int]:
    """Parse an elastic-rank schedule "step:ranks,step:ranks,..." into
    {step: nranks}; a malformed one raises `ConfigError`."""
    if not schedule:
        return {}
    out: dict[int, int] = {}
    for item in str(schedule).split(","):
        item = item.strip()
        if not item:
            continue
        try:
            step_s, ranks_s = item.split(":")
            step, ranks = int(step_s), int(ranks_s)
        except ValueError:
            raise ConfigError(
                f"bad rank_schedule entry '{item}' (want 'step:ranks', e.g. '10:8')"
            ) from None
        if step < 1 or ranks < 1:
            raise ConfigError(f"rank_schedule entry '{item}': step and ranks must be >= 1")
        if step in out:
            raise ConfigError(f"rank_schedule repeats step {step}")
        out[step] = ranks
    return out


# Tuning-engine knobs (must mirror repro.tuning.search registries; a
# test cross-checks). Kept as literals so this module stays import-light.
_TUNING_OBJECTIVES = ("time", "energy", "edp")
_TUNING_STRATEGIES = ("exhaustive", "random", "local")


@dataclass(frozen=True)
class RunConfig:
    """Everything `repro.api.run` needs, in one frozen value.

    Problem construction (used when the problem is given by name):
    `dim`, `order`, `zones` (zones per dimension).

    Run control: `t_final` / `max_steps` / `cfl` / `integrator` /
    `quad_points_1d` / `pcg_tol` / `pcg_maxiter` / `energy_every` /
    `record_dt_history` mirror the solver knobs.

    Execution: `backend` is the policy selector — "cpu-fused"
    (zero-allocation hot path, the default when left as None),
    "cpu-sumfact" (matrix-free sum-factorization engine,
    O(order^{d+1}) per zone) or "hybrid" (fused execution priced as a
    CPU/GPU zone split, with in-band tuning via `repro.sched`). The
    retired "cpu-parallel" and `workers` > 0 become "cpu-fused" with
    `workers=0`. `ranks` > 0 wraps the resolved backend in the
    simulated-MPI distributed backend (composable with
    every node backend), and `overlap` toggles whether the
    interface-dof exchange is priced as hidden under the modeled
    interior-zone corner force of the rank with the fewest interior
    zones (pricing only; physics is bitwise identical). `hybrid_device`
    names the simulated GPU pricing the hybrid split, `tuning_cache` a JSON path
    for winner persistence / warm starts, and `tune_period_steps` the
    scheduler's sampling-period length.

    Resilience: a non-empty `faults` schedule, `checkpoint_every` > 0 or
    an `offload_device` wraps the run in the `ResilientDriver`.

    Telemetry: `telemetry=True` (implied by `trace_path` /
    `metrics_path`) attaches a `Tracer` + `CounterSampler`;
    `telemetry_cpu` / `telemetry_gpu` pick the metered specs and
    `sample_period_s` the counter cadence.
    """

    # problem construction (when the problem is passed by name)
    dim: int = 2
    order: int = 2
    zones: int = 8
    # run control
    t_final: float | None = None
    max_steps: int | None = None
    cfl: float | None = None
    integrator: str = "rk2avg"
    quad_points_1d: int | None = None
    pcg_tol: float = 1e-14
    pcg_maxiter: int | None = None
    energy_every: int = 1
    record_dt_history: bool = True
    # execution (`workers` is always 0 once constructed: the retired
    # spelling of cpu-parallel, still written by perfbench)
    workers: int = 0
    ranks: int = 0
    overlap: bool = True
    # Elastic-rank schedule "step:ranks,step:ranks,..." — e.g. "10:8,20:3"
    # grows to 8 ranks after step 10 and shrinks to 3 after step 20
    # (deterministic repartition; needs ranks > 0).
    rank_schedule: str | None = None
    backend: str | None = None
    hybrid_device: str = "K20"
    tuning_cache: str | None = None
    tune_period_steps: int = 40
    # Strict tuning-cache mode: a corrupt cache raises the typed
    # TuningCacheCorruptionError instead of warning + starting fresh.
    tuning_strict: bool = False
    # Multi-objective search tuning (repro.tuning.search): what the
    # in-band campaign minimizes ("time", "energy", "edp") and how it
    # walks the candidate space ("exhaustive", "random", "local").
    # Winners persist per objective, so one cache file can hold the
    # time-optimal and energy-optimal configurations side by side.
    tuning_objective: str = "time"
    tuning_strategy: str = "local"
    # resilience
    faults: str | None = None
    fault_seed: int = 0
    checkpoint_every: int = 0
    checkpoint_dir: str | None = None
    # Disk-checkpoint retention: keep at most this many ckpt_step*.npz
    # files (0 = keep everything). The most recent verified checkpoint
    # is never pruned.
    checkpoint_keep: int = 0
    offload_device: str | None = None
    # io
    restore: str | None = None
    vtk: str | None = None
    checkpoint: str | None = None
    # telemetry
    telemetry: bool = False
    sample_period_s: float = 1e-3
    telemetry_cpu: str = "E5-2670"
    telemetry_gpu: str | None = None
    trace_path: str | None = None
    metrics_path: str | None = None

    def __post_init__(self):
        validate_order(self.order)
        if self.integrator not in _INTEGRATORS:
            raise ConfigError(
                f"unknown integrator '{self.integrator}' "
                f"(choose from {_INTEGRATORS})"
            )
        if self.workers < 0 or self.ranks < 0:
            raise ConfigError("workers and ranks must be non-negative")
        if self.rank_schedule and self.ranks < 1:
            raise ConfigError("rank_schedule requires ranks >= 1")
        parse_rank_schedule(self.rank_schedule)
        if self.workers > 0 or self.backend == _RETIRED_PARALLEL:
            # The retired spelling runs in process, as cpu-fused.
            if self.backend not in (None, _RETIRED_PARALLEL):
                raise ConfigError(
                    f"workers={self.workers} conflicts with "
                    f"backend='{self.backend}' (workers imply {_RETIRED_PARALLEL})"
                )
            object.__setattr__(self, "backend", "cpu-fused")
            object.__setattr__(self, "workers", 0)
        if self.backend is not None and self.backend not in BACKEND_NAMES:
            raise ConfigError(
                f"unknown backend '{self.backend}' (choose from {BACKEND_NAMES})"
            )
        if self.energy_every < 1:
            raise ConfigError(f"energy_every must be >= 1, got {self.energy_every}")
        if self.tune_period_steps < 1:
            raise ConfigError("tune_period_steps must be >= 1")
        if self.tuning_objective not in _TUNING_OBJECTIVES:
            raise ConfigError(
                f"unknown tuning_objective '{self.tuning_objective}' "
                f"(choose from {_TUNING_OBJECTIVES})"
            )
        if self.tuning_strategy not in _TUNING_STRATEGIES:
            raise ConfigError(
                f"unknown tuning_strategy '{self.tuning_strategy}' "
                f"(choose from {_TUNING_STRATEGIES})"
            )
        if self.checkpoint_every < 0:
            raise ConfigError("checkpoint_every must be non-negative")
        if self.checkpoint_keep < 0:
            raise ConfigError("checkpoint_keep must be non-negative")
        if self.sample_period_s <= 0:
            raise ConfigError("sample_period_s must be positive")

    @property
    def resolved_backend(self) -> str:
        """The effective execution policy, the one place a backend name
        is resolved: an explicit `backend` wins, else the fused default.
        """
        return self.backend if self.backend is not None else "cpu-fused"

    @property
    def resolved_execution(self) -> dict:
        """The resolved `(ranks, backend)` execution pair.

        `backend` is the *node* policy that evaluates every rank's zones
        when `ranks` > 0 (the distributed layer wraps it), the whole
        policy otherwise.
        """
        return {"ranks": self.ranks, "backend": self.resolved_backend}

    @property
    def telemetry_enabled(self) -> bool:
        """Telemetry is on explicitly or implied by an export path."""
        return bool(self.telemetry or self.trace_path or self.metrics_path)

    @property
    def resilient(self) -> bool:
        """Whether the run goes through the `ResilientDriver`."""
        return bool(self.faults or self.checkpoint_every or self.offload_device)

    @property
    def resolved_max_steps(self) -> int:
        """The step budget: `max_steps`, else `DEFAULT_MAX_STEPS`."""
        return self.max_steps if self.max_steps is not None else DEFAULT_MAX_STEPS

    def replace(self, **changes) -> "RunConfig":
        """A copy with the given fields changed (frozen-friendly)."""
        return dataclasses.replace(self, **changes)

    def describe(self) -> dict:
        """Compact non-default view (for logs and manifests)."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                out[f.name] = value
        return out
