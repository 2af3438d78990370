"""In-band scheduler: sampling-period autotuning during live steps.

The paper runs its machinery *inside* the simulation ("the setting of
the autotuner can be adjusted dynamically during the time-stepping
iterations", Section 3.2.1; the load balancer "will converge to an
optimal ratio" after a few sampling periods, Section 3.3). This module
is that in-band loop for the repro: `OnlineScheduler.on_step` is called
by the solver after every accepted step; every `steps_per_period` steps
it closes one `tuning_period` telemetry span and advances a state
machine

    warm-start? -> TUNE (one search-strategy candidate per period)
                -> BALANCE (one damped ratio update per period)
                -> DONE

The TUNE phase is driven by the `repro.tuning.search` engine: the
joint kernel/runtime configuration space (`hybrid_param_space` — the
kernel 3/5 matrices-per-block tilings x kernel 7 column tile x engine
fusion x worker chunking, declared once with restrictions) is walked by
a pluggable strategy (greedy `local` coordinate descent by default, so
a campaign prices roughly the sum of the axis lengths instead of their
product), and each period-averaged measurement is scored by a pluggable
objective — time, joules, or energy-delay product from the simulated
power models. The campaign terminates when the *strategy* converges,
not when a candidate list is exhausted.

Candidates are priced on the simulated device with injected measurement
noise whose magnitude shrinks with the period length — averaging over a
period of real steps is exactly why the paper's tuner tolerates noisy
timers. Winners and the converged ratio persist through `TuningCache`
keyed by (device fingerprint, FE config, backend, objective), so a
second run on the same architecture *for the same objective*
warm-starts and skips the campaign entirely; a port to a different
device — or a different objective — misses the cache and re-tunes, the
paper's "changes will be detected and the load will be rebalanced
automatically".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.kernels.registry import KernelSelection
from repro.tuning.balance import AutoBalancer
from repro.tuning.cache import TuningCache
from repro.tuning.parameters import ParamSpace
from repro.tuning.search import get_objective, make_strategy

__all__ = [
    "SchedulerConfig",
    "SchedulerReport",
    "Campaign",
    "kernel_campaigns",
    "hybrid_param_space",
    "OnlineScheduler",
]

#: Cache key for the converged zone-split ratio (stored alongside the
#: kernel winners under the same device/config/backend key space).
BALANCE_KEY = "balance"

#: Cache key for the tuned runtime pair (engine fusion, worker chunk).
RUNTIME_KEY = "runtime"


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs of the in-band loop (defaults = the paper's setup)."""

    steps_per_period: int = 40
    noise_rel: float = 0.02
    damping: float = 0.35
    tol: float = 0.02
    max_balance_periods: int = 50
    initial_ratio: float = 0.5
    seed: int = 0
    #: what the campaign minimizes ("time", "energy", "edp")
    objective: str = "time"
    #: how it walks the space ("exhaustive", "random", "local")
    strategy: str = "local"

    def __post_init__(self):
        if self.steps_per_period < 1:
            raise ConfigError("steps_per_period must be >= 1")
        if not (0.0 < self.initial_ratio < 1.0):
            raise ConfigError("initial_ratio must be in (0, 1)")
        # Resolve both names now so a typo fails at construction, not
        # mid-campaign (typed ConfigError out of the registries).
        get_objective(self.objective)
        make_strategy(self.strategy)


@dataclass
class SchedulerReport:
    """What one run's in-band scheduling did."""

    winners: dict = field(default_factory=dict)
    runtime: dict = field(default_factory=dict)
    ratio: float = 0.5
    periods_tune: int = 0
    periods_balance: int = 0
    converged: bool = False
    warm_started: bool = False
    steps_observed: int = 0
    ratio_history: list[float] = field(default_factory=list)
    objective: str = "time"
    strategy: str = "local"
    evaluations: int = 0
    feasible_points: int = 0

    @property
    def periods(self) -> int:
        return self.periods_tune + self.periods_balance


@dataclass(frozen=True)
class Campaign:
    """One kernel's candidate sweep: name, tuned parameter, space.

    Retained for the offline per-kernel CLI sweeps (`repro tune
    kernelN`) and as the reference axis definitions; the in-band
    scheduler now searches the joint `hybrid_param_space` instead.
    """

    kernel: str
    param: str
    candidates: tuple
    time_fn: object  # candidate value -> modelled seconds


def kernel_campaigns(fe_cfg, gpu_spec) -> list[Campaign]:
    """The three Section 3.2.1 campaigns, feasibility-filtered.

    Kernels 3 and 5 sweep matrices-per-block (the custom GEMM and the
    batched-dgemm tilings), kernel 7 sweeps the column tile width —
    the same spaces `repro tune kernel3|kernel5|kernel7` explores
    offline. Infeasible candidates (over shared memory / register
    budget on this device) are dropped up front.
    """
    from repro.gpu import execute_kernel
    from repro.kernels.k34_custom_gemm import kernel3_cost
    from repro.kernels.k56_dgemm_batched import kernel5_cost
    from repro.kernels.k7_force import kernel7_cost

    specs = [
        ("kernel3", "matrices_per_block", (1, 2, 4, 8, 16, 32, 64, 128),
         lambda v: kernel3_cost(fe_cfg, "v3", matrices_per_block=v)),
        ("kernel5", "matrices_per_block", (1, 2, 4, 8, 16, 32, 64),
         lambda v: kernel5_cost(fe_cfg, "tuned", v)),
        ("kernel7", "block_cols", (1, 2, 4, 8, 16, 32, 64),
         lambda v: kernel7_cost(fe_cfg, "v3", block_cols=v)),
    ]
    campaigns = []
    for kernel, param, candidates, build in specs:
        feasible = []
        times = {}
        for v in candidates:
            try:
                times[v] = execute_kernel(gpu_spec, build(v)).time_s
            except ValueError:
                continue
            feasible.append(v)
        if not feasible:
            raise ValueError(f"no feasible {kernel} candidates on {gpu_spec.name}")
        campaigns.append(
            Campaign(kernel, param, tuple(feasible), times.__getitem__)
        )
    return campaigns


#: Feasible-set memo for `hybrid_param_space`, keyed by (FE config,
#: device name). Feasibility is deterministic in that pair, and a cold
#: scheduler is built per run — without the memo every campaign would
#: re-price all 3k+ launch configurations it can never change.
_SPACE_MEMO: dict = {}


def hybrid_param_space(fe_cfg, gpu_spec) -> ParamSpace:
    """The joint kernel/runtime configuration space, declared once.

    Five axes in the kernel_tuner `tune_params` + `restrictions`
    idiom: the three Section 3.2.1 kernel tilings plus the two runtime
    knobs (host engine fusion, worker zone-chunking). The fusion axis
    spans three host stagings — "fused" (dense zero-allocation),
    "sumfact" (matrix-free sum-factorization; wins on modeled work past
    the per-order crossover, see `repro.fem.sumfact`) and "legacy" (the
    unfused allocate-per-call staging, priced by the hybrid backend's
    `LEGACY_FUSION_FACTOR`) — so the multi-objective tuner picks the
    dense/sumfact crossover per order instead of hard-coding it.
    Restrictions eliminate launch configurations over the device's
    shared-memory / register budget (memoized — each axis value is
    priced once, not once per cartesian point) and the cross-parameter
    rule that only the batched hot paths (fused, sumfact) chunk zones.
    """
    from repro.gpu import execute_kernel
    from repro.kernels.k34_custom_gemm import kernel3_cost
    from repro.kernels.k56_dgemm_batched import kernel5_cost
    from repro.kernels.k7_force import kernel7_cost

    def axis_feasible(build):
        memo: dict = {}

        def ok(value) -> bool:
            if value not in memo:
                try:
                    execute_kernel(gpu_spec, build(value))
                    memo[value] = True
                except ValueError:
                    memo[value] = False
            return memo[value]

        return ok

    k3_ok = axis_feasible(lambda v: kernel3_cost(fe_cfg, "v3", matrices_per_block=v))
    k5_ok = axis_feasible(lambda v: kernel5_cost(fe_cfg, "tuned", v))
    k7_ok = axis_feasible(lambda v: kernel7_cost(fe_cfg, "v3", block_cols=v))
    space = ParamSpace(
        restrictions=(
            lambda c: k3_ok(c["kernel3_matrices_per_block"]),
            lambda c: k5_ok(c["kernel5_matrices_per_block"]),
            lambda c: k7_ok(c["kernel7_block_cols"]),
            # Zone chunking is a property of the batched hot paths'
            # worker loop (fused and sumfact share it); the legacy
            # staging always processes zone-by-zone.
            lambda c: c["fusion"] != "legacy" or c["chunk"] == 1,
        ),
        kernel3_matrices_per_block=(1, 2, 4, 8, 16, 32, 64, 128),
        kernel5_matrices_per_block=(1, 2, 4, 8, 16, 32, 64),
        kernel7_block_cols=(1, 2, 4, 8, 16, 32, 64),
        fusion=("fused", "sumfact", "legacy"),
        chunk=(1, 2, 4, 8),
    )
    memo_key = (fe_cfg, gpu_spec.name)
    cached = _SPACE_MEMO.get(memo_key)
    if cached is None:
        _SPACE_MEMO[memo_key] = cached = space.candidates()
    else:
        # Pre-seed the enumeration cache; each instance stays
        # independently constrainable (constrain() invalidates it).
        space._feasible = list(cached)
    return space


def winners_from_candidate(candidate: dict) -> tuple[dict, dict]:
    """Split a joint-space candidate into (kernel winners, runtime pair).

    The winner map keeps the historical per-kernel shape consumed by
    `KernelSelection.from_winners` and the `TuningCache`.
    """
    winners = {
        "kernel3": {"matrices_per_block": candidate["kernel3_matrices_per_block"]},
        "kernel5": {"matrices_per_block": candidate["kernel5_matrices_per_block"]},
        "kernel7": {"block_cols": candidate["kernel7_block_cols"]},
    }
    runtime = {"fusion": candidate["fusion"], "chunk": candidate["chunk"]}
    return winners, runtime


class OnlineScheduler:
    """Drives tuning + balancing from the solver's step loop.

    Parameters
    ----------
    backend : an attached `repro.backends.HybridBackend` (supplies the
        device spec, FE config, pricing model and ratio/selection hooks).
    cache : optional `TuningCache` for persistence + warm start.
    config : `SchedulerConfig`; None = defaults. `objective` /
        `strategy` select the search engine's scoring rule and walk.
    tracer : optional enabled `Tracer` — each sampling period becomes a
        "tuning_period" span (category "sched"), warm starts and ratio
        moves are instant events.
    """

    def __init__(self, backend, cache: TuningCache | None = None,
                 config: SchedulerConfig | None = None, tracer=None):
        if backend.fe_cfg is None:
            raise ValueError("backend must be attached before scheduling")
        self.backend = backend
        self.cache = cache
        self.cfg = config or SchedulerConfig()
        self.tracer = tracer if (tracer is not None and tracer.enabled) else None
        self._rng = np.random.default_rng(self.cfg.seed)
        self.objective = get_objective(self.cfg.objective)
        self.report = SchedulerReport(
            ratio=self.cfg.initial_ratio,
            objective=self.objective.name,
            strategy=self.cfg.strategy,
        )
        self._steps_in_period = 0
        self._span = -1
        self._strategy = None  # built lazily: warm starts never need it
        self._pending: dict | None = None
        self._state = "tune"
        backend.set_ratio(self.cfg.initial_ratio)
        if not self._warm_start():
            self._strategy = make_strategy(self.cfg.strategy, seed=self.cfg.seed)
            self._strategy.reset(hybrid_param_space(backend.fe_cfg, backend.gpu))
            self.report.strategy = self._strategy.name
            self.report.feasible_points = self._strategy.feasible_points

    # -- Persistence --------------------------------------------------------

    def _warm_start(self) -> bool:
        """Adopt cached winners + ratio when every entry is present.

        Lookups carry the campaign objective: a cache populated by a
        time campaign never warm-starts an energy one — the whole point
        of per-objective winners is that they differ.
        """
        if self.cache is None:
            return False
        spec, cfg = self.backend.gpu, self.backend.fe_cfg
        obj = self.objective.name
        winners = {}
        for kernel in ("kernel3", "kernel5", "kernel7"):
            hit = self.cache.lookup(
                spec, cfg, kernel, backend=self.backend.name, objective=obj
            )
            if hit is None:
                return False
            winners[kernel] = hit
        balance = self.cache.lookup(
            spec, cfg, BALANCE_KEY, backend=self.backend.name, objective=obj
        )
        if balance is None or "ratio" not in balance:
            return False
        self.report.winners = winners
        self.report.ratio = float(balance["ratio"])
        self.report.warm_started = True
        self.report.converged = True
        self.backend.apply_selection(KernelSelection.from_winners(winners))
        # The runtime pair postdates the kernel winners in the cache
        # format; absent entries (old caches) keep the defaults.
        runtime = self.cache.lookup(
            spec, cfg, RUNTIME_KEY, backend=self.backend.name, objective=obj
        )
        if runtime is not None and {"fusion", "chunk"} <= set(runtime):
            self.report.runtime = dict(runtime)
            self.backend.apply_runtime(runtime["fusion"], int(runtime["chunk"]))
        self.backend.set_ratio(self.report.ratio)
        self._state = "done"
        if self.tracer is not None:
            self.tracer.instant(
                "tuning_warm_start", category="sched",
                ratio=self.report.ratio,
                objective=obj,
                device=self.cache.device_fingerprint(spec),
            )
        return True

    def _store(self, kernel: str, params: dict) -> None:
        if self.cache is not None:
            self.cache.store(
                self.backend.gpu, self.backend.fe_cfg, kernel, params,
                backend=self.backend.name, objective=self.objective.name,
            )

    # -- The per-step hook --------------------------------------------------

    def on_step(self) -> None:
        """Advance one step; runs the period machinery at boundaries."""
        if self._state == "done":
            return
        self.report.steps_observed += 1
        if self._steps_in_period == 0:
            self._begin_period()
        self._steps_in_period += 1
        if self._steps_in_period >= self.cfg.steps_per_period:
            self._steps_in_period = 0
            self._end_period()

    def finalize(self) -> None:
        """Close any open period span (end of run or scheduler teardown)."""
        if self._span >= 0 and self.tracer is not None:
            self.tracer.end(self._span)
        self._span = -1
        self._state = "done"

    def reset(self) -> None:
        """Abort scheduling (e.g. the hybrid backend was swapped away)."""
        self.finalize()

    # -- Period machinery ---------------------------------------------------

    def _begin_period(self) -> None:
        if self._state == "tune":
            # The strategy picks this period's candidate up front so the
            # telemetry span can name it; None = strategy converged.
            self._pending = self._strategy.ask()
            if self._pending is None:
                self._adopt_best()
        if self.tracer is None:
            return
        if self._state == "tune":
            meta = {"phase": "tune", "objective": self.objective.name,
                    "evaluation": self._strategy.evaluations + 1,
                    **self._pending}
        else:
            meta = {"phase": "balance", "ratio": round(self.report.ratio, 4)}
        self._span = self.tracer.begin("tuning_period", category="sched", meta=meta)

    def _end_period(self) -> None:
        if self._span >= 0 and self.tracer is not None:
            self.tracer.end(self._span)
            self._span = -1
        if self._state == "tune":
            self._tune_period()
        elif self._state == "balance":
            self._balance_period()

    def _noisy(self, value: float) -> float:
        """One period-averaged noisy measurement of a modelled quantity.

        Per-step timer noise averages down over the period —
        noise/sqrt(n) — which is the mechanism that lets the paper's
        tuner make reliable choices from jittery step timings.
        """
        sigma = self.cfg.noise_rel / math.sqrt(self.cfg.steps_per_period)
        return max(value * (1.0 + self._rng.normal(0.0, sigma)), 1e-12)

    # Backwards-compatible alias (pre-search-engine name).
    _measure = _noisy

    def _tune_period(self) -> None:
        """Price this period's candidate and feed the strategy."""
        from repro.tuning.search import Measurement

        exact = self.backend.measure_candidate(self._pending)
        noisy = Measurement(
            time_s=self._noisy(exact.time_s),
            energy_j=self._noisy(exact.energy_j),
        )
        self._strategy.tell(self._pending, self.objective.score(noisy))
        self._pending = None
        self.report.periods_tune += 1
        self.report.evaluations = self._strategy.evaluations

    def _adopt_best(self) -> None:
        """Strategy converged: adopt + persist the winner, hand to balancer."""
        winners, runtime = winners_from_candidate(self._strategy.best)
        self.report.winners = winners
        self.report.runtime = runtime
        for kernel, params in winners.items():
            self._store(kernel, params)
        self._store(RUNTIME_KEY, runtime)
        self.backend.apply_selection(KernelSelection.from_winners(winners))
        self.backend.apply_runtime(runtime["fusion"], int(runtime["chunk"]))
        self._state = "balance"

    def _balance_period(self) -> None:
        ratio = self.report.ratio
        t_gpu = self._noisy(self.backend.gpu_time_s(ratio))
        t_cpu = self._noisy(self.backend.cpu_time_s(1.0 - ratio))
        self.report.periods_balance += 1
        self.report.ratio_history.append(ratio)
        if AutoBalancer.is_balanced(t_gpu, t_cpu, self.cfg.tol):
            self.report.converged = True
            self._store(BALANCE_KEY, {"ratio": ratio})
            self._state = "done"
            return
        if self.report.periods_balance >= self.cfg.max_balance_periods:
            # Out of budget: keep the best ratio found, don't persist an
            # unconverged split.
            self._state = "done"
            return
        new = AutoBalancer.update_ratio(ratio, t_gpu, t_cpu, self.cfg.damping)
        self.report.ratio = new
        self.backend.set_ratio(new)
        if self.tracer is not None:
            self.tracer.instant(
                "ratio_change", category="sched",
                ratio=round(new, 4), t_gpu=t_gpu, t_cpu=t_cpu,
            )
