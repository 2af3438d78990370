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
space of the three Section 3.2.1 kernel tilings (`hybrid_param_space`
over `repro.kernels.registry.TUNING_AXES` — the kernel 3/5
matrices-per-block tilings x the kernel 7 column tile, restricted to
what the device can launch) is walked by a pluggable strategy (greedy
`local` coordinate descent by default, so a campaign prices roughly the
sum of the axis lengths instead of their product), and each
period-averaged measurement is scored by a pluggable objective — time,
joules, or energy-delay product from the simulated power models. The
host side of every candidate is priced by the one host model of what
executes (the fused engine, `HybridExecutor._cpu_corner_force_s`), so
only the GPU tilings move a score. The campaign terminates when the
*strategy* converges, not when a candidate list is exhausted.

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
from repro.kernels.registry import TUNING_AXES, KernelSelection
from repro.tuning.balance import AutoBalancer
from repro.tuning.cache import TuningCache
from repro.tuning.parameters import ParamSpace
from repro.tuning.search import Measurement, get_objective, make_strategy

__all__ = [
    "SchedulerReport",
    "hybrid_param_space",
    "OnlineScheduler",
]

#: Cache key for the converged zone-split ratio (stored alongside the
#: kernel winners under the same device/config/backend key space).
BALANCE_KEY = "balance"

# The paper's sampling-period setup (Sections 3.2.1 and 3.3): per-step
# timers jitter by NOISE_REL, averaged down over each period; the damped
# ratio update (DAMPING) brings the two sides within TOL of each other
# in the paper's 12-14 periods, MAX_BALANCE_PERIODS being the give-up
# budget; every split starts even (INITIAL_RATIO), and the injected
# noise is seeded (SEED) so a run is reproducible.
NOISE_REL = 0.02
DAMPING = 0.35
TOL = 0.02
MAX_BALANCE_PERIODS = 50
INITIAL_RATIO = 0.5
SEED = 0


@dataclass
class SchedulerReport:
    """What one run's in-band scheduling did."""

    winners: dict = field(default_factory=dict)
    ratio: float = INITIAL_RATIO
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


def hybrid_param_space(fe_cfg, gpu_spec) -> ParamSpace:
    """The Section 3.2.1 tuning space: the three kernel tilings.

    One range per `TUNING_AXES` entry, in the kernel_tuner
    `tune_params` + `restrictions` idiom; the restrictions drop the
    launch configurations over the device's shared-memory / register
    budget (each axis value is tried once, not once per cartesian
    point).
    """

    def launchable(axis):
        ok = {v for v in axis.candidates if axis.launchable(fe_cfg, gpu_spec, v)}
        return lambda c: c[axis.name] in ok

    return ParamSpace(
        restrictions=[launchable(axis) for axis in TUNING_AXES],
        **{axis.name: axis.candidates for axis in TUNING_AXES},
    )


def winners_from_candidate(candidate: dict) -> dict:
    """A space point as the per-kernel winner map, e.g.
    ``{"kernel3": {"matrices_per_block": 8}, ...}`` — the shape
    `KernelSelection.from_winners` and the `TuningCache` entries use."""
    return {axis.kernel: {axis.param: candidate[axis.name]} for axis in TUNING_AXES}


class OnlineScheduler:
    """Drives tuning + balancing from the solver's step loop.

    Parameters
    ----------
    backend : an attached `repro.backends.HybridBackend` (supplies the
        device spec, FE config, pricing model and ratio/selection hooks).
    cache : optional `TuningCache` for persistence + warm start.
    steps_per_period : accepted steps per sampling period.
    objective : what a campaign minimizes ("time", "energy", "edp").
    strategy : how it walks the space ("exhaustive", "random", "local").
    tracer : optional enabled `Tracer` — each sampling period becomes a
        "tuning_period" span (category "sched"), warm starts and ratio
        moves are instant events.
    """

    def __init__(self, backend, cache: TuningCache | None = None,
                 steps_per_period: int = 40, objective: str = "time",
                 strategy: str = "local", tracer=None):
        if backend.fe_cfg is None:
            raise ValueError("backend must be attached before scheduling")
        if steps_per_period < 1:
            raise ConfigError("steps_per_period must be >= 1")
        self.backend = backend
        self.cache = cache
        self.steps_per_period = steps_per_period
        self.tracer = tracer if (tracer is not None and tracer.enabled) else None
        self._rng = np.random.default_rng(SEED)
        # Both names resolve now, so a typo is a ConfigError before any
        # period runs (warm starts included).
        self.objective = get_objective(objective)
        self._strategy = make_strategy(strategy, seed=SEED)
        self.report = SchedulerReport(
            objective=self.objective.name, strategy=self._strategy.name,
        )
        self._steps_in_period = 0
        self._span = -1
        self._pending: dict | None = None
        self._state = "tune"
        backend.set_ratio(INITIAL_RATIO)
        if not self._warm_start():
            self._strategy.reset(hybrid_param_space(backend.fe_cfg, backend.gpu))
            self.report.feasible_points = self._strategy.feasible_points

    # -- Persistence --------------------------------------------------------

    def _warm_start(self) -> bool:
        """Adopt cached winners + ratio when every entry is present.

        Lookups carry the campaign objective: a cache populated by a
        time campaign never warm-starts an energy one — the whole point
        of per-objective winners is that they differ. Other entries
        under the same key space (the `runtime` pair older caches hold)
        are never read.
        """
        if self.cache is None:
            return False
        spec, cfg = self.backend.gpu, self.backend.fe_cfg
        obj = self.objective.name
        winners = {}
        for axis in TUNING_AXES:
            hit = self.cache.lookup(
                spec, cfg, axis.kernel, backend=self.backend.name, objective=obj
            )
            if hit is None:
                return False
            winners[axis.kernel] = hit
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
        if self._steps_in_period >= self.steps_per_period:
            self._steps_in_period = 0
            self._end_period()

    def finalize(self) -> None:
        """Close any open period span (end of run or scheduler teardown)."""
        if self._span >= 0 and self.tracer is not None:
            self.tracer.end(self._span)
        self._span = -1
        self._state = "done"

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
        sigma = NOISE_REL / math.sqrt(self.steps_per_period)
        return max(value * (1.0 + self._rng.normal(0.0, sigma)), 1e-12)

    def _tune_period(self) -> None:
        """Price this period's candidate and feed the strategy."""
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
        winners = winners_from_candidate(self._strategy.best)
        self.report.winners = winners
        for kernel, params in winners.items():
            self._store(kernel, params)
        self.backend.apply_selection(KernelSelection.from_winners(winners))
        self._state = "balance"

    def _balance_period(self) -> None:
        ratio = self.report.ratio
        t_gpu = self._noisy(self.backend.gpu_time_s(ratio))
        t_cpu = self._noisy(self.backend.cpu_time_s(1.0 - ratio))
        self.report.periods_balance += 1
        self.report.ratio_history.append(ratio)
        if AutoBalancer.is_balanced(t_gpu, t_cpu, TOL):
            self.report.converged = True
            self._store(BALANCE_KEY, {"ratio": ratio})
            self._state = "done"
            return
        if self.report.periods_balance >= MAX_BALANCE_PERIODS:
            # Out of budget: keep the best ratio found, don't persist an
            # unconverged split.
            self._state = "done"
            return
        new = AutoBalancer.update_ratio(ratio, t_gpu, t_cpu, DAMPING)
        self.report.ratio = new
        self.backend.set_ratio(new)
        if self.tracer is not None:
            self.tracer.instant(
                "ratio_change", category="sched",
                ratio=round(new, 4), t_gpu=t_gpu, t_cpu=t_cpu,
            )
