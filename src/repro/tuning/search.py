"""`repro.tuning.search`: the unified multi-objective tuning engine.

The paper's Section 3.2.1 tuner walks one hand-listed candidate per
sampling period and can only minimize time. This module generalizes it
behind one declarative API in the kernel_tuner idiom:

* the configuration space is a `ParamSpace` (named ranges +
  restrictions — see `repro.sched.hybrid_param_space` for the space of
  the three kernel tilings declared once in
  `repro.kernels.registry.TUNING_AXES`);
* a pluggable `SearchStrategy` decides which candidate to price next
  and when the campaign has converged (`exhaustive`, seeded `random`
  subsampling, greedy `local` coordinate descent);
* a pluggable `Objective` scores each candidate `Measurement` — wall
  time, joules from the simulated power models, or the energy-delay
  product. "Racing to Idle" applies: the energy winner is routinely a
  different configuration than the time winner, and both persist side
  by side in the `TuningCache` under per-objective keys.

Strategies follow an ask/tell protocol so the in-band
`OnlineScheduler` can interleave one evaluation per sampling period:
`reset(space)` binds the feasible set (raising the typed
`EmptyParamSpaceError` for an over-restricted declaration), `ask()`
yields the next candidate or None on convergence, `tell(cand, score)`
feeds the period-averaged measurement back. `run_search` is the
synchronous driver for offline campaigns (`repro tune campaign`).

Everything is deterministic under a fixed seed — strategies use their
own `random.Random`, never global state.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.tuning.parameters import ParamSpace

__all__ = [
    "Measurement",
    "Objective",
    "OBJECTIVES",
    "get_objective",
    "SearchStrategy",
    "ExhaustiveSearch",
    "RandomSearch",
    "LocalSearch",
    "STRATEGIES",
    "make_strategy",
    "SearchResult",
    "run_search",
]


# -- Objectives -------------------------------------------------------------


@dataclass(frozen=True)
class Measurement:
    """One candidate's priced execution: seconds and joules.

    `time_s` is the balanced per-evaluation wall time, `energy_j` the
    board+package joules attributed to it by the simulated power models
    (the same accounting the CounterSampler integrates live).
    """

    time_s: float
    energy_j: float

    @property
    def edp(self) -> float:
        """Energy-delay product (J·s) — the battery-aware compromise."""
        return self.energy_j * self.time_s


@dataclass(frozen=True)
class Objective:
    """A named scoring rule over `Measurement`s (lower is better)."""

    name: str
    unit: str
    _score: object = field(repr=False)

    def score(self, m: Measurement) -> float:
        return self._score(m)


#: The registry. `repro.config._TUNING_OBJECTIVES` mirrors these keys
#: (cross-checked by a test) so `RunConfig` validation and the engine
#: can never drift apart.
OBJECTIVES: dict[str, Objective] = {
    "time": Objective("time", "s", lambda m: m.time_s),
    "energy": Objective("energy", "J", lambda m: m.energy_j),
    "edp": Objective("edp", "J*s", lambda m: m.edp),
}


def get_objective(objective: str | Objective) -> Objective:
    """Resolve a name (or pass an `Objective` through), typed error out."""
    if isinstance(objective, Objective):
        return objective
    try:
        return OBJECTIVES[objective]
    except KeyError:
        raise ConfigError(
            f"unknown tuning objective '{objective}' "
            f"(choose from {tuple(OBJECTIVES)})"
        ) from None


# -- Strategies -------------------------------------------------------------


class SearchStrategy:
    """Ask/tell base: bookkeeping shared by every concrete strategy.

    Subclasses implement `_start()` (after the feasible set is bound)
    and `_next()` (the next unevaluated candidate, or None when the
    strategy considers the campaign converged).
    """

    name = "base"

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self.evaluations = 0
        self.best: dict | None = None
        self.best_score = math.inf
        self._space: ParamSpace | None = None
        self._feasible: list[dict] = []
        self._scores: dict[tuple, float] = {}

    # -- protocol --

    def reset(self, space: ParamSpace) -> None:
        """Bind the space; raises `EmptyParamSpaceError` if over-restricted."""
        self._space = space
        self._feasible = space.feasible()
        # Every candidate of one space has the same keys, so a fixed
        # key order beats re-sorting dict items per memo probe (the
        # local strategy keys the whole feasible set on reset).
        self._key_order = sorted(space.ranges)
        self._scores = {}
        self.evaluations = 0
        self.best = None
        self.best_score = math.inf
        self._rng = random.Random(self.seed)
        self._start()

    def ask(self) -> dict | None:
        """Next candidate to price, or None once converged."""
        if self._space is None:
            raise RuntimeError("strategy not reset() on a ParamSpace")
        return self._next()

    def _key(self, cand: dict) -> tuple:
        return tuple(cand[k] for k in self._key_order)

    def tell(self, candidate: dict, score: float) -> None:
        """Feed one candidate's objective score back to the strategy."""
        self._scores[self._key(candidate)] = float(score)
        self.evaluations += 1
        if score < self.best_score:
            self.best_score = float(score)
            self.best = dict(candidate)

    @property
    def feasible_points(self) -> int:
        return len(self._feasible)

    # -- subclass hooks --

    def _start(self) -> None:  # pragma: no cover - trivial default
        pass

    def _next(self) -> dict | None:
        raise NotImplementedError


class ExhaustiveSearch(SearchStrategy):
    """Every feasible point, in declaration order (the reference sweep)."""

    name = "exhaustive"

    def _start(self) -> None:
        self._i = 0

    def _next(self) -> dict | None:
        if self._i >= len(self._feasible):
            return None
        cand = self._feasible[self._i]
        self._i += 1
        return dict(cand)


class RandomSearch(SearchStrategy):
    """A seeded random subsample of the feasible set.

    Evaluates `fraction` of the feasible points (at least one, never
    all unless fraction=1) in a seeded shuffle order — the cheap
    baseline that already beats one-candidate-per-period exhaustion on
    large joint spaces.
    """

    name = "random"

    def __init__(self, seed: int = 0, fraction: float = 0.5):
        super().__init__(seed)
        if not (0.0 < fraction <= 1.0):
            raise ConfigError("fraction must be in (0, 1]")
        self.fraction = float(fraction)

    def _start(self) -> None:
        order = list(range(len(self._feasible)))
        self._rng.shuffle(order)
        budget = max(1, math.ceil(self.fraction * len(order)))
        self._order = order[:budget]
        self._i = 0

    def _next(self) -> dict | None:
        if self._i >= len(self._order):
            return None
        cand = self._feasible[self._order[self._i]]
        self._i += 1
        return dict(cand)


class LocalSearch(SearchStrategy):
    """Greedy coordinate descent with memoized evaluations.

    From a seeded random start the strategy sweeps one axis at a time:
    it prices every feasible value of the current axis (other axes
    held at the incumbent), moves the incumbent to the axis winner and
    advances to the next axis. Already-priced points are never asked
    again, so a full pass over the paper's joint space costs roughly
    the *sum* of the axis lengths instead of their product. `passes`
    controls how many sweeps to run (one is enough when the objective
    is close to separable across axes, which the roofline pricing is);
    the campaign converges when a pass ends.
    """

    name = "local"

    def __init__(self, seed: int = 0, passes: int = 1):
        super().__init__(seed)
        if passes < 1:
            raise ConfigError("passes must be >= 1")
        self.passes = int(passes)

    def _start(self) -> None:
        self._index = {self._key(c) for c in self._feasible}
        self._axes = list(self._space.ranges)
        self._current = dict(self._rng.choice(self._feasible))
        self._axis_i = 0
        self._pass = 0
        self._neighbors: list[dict] = []
        self._queue: list[dict] = []
        self._build_axis_queue()

    def _build_axis_queue(self) -> None:
        axis = self._axes[self._axis_i]
        self._neighbors = []
        for value in self._space.ranges[axis]:
            cand = dict(self._current)
            cand[axis] = value
            if self._key(cand) in self._index:
                self._neighbors.append(cand)
        self._queue = [
            c for c in self._neighbors if self._key(c) not in self._scores
        ]

    def _advance_axis(self) -> bool:
        """Adopt the axis winner; True while more axes/passes remain."""
        scored = [c for c in self._neighbors if self._key(c) in self._scores]
        if scored:
            self._current = dict(
                min(scored, key=lambda c: self._scores[self._key(c)])
            )
        self._axis_i += 1
        if self._axis_i >= len(self._axes):
            self._axis_i = 0
            self._pass += 1
            if self._pass >= self.passes:
                return False
        self._build_axis_queue()
        return True

    def _next(self) -> dict | None:
        while not self._queue:
            if not self._advance_axis():
                return None
        return dict(self._queue.pop(0))


#: Strategy registry (mirrored by `repro.config._TUNING_STRATEGIES`).
STRATEGIES: dict[str, type[SearchStrategy]] = {
    "exhaustive": ExhaustiveSearch,
    "random": RandomSearch,
    "local": LocalSearch,
}


def make_strategy(
    strategy: str | SearchStrategy, seed: int = 0, **kwargs
) -> SearchStrategy:
    """Resolve a strategy name to a fresh instance (typed error out)."""
    if isinstance(strategy, SearchStrategy):
        return strategy
    try:
        cls = STRATEGIES[strategy]
    except KeyError:
        raise ConfigError(
            f"unknown tuning strategy '{strategy}' "
            f"(choose from {tuple(STRATEGIES)})"
        ) from None
    return cls(seed=seed, **kwargs)


# -- The synchronous driver -------------------------------------------------


@dataclass
class SearchResult:
    """One campaign's outcome: the winner and how it was found."""

    best: dict
    score: float
    objective: str
    strategy: str
    evaluations: int
    feasible_points: int

    @property
    def evaluated_fraction(self) -> float:
        """Share of the feasible set actually priced (the pruning win)."""
        return self.evaluations / max(self.feasible_points, 1)

    def describe(self) -> dict:
        return {
            "best": dict(self.best),
            "score": self.score,
            "objective": self.objective,
            "strategy": self.strategy,
            "evaluations": self.evaluations,
            "feasible_points": self.feasible_points,
        }


def run_search(
    space: ParamSpace,
    measure,
    objective: str | Objective = "time",
    strategy: str | SearchStrategy = "local",
    seed: int = 0,
) -> SearchResult:
    """Drive one full campaign synchronously (offline use).

    `measure` maps a candidate dict to a `Measurement`; the strategy
    asks, the objective scores, until the strategy converges. The
    in-band scheduler runs the identical loop spread over sampling
    periods instead.
    """
    obj = get_objective(objective)
    strat = make_strategy(strategy, seed=seed)
    strat.reset(space)
    while (cand := strat.ask()) is not None:
        strat.tell(cand, obj.score(measure(cand)))
    return SearchResult(
        best=dict(strat.best),
        score=strat.best_score,
        objective=obj.name,
        strategy=strat.name,
        evaluations=strat.evaluations,
        feasible_points=strat.feasible_points,
    )
