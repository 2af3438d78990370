"""Tests for the autotuner and the CPU/GPU auto-balancer."""

import numpy as np
import pytest

from repro.gpu import execute_kernel, get_gpu
from repro.kernels import FEConfig
from repro.kernels.k34_custom_gemm import kernel3_cost
from repro.tuning import AutoBalancer, Autotuner, ParamSpace


class TestParamSpace:
    def test_cartesian_product(self):
        space = ParamSpace(a=[1, 2], b=[10, 20, 30])
        assert len(space.candidates()) == 6
        assert space.raw_size == 6

    def test_constraint_elimination(self):
        space = ParamSpace(m=[1, 2, 4, 8]).constrain(lambda c: c["m"] <= 4)
        assert [c["m"] for c in space.candidates()] == [1, 2, 4]
        assert space.eliminated_count() == 1

    def test_paper_shared_memory_constraint(self):
        """The Section 3.2.1 elimination: shared-memory overflow."""
        cfg = FEConfig(dim=3, order=2, nzones=64)
        a_tile = cfg.ndof_kin_zone * cfg.dim * 8
        space = ParamSpace(m=[1, 2, 4, 8, 16, 32, 64, 128])
        space.constrain(lambda c: (c["m"] + 1) * a_tile <= 48 * 1024)
        ms = [c["m"] for c in space.candidates()]
        assert 128 not in ms
        assert 32 in ms

    def test_validation(self):
        with pytest.raises(ValueError):
            ParamSpace()
        with pytest.raises(ValueError):
            ParamSpace(a=[])


class TestAutotuner:
    def test_finds_paper_optimum_for_kernel3(self):
        """Tuning kernel 3 over matrices/block finds 32 (Figure 5)."""
        k20 = get_gpu("K20")
        cfg = FEConfig(dim=3, order=2, nzones=512)
        space = ParamSpace(m=[1, 2, 4, 8, 16, 32, 48])

        def evaluate(cand):
            try:
                return execute_kernel(k20, kernel3_cost(cfg, "v3", cand["m"])).time_s
            except ValueError:
                return float("inf")

        space.constrain(lambda c: np.isfinite(evaluate(c)))
        tuner = Autotuner(evaluate, space, steps_per_period=5, noise_rel=0.02, seed=3)
        result = tuner.tune()
        assert result.best["m"] == 32

    def test_averaging_beats_noise(self):
        """With noise comparable to the gap, 40-step averaging still
        identifies the true optimum."""
        truth = {1: 1.00, 2: 0.93, 4: 0.90}

        def evaluate(cand):
            return truth[cand["m"]]

        tuner = Autotuner(
            evaluate, ParamSpace(m=[1, 2, 4]), steps_per_period=40, noise_rel=0.05, seed=7
        )
        assert tuner.tune().best["m"] == 4

    def test_steps_accounting(self):
        tuner = Autotuner(lambda c: 1.0, ParamSpace(m=[1, 2, 3]), steps_per_period=40)
        res = tuner.tune()
        assert res.steps_used == 120
        assert len(res.samples) == 3

    def test_ranking_sorted(self):
        tuner = Autotuner(lambda c: float(c["m"]), ParamSpace(m=[3, 1, 2]), steps_per_period=1)
        ranked = tuner.tune().ranking()
        assert [c["m"] for c, _ in ranked] == [1, 2, 3]

    def test_all_eliminated_raises(self):
        space = ParamSpace(m=[1]).constrain(lambda c: False)
        with pytest.raises(ValueError):
            Autotuner(lambda c: 1.0, space).tune()

    def test_invalid_evaluation_raises(self):
        tuner = Autotuner(lambda c: -1.0, ParamSpace(m=[1]))
        with pytest.raises(ValueError):
            tuner.tune()

    def test_validation(self):
        with pytest.raises(ValueError):
            Autotuner(lambda c: 1.0, ParamSpace(m=[1]), steps_per_period=0)
        with pytest.raises(ValueError):
            Autotuner(lambda c: 1.0, ParamSpace(m=[1]), noise_rel=-0.1)


class TestAutoBalancer:
    @staticmethod
    def linear_times(s_gpu, s_cpu, overhead=0.0):
        gpu = lambda share: share / s_gpu + overhead
        cpu = lambda share: share / s_cpu
        return gpu, cpu

    def test_converges_to_throughput_ratio(self):
        """GPU 3x faster than CPU -> 75% of zones on GPU (Table 5)."""
        gpu, cpu = self.linear_times(3.0, 1.0)
        res = AutoBalancer(gpu, cpu, noise_rel=0.0).balance()
        assert res.converged
        assert res.ratio == pytest.approx(0.75, abs=0.02)

    def test_paper_convergence_period_count(self):
        """Converges in on the order of a dozen periods (Table 5: 12-14)."""
        gpu, cpu = self.linear_times(3.0, 1.0)
        res = AutoBalancer(gpu, cpu, noise_rel=0.01, seed=5).balance(initial_ratio=0.5)
        assert res.converged
        assert 3 <= res.periods <= 25

    def test_slower_gpu_gets_less(self):
        gpu, cpu = self.linear_times(1.0, 2.0)
        res = AutoBalancer(gpu, cpu, noise_rel=0.0).balance()
        assert res.ratio == pytest.approx(1 / 3, abs=0.02)

    def test_history_recorded(self):
        gpu, cpu = self.linear_times(3.0, 1.0)
        res = AutoBalancer(gpu, cpu, noise_rel=0.0).balance()
        assert len(res.history) == res.periods
        ratios = [h[0] for h in res.history]
        assert ratios[0] == 0.5

    def test_max_periods_cap(self):
        # Pathological oscillating measurement never converges.
        rng = np.random.default_rng(0)
        gpu = lambda share: share * (1.0 + rng.uniform(-0.5, 0.5))
        cpu = lambda share: share
        res = AutoBalancer(gpu, cpu, tol=1e-6, noise_rel=0.0).balance(max_periods=10)
        assert res.periods == 10

    def test_validation(self):
        gpu, cpu = self.linear_times(2.0, 1.0)
        with pytest.raises(ValueError):
            AutoBalancer(gpu, cpu, damping=0.0)
        with pytest.raises(ValueError):
            AutoBalancer(gpu, cpu, tol=0.0)
        with pytest.raises(ValueError):
            AutoBalancer(gpu, cpu).balance(initial_ratio=1.0)

    def test_invalid_time_raises(self):
        bal = AutoBalancer(lambda s: float("nan"), lambda s: 1.0)
        with pytest.raises(ValueError):
            bal.balance()


# -- The unified search engine (repro.tuning.search) -------------------------

from repro.backends.hybrid import HybridBackend
from repro.config import _TUNING_OBJECTIVES, _TUNING_STRATEGIES
from repro.errors import ConfigError, EmptyParamSpaceError, ReproError
from repro.gpu.device import SimulatedGPU
from repro.sched import hybrid_param_space
from repro.tuning import (
    OBJECTIVES,
    STRATEGIES,
    Measurement,
    TuningCache,
    get_objective,
    make_strategy,
    run_search,
)


class TestParamSpaceRestrictions:
    """Edge cases of the declarative restriction idiom."""

    def test_smoke_full_elimination_raises_typed_error(self):
        space = ParamSpace(m=[1, 2, 4]).constrain(lambda c: False)
        with pytest.raises(EmptyParamSpaceError, match="eliminated all 3"):
            space.feasible()
        # The typed error slots into both hierarchies: a declaration
        # mistake (ConfigError/ValueError) inside the unified ReproError.
        err = EmptyParamSpaceError("x")
        assert isinstance(err, ConfigError)
        assert isinstance(err, ValueError)
        assert isinstance(err, ReproError)

    def test_strategies_raise_on_empty_space(self):
        space = ParamSpace(m=[1, 2]).constrain(lambda c: False)
        for name in STRATEGIES:
            with pytest.raises(EmptyParamSpaceError):
                make_strategy(name).reset(space)

    def test_constraint_order_invariance(self):
        """Restrictions are conjunctive predicates: any ordering of the
        same set yields the same feasible set."""
        preds = [
            lambda c: c["m"] * c["n"] <= 32,
            lambda c: c["m"] >= 2,
            lambda c: c["n"] != 8,
        ]
        ranges = dict(m=[1, 2, 4, 8, 16], n=[1, 2, 4, 8])
        base = ParamSpace(restrictions=preds, **ranges).candidates()
        assert base  # non-degenerate fixture
        for order in ([2, 0, 1], [1, 2, 0], [2, 1, 0]):
            shuffled = ParamSpace(
                restrictions=[preds[i] for i in order], **ranges
            )
            assert shuffled.candidates() == base

    def test_restrictions_kwarg_matches_constrain(self):
        pred = lambda c: c["m"] <= 4
        declared = ParamSpace(restrictions=(pred,), m=[1, 2, 4, 8])
        chained = ParamSpace(m=[1, 2, 4, 8]).constrain(pred)
        assert declared.candidates() == chained.candidates()
        assert declared.eliminated_count() == chained.eliminated_count() == 1

    def test_constrain_invalidates_enumeration_cache(self):
        space = ParamSpace(m=[1, 2, 4, 8])
        assert len(space.candidates()) == 4
        space.constrain(lambda c: c["m"] <= 2)
        assert len(space.candidates()) == 2


class TestSearchStrategies:
    def test_smoke_registries_match_runconfig_vocabulary(self):
        """RunConfig validates against the same registries the engine
        dispatches on — the vocabularies can never drift apart."""
        assert _TUNING_OBJECTIVES == tuple(OBJECTIVES)
        assert _TUNING_STRATEGIES == tuple(STRATEGIES)

    def test_unknown_names_raise_config_error(self):
        with pytest.raises(ConfigError, match="unknown tuning objective"):
            get_objective("watts")
        with pytest.raises(ConfigError, match="unknown tuning strategy"):
            make_strategy("annealing")

    def test_measurement_objectives(self):
        m = Measurement(time_s=2.0, energy_j=3.0)
        assert OBJECTIVES["time"].score(m) == 2.0
        assert OBJECTIVES["energy"].score(m) == 3.0
        assert OBJECTIVES["edp"].score(m) == 6.0

    def test_smoke_exhaustive_visits_all_in_declaration_order(self):
        space = ParamSpace(m=[3, 1, 2])
        seen = []
        result = run_search(
            space,
            lambda c: (seen.append(c["m"]), Measurement(c["m"], 1.0))[1],
            strategy="exhaustive",
        )
        assert seen == [3, 1, 2]
        assert result.best == {"m": 1}
        assert result.evaluations == result.feasible_points == 3

    @staticmethod
    def _bowl(cand):
        """Convex synthetic landscape with optimum at (m=8, n=4)."""
        t = 1.0 + (cand["m"] - 8) ** 2 / 64 + (cand["n"] - 4) ** 2 / 16
        return Measurement(time_s=t, energy_j=2 * t)

    def _space(self):
        return ParamSpace(m=[1, 2, 4, 8, 16], n=[1, 2, 4, 8])

    def test_smoke_random_deterministic_under_seed(self):
        runs = [
            run_search(self._space(), self._bowl, strategy="random", seed=11)
            for _ in range(2)
        ]
        assert runs[0].best == runs[1].best
        assert runs[0].score == runs[1].score
        assert runs[0].evaluations == runs[1].evaluations
        # Default budget: half the feasible points, rounded up.
        assert runs[0].evaluations == 10

    def test_smoke_local_deterministic_under_seed(self):
        runs = [
            run_search(self._space(), self._bowl, strategy="local", seed=5)
            for _ in range(2)
        ]
        assert runs[0].best == runs[1].best == {"m": 8, "n": 4}
        assert runs[0].evaluations == runs[1].evaluations

    def test_local_beats_budget_on_convex_landscape(self):
        result = run_search(self._space(), self._bowl, strategy="local", seed=0)
        assert result.best == {"m": 8, "n": 4}
        assert result.evaluations < result.feasible_points


class TestObjectiveDivergence:
    """Acceptance: on the simulated power model, energy/edp pick a
    different winner than time for kernel 3, and the winners persist
    side by side in one TuningCache under per-objective keys."""

    spec = get_gpu("K20")
    cfg = FEConfig(dim=2, order=2, nzones=16)

    def _measure(self, cand):
        phase = SimulatedGPU(self.spec).run_phase(
            [kernel3_cost(self.cfg, "v3",
                          matrices_per_block=cand["matrices_per_block"])]
        )
        return Measurement(time_s=phase.time_s, energy_j=phase.energy_j)

    def _space(self):
        def launchable(cand):
            try:
                execute_kernel(
                    self.spec,
                    kernel3_cost(self.cfg, "v3",
                                 matrices_per_block=cand["matrices_per_block"]),
                )
                return True
            except ValueError:
                return False

        return ParamSpace(restrictions=(launchable,),
                          matrices_per_block=(1, 2, 4, 8, 16, 32, 64, 128))

    def test_smoke_energy_and_edp_diverge_from_time(self, tmp_path):
        """Racing-to-idle on the modelled K20: the throughput-optimal
        tiling (4 matrices/block) is not the energy-optimal one (16)."""
        winners = {}
        for objective in ("time", "energy", "edp"):
            winners[objective] = run_search(
                self._space(), self._measure,
                objective=objective, strategy="exhaustive",
            ).best
        assert winners["time"] == {"matrices_per_block": 4}
        assert winners["energy"] == {"matrices_per_block": 16}
        assert winners["edp"] == {"matrices_per_block": 16}

        # Both winners persist side by side and warm-start their own
        # objective on a rerun (tune_fn must not be called again).
        cache_path = tmp_path / "tuning.json"
        cache = TuningCache(cache_path)
        for objective, best in winners.items():
            cache.store(self.spec, self.cfg, "kernel3", best,
                        backend="hybrid", objective=objective)
        reloaded = TuningCache(cache_path)
        for objective, best in winners.items():
            assert reloaded.lookup(self.spec, self.cfg, "kernel3",
                                   backend="hybrid", objective=objective) == best

        def refuse_to_tune():
            raise AssertionError("warm start must not re-tune")

        for objective, best in winners.items():
            assert reloaded.get_or_tune(self.spec, self.cfg, "kernel3",
                                        refuse_to_tune, backend="hybrid",
                                        objective=objective) == best

    def test_smoke_cache_never_warm_starts_across_objectives(self):
        """Regression: an energy winner must never serve a time (or
        edp) lookup — each objective has its own key namespace."""
        cache = TuningCache()
        cache.store(self.spec, self.cfg, "kernel3", {"matrices_per_block": 16},
                    backend="hybrid", objective="energy")
        assert cache.lookup(self.spec, self.cfg, "kernel3",
                            backend="hybrid") is None
        assert cache.lookup(self.spec, self.cfg, "kernel3",
                            backend="hybrid", objective="time") is None
        assert cache.lookup(self.spec, self.cfg, "kernel3",
                            backend="hybrid", objective="edp") is None

    def test_time_objective_keeps_legacy_key_shape(self):
        """objective="time" is the historical default: its entries live
        under the pre-objective key, so old caches stay warm."""
        cache = TuningCache()
        cache.store(self.spec, self.cfg, "kernel3", {"matrices_per_block": 4},
                    backend="hybrid", objective="time")
        assert cache.lookup(self.spec, self.cfg, "kernel3",
                            backend="hybrid") == {"matrices_per_block": 4}


class TestJointSpaceAcceptance:
    """Acceptance: cheap strategies find the exhaustive optimum of the
    paper's kernel-tiling space within half the evaluation budget.

    The optimum is a tie set (tilings the roofline prices equally), so
    a walk may end on any member of it: the checks are the score and
    membership, not one particular dict."""

    spec = get_gpu("K20")
    cfg = FEConfig(dim=2, order=2, nzones=256)

    def _search(self, objective, strategy, seed=0):
        harness = HybridBackend.for_pricing(self.cfg, device="K20")
        return run_search(hybrid_param_space(self.cfg, self.spec),
                          harness.measure_candidate,
                          objective=objective, strategy=strategy, seed=seed)

    def _optimal_set(self, objective):
        """Every feasible point scoring the optimum, priced one by one."""
        harness = HybridBackend.for_pricing(self.cfg, device="K20")
        score = get_objective(objective).score
        scored = [(score(harness.measure_candidate(c)), c)
                  for c in hybrid_param_space(self.cfg, self.spec).candidates()]
        best = min(s for s, _ in scored)
        return [c for s, c in scored if s == best]

    def test_smoke_space_holds_exactly_the_three_kernel_axes(self):
        space = hybrid_param_space(self.cfg, self.spec)
        assert list(space.ranges) == [
            "kernel3_matrices_per_block",
            "kernel5_matrices_per_block",
            "kernel7_block_cols",
        ]
        # 8 x 7 x 7 tilings, every one launchable at Q2 on a K20.
        assert space.raw_size == len(space.candidates()) == 392

    def test_smoke_local_finds_exhaustive_winner_for_every_objective(self):
        for objective in ("time", "energy", "edp"):
            exhaustive = self._search(objective, "exhaustive")
            local = self._search(objective, "local", seed=1)
            optimal = self._optimal_set(objective)
            assert exhaustive.best in optimal, objective
            assert local.best in optimal, objective
            assert local.score == pytest.approx(exhaustive.score)
            assert local.evaluated_fraction <= 0.5
            assert exhaustive.evaluations == exhaustive.feasible_points

    def test_random_matches_exhaustive_optimum_within_half_budget(self):
        """The seeded half-budget subsample attains the exhaustive
        optimum score, on a member of the optimal tie set."""
        for objective in ("time", "energy", "edp"):
            exhaustive = self._search(objective, "exhaustive")
            random = self._search(objective, "random", seed=18)
            assert random.score == pytest.approx(exhaustive.score, rel=1e-12)
            assert random.evaluated_fraction <= 0.5
            assert random.best in self._optimal_set(objective)
