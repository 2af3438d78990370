"""Tests for the matrix-free sum-factorization route (`cpu-sumfact`).

The `-k smoke` subset (CI's sumfact lane) is the fast end-to-end slice:
engine parity vs the fused dense tables, full-problem-registry parity
through `repro.api.run`, the modeled-work crossover, the tuner's fusion
axis, and the typed --order validation. The remaining tests pin down
the 1D contraction layer operator-by-operator against the dense
reference tables across dimensions and orders.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.fem.geometry import GeometryEvaluator
from repro.fem.mesh import cartesian_mesh_2d
from repro.fem.quadrature import tensor_quadrature
from repro.fem.reference_element import ReferenceElement
from repro.fem.spaces import H1Space, L2Space
from repro.fem.sumfact import (
    SumFactorizedOperators,
    modeled_work_dense,
    modeled_work_sumfact,
    sumfact_host_factor,
)
from repro.hydro.corner_force import ForceEngine, SumfactForceEngine, SumfactStress
from repro.hydro.eos import GammaLawEOS
from repro.hydro.state import HydroState

#: Documented parity budget between the sumfact and dense contractions:
#: pure reordering roundoff (DESIGN.md section 16). Observed agreement
#: is machine precision; the budget leaves headroom for large meshes.
PARITY = dict(rtol=1e-10, atol=1e-12)


def _ops(dim: int, order: int):
    element = ReferenceElement(dim, order)
    quad = tensor_quadrature(dim, 2 * max(order, 1))
    return element, quad, SumFactorizedOperators(element, quad)


class _ModelCfg:
    """Duck-typed FE config for the work model."""

    def __init__(self, dim, order, nzones, quad_points_1d=None):
        self.dim = dim
        self.order = order
        self.nzones = nzones
        if quad_points_1d is not None:
            self.quad_points_1d = quad_points_1d


class TestContractionLayer:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_apply_B_matches_dense_table(self, dim, order, rng):
        element, quad, ops = _ops(dim, order)
        B = element.tabulate_B(quad)  # (ndof, nqp), B[j, k] = phi_j(q_k)
        U = rng.standard_normal((5, element.ndof))
        np.testing.assert_allclose(ops.apply_B(U), U @ B, rtol=1e-13, atol=1e-14)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_apply_G_matches_dense_table(self, dim, order, rng):
        element, quad, ops = _ops(dim, order)
        gradW = element.tabulate_gradW(quad)  # (nqp, ndof, dim)
        U = rng.standard_normal((4, element.ndof))
        expect = np.einsum("zi,kir->zkr", U, gradW)
        np.testing.assert_allclose(ops.apply_G(U), expect, rtol=1e-13, atol=1e-14)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_transposes_are_adjoints(self, dim, rng):
        _, _, ops = _ops(dim, 2)
        U = rng.standard_normal((3, ops.ndof))
        W = rng.standard_normal((3, ops.nqp))
        S = rng.standard_normal((3, ops.nqp, dim))
        # <B u, w> == <u, B^T w> and <G u, s> == <u, G^T s>, zone-wise.
        np.testing.assert_allclose(
            np.einsum("zk,zk->z", ops.apply_B(U), W),
            np.einsum("zi,zi->z", U, ops.apply_B_T(W)),
            rtol=1e-12, atol=1e-13,
        )
        np.testing.assert_allclose(
            np.einsum("zkr,zkr->z", ops.apply_G(U), S),
            np.einsum("zi,zi->z", U, ops.apply_G_T(S)),
            rtol=1e-12, atol=1e-13,
        )

    def test_out_buffers_are_used_and_match(self, rng):
        _, _, ops = _ops(2, 3)
        U = rng.standard_normal((4, ops.ndof))
        W = rng.standard_normal((4, ops.nqp))
        S = rng.standard_normal((4, ops.nqp, 2))
        for fn, arg, shape in (
            (ops.apply_B, U, (4, ops.nqp)),
            (ops.apply_B_T, W, (4, ops.ndof)),
            (ops.apply_G, U, (4, ops.nqp, 2)),
            (ops.apply_G_T, S, (4, ops.ndof)),
        ):
            buf = np.full(shape, np.nan)
            got = fn(arg, out=buf)
            assert got is buf
            np.testing.assert_array_equal(got, fn(arg))

    def test_l2_spaces_factorize_too(self, rng):
        mesh = cartesian_mesh_2d(3, 3)
        l2 = L2Space(mesh, 2)
        quad = tensor_quadrature(2, 6)
        ops = l2.sumfact_operators(quad)
        B = l2.element.tabulate_B(quad)  # (ndof, nqp)
        U = rng.standard_normal((mesh.nzones, l2.element.ndof))
        np.testing.assert_allclose(ops.apply_B(U), U @ B, rtol=1e-13, atol=1e-14)

    def test_dimension_mismatch_rejected(self):
        element = ReferenceElement(2, 2)
        quad = tensor_quadrature(3, 4)
        with pytest.raises(ValueError):
            SumFactorizedOperators(element, quad)


class TestMassBlocks:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_sumfact_mass_blocks_match_dense(self, order, rng):
        from repro.fem.assembly import zone_mass_blocks, zone_mass_blocks_sumfact

        mesh = cartesian_mesh_2d(3, 3)
        h1 = H1Space(mesh, order)
        quad = tensor_quadrature(2, 2 * order)
        rho = rng.random((mesh.nzones, quad.nqp)) + 0.5
        detJ = rng.random((mesh.nzones, quad.nqp)) + 0.5
        dense = zone_mass_blocks(h1.element.tabulate_B(quad).T, quad, rho, detJ)
        fact = zone_mass_blocks_sumfact(h1.element, quad, rho, detJ)
        np.testing.assert_allclose(fact, dense, rtol=1e-13, atol=1e-14)


def make_engine_pair(order: int, nz1d: int):
    """Fused dense engine + sumfact engine over one discretization."""
    mesh = cartesian_mesh_2d(nz1d, nz1d)
    h1 = H1Space(mesh, order)
    l2 = L2Space(mesh, order - 1)
    quad = tensor_quadrature(2, 2 * order)
    geo0 = GeometryEvaluator(h1, quad).evaluate(h1.node_coords)
    rho0 = np.ones((mesh.nzones, quad.nqp))
    args = (h1, l2, quad, GammaLawEOS(), rho0, geo0)
    return ForceEngine(*args), SumfactForceEngine(*args)


def random_state(h1, l2, rng) -> HydroState:
    return HydroState(
        0.1 * rng.standard_normal((h1.ndof, 2)),
        rng.random(l2.ndof) + 0.5,
        h1.node_coords + 5e-4 * rng.standard_normal((h1.ndof, 2)),
        0.0,
    )


class TestEngineParity:
    @pytest.mark.parametrize("order", [2, 4])
    def test_smoke_sumfact_matches_fused_engine(self, order, rng):
        fused, sumfact = make_engine_pair(order, 5)
        for _ in range(2):
            state = random_state(fused.kinematic, fused.thermodynamic, rng)
            rf = fused.compute(state)
            rs = sumfact.compute(state)
            assert rf.valid and rs.valid
            assert isinstance(rs.Fz, SumfactStress)
            np.testing.assert_allclose(sumfact.dense_force(rs.Fz), rf.Fz, **PARITY)
            assert rs.dt_est == pytest.approx(rf.dt_est, rel=1e-12)
            np.testing.assert_allclose(
                sumfact.force_times_one(rs.Fz),
                fused.force_times_one(rf.Fz), **PARITY,
            )
            np.testing.assert_allclose(
                sumfact.force_transpose_times_v(rs.Fz, state.v),
                fused.force_transpose_times_v(rf.Fz, state.v), **PARITY,
            )

    def test_dense_fallback_accepts_plain_arrays(self, rng):
        # The integrator's distributed paths hand the engine dense
        # subset arrays; those must fall through to the dense kernels.
        fused, sumfact = make_engine_pair(2, 4)
        state = random_state(fused.kinematic, fused.thermodynamic, rng)
        Fz = fused.compute(state).Fz
        np.testing.assert_allclose(
            sumfact.force_times_one(np.array(Fz)),
            fused.force_times_one(Fz), rtol=0, atol=0,
        )


class TestProblemRegistryParity:
    @pytest.mark.parametrize(
        "problem", ["sedov", "sod", "noh", "saltzman", "taylor-green", "triple-pt"]
    )
    def test_smoke_registry_parity_vs_fused(self, problem):
        from repro.api import run
        from repro.config import RunConfig

        base = dict(dim=2, order=2, zones=4, max_steps=3)
        ref = run(problem, RunConfig(backend="cpu-fused", **base))
        got = run(problem, RunConfig(backend="cpu-sumfact", **base))
        assert got.result.steps == ref.result.steps
        for name in ("v", "e", "x"):
            a = getattr(ref.result.state, name)
            b = getattr(got.result.state, name)
            scale = max(float(np.abs(a).max()), 1.0)
            np.testing.assert_allclose(b, a, rtol=0, atol=1e-10 * scale)

    def test_smoke_manifest_reports_arena_high_water(self):
        from repro.api import run
        from repro.config import RunConfig

        rep = run("sedov", RunConfig(zones=4, max_steps=2, backend="cpu-sumfact"))
        arena = rep.manifest.solver["arena"]
        assert arena["high_water_bytes"] > 0
        assert arena["live_leases"] > 0
        assert arena["block_allocations"] >= arena["live_leases"]


class TestWorkModel:
    def test_smoke_crossover_is_q3_in_2d(self):
        ratios = {
            o: modeled_work_sumfact(_ModelCfg(2, o, 256))
            / modeled_work_dense(_ModelCfg(2, o, 256))
            for o in (1, 2, 3, 4, 6, 8)
        }
        assert ratios[1] > 1.0 and ratios[2] > 1.0  # dense wins at low order
        assert ratios[3] < 1.0                      # crossover at Q3
        assert ratios[4] < 0.51                     # ~2x modeled win at Q4
        assert ratios[8] < ratios[6] < ratios[4]    # monotone improvement

    def test_3d_crossover_is_earlier(self):
        r2 = sumfact_host_factor(_ModelCfg(3, 2, 64))
        assert r2 < 1.0  # 3D already wins at Q2

    def test_host_factor_is_clamped(self):
        assert 0.1 <= sumfact_host_factor(_ModelCfg(2, 1, 4)) <= 4.0
        assert sumfact_host_factor(_ModelCfg(3, 8, 512)) >= 0.1


class TestTunerAxis:
    def test_smoke_fusion_axis_includes_sumfact(self):
        from repro.gpu import get_gpu
        from repro.kernels import FEConfig
        from repro.sched.online import hybrid_param_space

        space = hybrid_param_space(FEConfig(dim=2, order=4, nzones=64), get_gpu("K20"))
        fusions = {c["fusion"] for c in space.candidates()}
        assert fusions == {"fused", "sumfact", "legacy"}
        # Sumfact chunks zones like the fused path; legacy never does.
        assert any(c["fusion"] == "sumfact" and c["chunk"] > 1
                   for c in space.candidates())
        assert not any(c["fusion"] == "legacy" and c["chunk"] > 1
                       for c in space.candidates())

    def test_smoke_runtime_factor_prices_the_crossover(self):
        from repro.backends.hybrid import HybridBackend
        from repro.kernels import FEConfig

        low = HybridBackend.for_pricing(FEConfig(dim=2, order=1, nzones=64))
        high = HybridBackend.for_pricing(FEConfig(dim=2, order=4, nzones=64))
        # Below the crossover sumfact is priced slower than fused...
        assert low._runtime_factor("sumfact", 1) > low._runtime_factor("fused", 1)
        # ...above it, faster — so the tuner can pick it per order.
        assert high._runtime_factor("sumfact", 1) < high._runtime_factor("fused", 1)
        high.apply_runtime("sumfact", 2)
        assert high.fusion == "sumfact" and high.chunk == 2
        with pytest.raises(ValueError):
            high.apply_runtime("vectorized", 1)

    def test_tuner_picks_sumfact_at_high_order(self):
        from repro.backends.hybrid import HybridBackend
        from repro.gpu import get_gpu
        from repro.kernels import FEConfig
        from repro.sched.online import hybrid_param_space
        from repro.tuning import run_search

        cfg = FEConfig(dim=2, order=4, nzones=64)
        harness = HybridBackend.for_pricing(cfg)
        result = run_search(hybrid_param_space(cfg, get_gpu("K20")),
                            harness.measure_candidate,
                            objective="time", strategy="exhaustive")
        assert result.best["fusion"] == "sumfact"


class TestOrderValidation:
    @pytest.mark.parametrize("order", [0, -1, 99, 2.5, True])
    def test_smoke_bad_order_raises_typed_config_error(self, order):
        from repro.config import RunConfig, validate_order

        with pytest.raises(ConfigError, match="hint"):
            validate_order(order)
        if isinstance(order, int) and not isinstance(order, bool):
            with pytest.raises(ConfigError):
                RunConfig(order=order)

    def test_smoke_cli_exits_2_with_hint(self, capsys):
        from repro.cli import main

        rc = main(["run", "sedov", "--order", "42", "--max-steps", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "hint" in err and "order" in err
        assert "Traceback" not in err

    def test_cli_model_and_tune_validate_order(self, capsys):
        from repro.cli import main

        assert main(["model", "greenup", "--order", "0"]) == 2
        assert main(["tune", "kernel3", "--order", "77"]) == 2
        assert main(["tune", "campaign", "--orders", "2,99"]) == 2


class TestBackendRegistration:
    def test_smoke_backend_registry_and_describe(self):
        from repro.backends import BACKEND_NAMES, make_backend

        assert "cpu-sumfact" in BACKEND_NAMES
        backend = make_backend("cpu-sumfact")
        assert backend.describe() == {"backend": "cpu-sumfact", "sumfact": True}

    def test_solver_uses_sumfact_mass_assembly(self):
        from repro.config import RunConfig
        from repro.hydro.solver import LagrangianHydroSolver
        from repro.problems import SedovProblem

        dense = LagrangianHydroSolver(
            SedovProblem(dim=2, order=2, zones_per_dim=4),
            RunConfig(backend="cpu-fused"),
        )
        fact = LagrangianHydroSolver(
            SedovProblem(dim=2, order=2, zones_per_dim=4),
            RunConfig(backend="cpu-sumfact"),
        )
        assert type(fact.engine).__name__ == "SumfactForceEngine"
        np.testing.assert_allclose(
            fact.mass_v.diagonal(), dense.mass_v.diagonal(),
            rtol=1e-13, atol=1e-15,
        )
        np.testing.assert_allclose(
            fact.mass_e.diagonal(), dense.mass_e.diagonal(),
            rtol=1e-13, atol=1e-15,
        )
