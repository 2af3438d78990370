"""Tests for the telemetry subsystem and the `repro.api` facade.

Covers: span tree structure on a deterministic fake clock, exact
energy attribution against an independently computed power integral,
Chrome-trace / JSONL schema validity, the telemetry-off no-op
guarantee, and facade parity (api.run == manual wiring, bit for bit).
"""

import json
import warnings

import numpy as np
import pytest

from repro.config import RunConfig
from repro.telemetry import (
    NULL_SPAN,
    CounterSampler,
    RunManifest,
    Tracer,
    chrome_trace,
    jsonl_records,
)


class FakeClock:
    """Deterministic monotonic clock: advances only on demand."""

    def __init__(self):
        self.t = 100.0  # nonzero epoch: exercises the relative offsets

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def make_tracer():
    clock = FakeClock()
    return Tracer(clock=clock), clock


class TestSpanTree:
    def test_nesting_and_ordering(self):
        tr, clock = make_tracer()
        with tr.span("run", category="run"):
            clock.advance(1.0)
            with tr.span("step", category="step"):
                clock.advance(0.5)
                with tr.span("force", category="phase"):
                    clock.advance(2.0)
            clock.advance(0.25)
        names = [s.name for s in tr.spans]
        assert names == ["run", "step", "force"]
        run, step, force = tr.spans
        # Parents always carry a smaller index than children.
        assert run.parent == -1 and step.parent == 0 and force.parent == 1
        assert (run.depth, step.depth, force.depth) == (0, 1, 2)
        # Windows nest: child ⊆ parent on the fake clock.
        assert run.t0_s <= step.t0_s <= force.t0_s
        assert force.t1_s <= step.t1_s <= run.t1_s
        assert force.duration_s == pytest.approx(2.0)
        assert run.duration_s == pytest.approx(3.75)

    def test_sibling_spans_share_parent(self):
        tr, clock = make_tracer()
        with tr.span("step"):
            for _ in range(3):
                clock.advance(0.1)
                with tr.span("stage"):
                    clock.advance(0.2)
        stages = [s for s in tr.spans if s.name == "stage"]
        assert len(stages) == 3
        assert all(s.parent == 0 and s.depth == 1 for s in stages)

    def test_out_of_order_close_raises(self):
        tr, _ = make_tracer()
        outer = tr.span("outer")
        inner = tr.span("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(RuntimeError, match="out of order"):
            tr._close(outer.index)

    def test_instant_events_recorded(self):
        tr, clock = make_tracer()
        clock.advance(1.0)
        tr.instant("fault", category="resilience", kind="gpu", step=3)
        assert tr.events == [
            {"name": "fault", "category": "resilience", "t_s": 1.0,
             "kind": "gpu", "step": 3}
        ]

    def test_current_tracks_innermost(self):
        tr, _ = make_tracer()
        assert tr.current is None
        with tr.span("a"):
            assert tr.current.name == "a"
            with tr.span("b"):
                assert tr.current.name == "b"
            assert tr.current.name == "a"
        assert tr.current is None


class TestEnergyAttribution:
    def _sampler(self, **kw):
        return CounterSampler(cpu="E5-2670", period_s=0.5, **kw)

    def test_leaf_attribution_matches_independent_integral(self):
        """Sum over spans + idle == piecewise-constant power integral."""
        tr, clock = make_tracer()
        sampler = self._sampler()
        tr.add_listener(sampler)
        # Timeline: 1 s idle, then run[ step[ force(2 s) cg(1 s) ] ] with
        # 0.5 s of step-self time, then 0.5 s idle tail.
        clock.advance(1.0)
        with tr.span("run", category="run"):
            with tr.span("step", category="step"):
                with tr.span("force", category="phase"):
                    clock.advance(2.0)
                with tr.span("cg", category="phase"):
                    clock.advance(1.0)
                clock.advance(0.5)
        clock.advance(0.5)
        tr.finish()

        def watts(name):
            u = sampler.utilization[name]
            m = sampler._model
            return m.package_power(u) + m.dram_power(u)

        expected = (
            1.5 * watts(None)       # lead-in + tail idle
            + 2.0 * watts("force")
            + 1.0 * watts("cg")
            + 0.5 * watts("step")   # step self time
        )
        assert sampler.total_energy_j == pytest.approx(expected, rel=1e-12)
        # Per-phase leaf attribution recovers each term exactly.
        table = tr.leaf_energy_table()
        assert table["force"]["cpu_j"] == pytest.approx(2.0 * watts("force"), rel=1e-12)
        assert table["cg"]["cpu_j"] == pytest.approx(1.0 * watts("cg"), rel=1e-12)
        assert table["step"]["cpu_j"] == pytest.approx(0.5 * watts("step"), rel=1e-12)
        attributed = sum(r["cpu_j"] + r["gpu_j"] for r in table.values())
        assert attributed + 1.5 * watts(None) == pytest.approx(
            sampler.total_energy_j, rel=1e-12
        )

    def test_inclusive_energy_rolls_children_up(self):
        tr, clock = make_tracer()
        sampler = self._sampler()
        tr.add_listener(sampler)
        with tr.span("step"):
            with tr.span("force"):
                clock.advance(1.0)
            with tr.span("cg"):
                clock.advance(1.0)
        tr.finish()
        incl = tr.inclusive_energy()
        leaf_sum = tr.spans[1].cpu_j + tr.spans[2].cpu_j
        assert incl[0][0] == pytest.approx(tr.spans[0].cpu_j + leaf_sum)

    def test_gpu_idle_metering(self):
        tr, clock = make_tracer()
        sampler = self._sampler(gpu="K20")
        tr.add_listener(sampler)
        with tr.span("force"):
            clock.advance(2.0)
        tr.finish()
        assert sampler.gpu_energy_j == pytest.approx(2.0 * sampler.gpu.idle_w)

    def test_cadence_samples_emitted(self):
        tr, clock = make_tracer()
        sampler = self._sampler()
        tr.add_listener(sampler)
        with tr.span("force"):
            clock.advance(5.0)
        tr.finish()
        assert len(sampler.samples) == pytest.approx(10, abs=1)
        assert sampler.samples[1].t_s - sampler.samples[0].t_s == pytest.approx(0.5)

    def test_real_run_attribution_sums_to_integral(self):
        """End-to-end: a real solver run's per-phase energy totals agree
        with the integrated power model to well under 1%."""
        from repro.api import run

        report = run("sedov", RunConfig(zones=3, t_final=0.01, telemetry=True))
        energy = report.manifest.energy
        total = energy["attributed_j"] + energy["unattributed_j"]
        assert total == pytest.approx(report.sampler.total_energy_j, rel=1e-9)
        assert sum(energy["phases_j"].values()) == pytest.approx(
            energy["attributed_j"], rel=1e-9
        )


class TestExporters:
    def _traced_pair(self):
        tr, clock = make_tracer()
        sampler = CounterSampler(period_s=0.5)
        tr.add_listener(sampler)
        with tr.span("run", category="run", meta={"problem": "sedov"}):
            with tr.span("force", category="phase"):
                clock.advance(1.0)
            tr.instant("checkpoint", category="resilience", step=1)
        tr.finish()
        return tr, sampler

    def test_chrome_trace_schema(self):
        tr, sampler = self._traced_pair()
        doc = chrome_trace(tr, sampler)
        json.dumps(doc)  # must serialize
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        phases = {ev["ph"] for ev in doc["traceEvents"]}
        assert phases == {"X", "i", "C"}
        for ev in doc["traceEvents"]:
            assert {"name", "ph", "ts", "pid"} <= set(ev)
            if ev["ph"] == "X":
                assert ev["dur"] >= 0
            if ev["ph"] == "i":
                assert ev["s"] == "t"
        x = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
        assert {e["name"] for e in x} == {"run", "force"}
        # Spans carry inclusive energy in args.
        run_ev = next(e for e in x if e["name"] == "run")
        assert run_ev["args"]["cpu_j"] > 0

    def test_jsonl_stream(self):
        tr, sampler = self._traced_pair()
        records = list(jsonl_records(tr, sampler))
        for rec in records:
            json.dumps(rec)
        assert records[0]["type"] == "meta"
        assert records[0]["counters"]["cpu"] == "E5-2670"
        kinds = [r["type"] for r in records]
        assert kinds.count("span") == 2
        assert kinds.count("event") == 1
        assert kinds.count("sample") == len(sampler.samples)
        span = next(r for r in records if r["type"] == "span" and r["name"] == "force")
        assert span["parent"] == 0 and span["depth"] == 1

    def test_manifest_from_traced_run(self):
        from repro.api import run

        report = run("sedov", RunConfig(zones=3, t_final=0.01, telemetry=True))
        m = report.manifest
        assert isinstance(m, RunManifest)
        doc = json.loads(m.to_json())
        assert doc["problem"] == "sedov"
        assert set(doc["energy"]["phases_j"]) == {"force", "cg", "other"}
        assert doc["telemetry"]["cpu"] == "E5-2670"
        assert doc["phases"]  # phase table present
        assert "force" in m.summary() or "energy" in m.summary()


    def test_phase_record_matches_phase_spans(self):
        """Traced, the workload's force and CG seconds are the durations
        of the "phase" spans the integrator and `initialize_dt` opened."""
        from repro.api import run

        report = run("sedov", RunConfig(zones=3, t_final=0.05, telemetry=True))
        w = report.result.workload
        spans = report.tracer.phase_table(category="phase")
        assert set(spans) == {"force", "cg"}
        assert spans["force"]["seconds"] == pytest.approx(w.wall_force_s, rel=1e-12)
        assert spans["cg"]["seconds"] == pytest.approx(w.wall_cg_s, rel=1e-12)
        # One force span per evaluation and per end-of-step geometry check.
        assert w.rejected_steps == 0
        assert spans["force"]["calls"] == w.force_evals + w.steps

class TestTelemetryOff:
    def test_disabled_tracer_is_null(self):
        tr = Tracer(enabled=False)
        assert tr.span("anything", category="x") is NULL_SPAN
        with tr.span("anything") as s:
            assert s is None
        tr.instant("fault")
        tr.finish()
        assert tr.spans == [] and tr.events == []

    def test_solver_without_tracer_allocates_no_spans(self):
        from repro.problems import SedovProblem
        from repro.hydro.solver import LagrangianHydroSolver

        problem = SedovProblem(dim=2, order=2, zones_per_dim=3)
        solver = LagrangianHydroSolver(problem, RunConfig())
        assert solver.tracer is None
        assert solver.engine.tracer is None
        assert solver.integrator.tracer is None
        solver.run(t_final=0.01)

    def test_disabled_tracer_passed_in_is_dropped(self):
        from repro.problems import SedovProblem
        from repro.hydro.solver import LagrangianHydroSolver

        problem = SedovProblem(dim=2, order=2, zones_per_dim=3)
        solver = LagrangianHydroSolver(
            problem, RunConfig(), tracer=Tracer(enabled=False)
        )
        assert solver.tracer is None


class TestFacade:
    def test_parity_with_manual_wiring(self):
        """api.run (telemetry off) is bit-identical to manual wiring."""
        from repro.api import run
        from repro.hydro.solver import LagrangianHydroSolver
        from repro.problems import SedovProblem

        problem = SedovProblem(dim=2, order=2, zones_per_dim=3)
        manual = LagrangianHydroSolver(problem, RunConfig()).run(t_final=0.02)
        report = run("sedov", RunConfig(zones=3, t_final=0.02))
        assert report.steps == manual.steps
        assert np.array_equal(report.state.v, manual.state.v)
        assert np.array_equal(report.state.e, manual.state.e)
        assert np.array_equal(report.state.x, manual.state.x)

    def test_telemetry_does_not_change_physics(self):
        from repro.api import run

        plain = run("sedov", RunConfig(zones=3, t_final=0.02))
        traced = run("sedov", RunConfig(zones=3, t_final=0.02, telemetry=True))
        assert np.array_equal(plain.state.v, traced.state.v)
        assert np.array_equal(plain.state.e, traced.state.e)
        assert traced.tracer is not None and len(traced.tracer.spans) > 0

    def test_overrides_and_problem_object(self):
        from repro.api import run
        from repro.problems import SedovProblem

        problem = SedovProblem(dim=2, order=2, zones_per_dim=3)
        report = run(problem, RunConfig(t_final=0.05), max_steps=2)
        assert report.steps <= 2
        assert report.config.max_steps == 2

    def test_resilient_path(self, tmp_path):
        from repro.api import run

        report = run("sedov", RunConfig(
            zones=3, t_final=0.01, checkpoint_every=1, telemetry=True,
        ))
        assert report.recovery is not None
        assert report.recovery.checkpoints_written >= 1
        assert "resilience" in report.manifest.phases
        # One root "run" span (the solver's loop); checkpoints appear as
        # instants.
        roots = [s for s in report.tracer.spans if s.parent == -1]
        assert [s.name for s in roots] == ["run"]
        assert any(ev["name"] == "checkpoint" for ev in report.tracer.events)

    def test_distributed_path(self):
        from repro.api import run

        report = run("sedov", RunConfig(zones=3, t_final=0.01, ranks=2,
                                        telemetry=True))
        assert report.mpi_traffic is not None
        assert report.mpi_traffic.messages > 0
        assert [s.name for s in report.tracer.spans if s.parent == -1] == ["run"]

    def test_exports_written(self, tmp_path):
        from repro.api import run

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "run.jsonl"
        run("sedov", RunConfig(zones=3, t_final=0.01,
                               trace_path=str(trace), metrics_path=str(metrics)))
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"]
        lines = [json.loads(l) for l in metrics.read_text().splitlines()]
        assert lines[0]["type"] == "meta"
        assert any(r["type"] == "span" for r in lines)

    def test_workers_ranks_compose(self):
        # The old workers-xor-ranks restriction is gone: ranks wrap the
        # resolved node backend (here cpu-parallel), which evaluates
        # in-process, so no pool runs.
        cfg = RunConfig(workers=2, ranks=2)
        assert cfg.resolved_execution == {
            "ranks": 2, "backend": "cpu-parallel", "workers": 0,
        }


class TestDeprecationShims:
    def test_facade_path_emits_no_deprecation(self):
        from repro.api import run

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run("sedov", RunConfig(zones=3, t_final=0.005, checkpoint_every=5))
