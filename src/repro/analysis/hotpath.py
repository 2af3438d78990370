"""Hot-path performance measurements and the perf-regression record.

Times the corner-force micro-kernel (the paper's 55-80% phase) and the
full solver step under the three engine configurations this repo
supports — `legacy` (allocate-per-call), `workspace` (fused
zero-allocation path) and `parallel` (shared-memory zone executor) —
and appends a machine-readable record to ``BENCH_hotpath.json`` so
every future change has a perf trajectory to regress against.

Used by ``benchmarks/bench_hotpath.py`` (standalone + EXPERIMENTS.md)
and the ``repro bench hotpath`` CLI subcommand.
"""

from __future__ import annotations

import gc
import math
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "HotpathCase",
    "bench_corner_force",
    "bench_full_step",
    "bench_telemetry_overhead",
    "bench_scheduler_overhead",
    "bench_distributed_overhead",
    "bench_dispatch_overhead",
    "bench_sumfact_crossover",
    "run_hotpath_bench",
]

#: Telemetry-off must stay within this of a traced run (fraction of wall).
TELEMETRY_OVERHEAD_LIMIT = 0.03

#: In-band tuning (cold cache, campaign live) must stay within this of a
#: pinned-winner (warm-started) hybrid run.
SCHEDULER_OVERHEAD_LIMIT = 0.05

#: A ranks=2 cpu-fused step must stay within this factor of the serial
#: cpu-fused step. The vectorized rank path legitimately pays ~2.2-2.7x
#: here (interface/interior split evaluation, per-rank scatter
#: accounting, and the interface rows of the mass matvec re-derived
#: per PCG iteration); the gate catches the composition layer growing
#: superlinear overhead, not the modeled comm.
DISTRIBUTED_OVERHEAD_LIMIT = 3.5

#: Steady-state per-call overhead of the warm persistent worker pool at
#: workers=1 vs the in-process fused engine (same single span, same
#: bits): the price of three input copies + one 16-byte command wake-up
#: + one ack read. Fork/start cost is excluded by construction — the
#: pool is measured warm, which is how every step after the first sees
#: it. 10% is the bar for "always-on default" rather than a crossover.
DISPATCH_OVERHEAD_LIMIT = 0.10

#: Order at which the sum-factorized route must beat the dense tables
#: on modeled work (the documented 2D crossover is Q3; Q4 leaves margin).
#: The gate catches the work model or the contraction layer regressing
#: past the crossover, not wall-clock noise.
SUMFACT_GATE_ORDER = 4

#: Parity budget between the sumfact and fused corner forces: pure
#: contraction-reordering roundoff, documented in DESIGN.md section 16.
SUMFACT_PARITY_LIMIT = 1e-10

_SEED = 20140519
_PERTURB = 5e-4  # keeps randomized high-order meshes untangled


@dataclass
class HotpathCase:
    """One corner-force microbenchmark row."""

    label: str
    order: int
    nzones: int
    nqp: int
    reps: int
    legacy_ms: float
    fused_ms: float
    fused_speedup: float
    parallel_ms: float
    parallel_speedup: float
    workers: int
    fused_rel_err: float
    parallel_rel_err: float
    #: Why the parallel row was not measured (None = it was).
    parallel_skipped: str | None = None


def _setup(order: int, nz1d: int):
    """Engines (legacy + fused) and two randomized curved-mesh states."""
    from repro.fem.geometry import GeometryEvaluator
    from repro.fem.mesh import cartesian_mesh_2d
    from repro.fem.quadrature import tensor_quadrature
    from repro.fem.spaces import H1Space, L2Space
    from repro.hydro.corner_force import ForceEngine
    from repro.hydro.eos import GammaLawEOS
    from repro.hydro.state import HydroState

    mesh = cartesian_mesh_2d(nz1d, nz1d)
    h1 = H1Space(mesh, order)
    l2 = L2Space(mesh, order - 1)
    quad = tensor_quadrature(2, 2 * order)
    geo0 = GeometryEvaluator(h1, quad).evaluate(h1.node_coords)
    rho0 = np.ones((mesh.nzones, quad.nqp))
    args = (h1, l2, quad, GammaLawEOS(), rho0, geo0)
    legacy = ForceEngine(*args, fused=False)
    fused = ForceEngine(*args, fused=True)
    rng = np.random.default_rng(_SEED)
    states = []
    for _ in range(2):
        v = 0.1 * rng.standard_normal((h1.ndof, 2))
        e = rng.random(l2.ndof) + 0.5
        x = h1.node_coords + _PERTURB * rng.standard_normal((h1.ndof, 2))
        states.append(HydroState(v, e, x, 0.0))
    return legacy, fused, states


def _time_compute(fn, states, reps: int) -> float:
    """Mean seconds per call, alternating states (defeats trivial caching
    of a single input while exercising the per-x geometry cache shape)."""
    for i in range(3):
        fn(states[i % 2])
    t0 = time.perf_counter()
    for i in range(reps):
        fn(states[i % 2])
    return (time.perf_counter() - t0) / reps


def bench_corner_force(
    order: int, nz1d: int, reps: int, workers: int | None = None
) -> HotpathCase:
    """Time one corner-force evaluation: legacy vs fused vs parallel."""
    from repro.runtime.parallel import ZoneParallelExecutor

    legacy, fused, states = _setup(order, nz1d)
    ref = legacy.compute(states[0])
    got = fused.compute(states[0])
    scale = np.abs(ref.Fz).max()
    fused_err = float(np.abs(ref.Fz - got.Fz).max() / scale)
    legacy_s = _time_compute(legacy.compute, states, reps)
    fused_s = _time_compute(fused.compute, states, reps)
    if workers is None and (os.cpu_count() or 1) == 1:
        # A 1-core host cannot measure parallel *speedup*: the row would
        # time pure pool dispatch against serial compute and read as a
        # regression. Record why instead of a misleading number (the
        # dispatch cost itself is gated by bench_dispatch_overhead).
        return HotpathCase(
            label=f"Q{order}-Q{order - 1}",
            order=order,
            nzones=legacy.kinematic.mesh.nzones,
            nqp=legacy.quad.nqp,
            reps=reps,
            legacy_ms=legacy_s * 1e3,
            fused_ms=fused_s * 1e3,
            fused_speedup=legacy_s / fused_s,
            parallel_ms=0.0,
            parallel_speedup=0.0,
            workers=0,
            fused_rel_err=fused_err,
            parallel_rel_err=0.0,
            parallel_skipped="single-core host (os.cpu_count() == 1)",
        )
    nworkers = workers if workers is not None else (os.cpu_count() or 1)
    with ZoneParallelExecutor(fused, workers=nworkers) as ex:
        par_err = float(np.abs(ref.Fz - ex.compute(states[0]).Fz).max() / scale)
        parallel_s = _time_compute(ex.compute, states, reps)
        nworkers = ex.workers
    return HotpathCase(
        label=f"Q{order}-Q{order - 1}",
        order=order,
        nzones=legacy.kinematic.mesh.nzones,
        nqp=legacy.quad.nqp,
        reps=reps,
        legacy_ms=legacy_s * 1e3,
        fused_ms=fused_s * 1e3,
        fused_speedup=legacy_s / fused_s,
        parallel_ms=parallel_s * 1e3,
        parallel_speedup=legacy_s / parallel_s,
        workers=nworkers,
        fused_rel_err=fused_err,
        parallel_rel_err=par_err,
    )


def bench_full_step(order: int, zones_per_dim: int, steps: int) -> dict:
    """Whole-solver steps/second, legacy vs fused engine, same physics."""
    from repro.config import RunConfig
    from repro.hydro.solver import LagrangianHydroSolver
    from repro.problems import SedovProblem

    rows = {}
    final = {}
    for label, backend in (("legacy", "cpu-serial"), ("workspace", "cpu-fused")):
        problem = SedovProblem(dim=2, order=order, zones_per_dim=zones_per_dim)
        solver = LagrangianHydroSolver(problem, RunConfig(backend=backend))
        t0 = time.perf_counter()
        result = solver.run(max_steps=steps)
        elapsed = time.perf_counter() - t0
        rows[label] = {
            "steps": result.steps,
            "wall_s": elapsed,
            "ms_per_step": elapsed / max(result.steps, 1) * 1e3,
            "energy_drift": result.energy_change,
        }
        final[label] = result.state
    dv = np.abs(final["legacy"].v - final["workspace"].v).max()
    de = np.abs(final["legacy"].e - final["workspace"].e).max()
    rows["state_max_diff"] = float(max(dv, de))
    rows["speedup"] = rows["legacy"]["ms_per_step"] / rows["workspace"]["ms_per_step"]
    rows["order"] = order
    rows["zones_per_dim"] = zones_per_dim
    return rows


def bench_telemetry_overhead(
    order: int = 2, zones_per_dim: int = 6, steps: int = 6, reps: int = 12
) -> dict:
    """Wall time of a traced run vs an untraced one (quietest-pair estimate).

    Full tracer + `CounterSampler` stack against tracer=None on the same
    Sedov march; the paper's instrumentation argument only holds if
    measuring the run does not perturb it.
    """
    from repro.config import RunConfig
    from repro.hydro.solver import LagrangianHydroSolver
    from repro.problems import SedovProblem
    from repro.telemetry import CounterSampler, Tracer

    def once(traced: bool) -> tuple[float, int]:
        problem = SedovProblem(dim=2, order=order, zones_per_dim=zones_per_dim)
        tracer = None
        if traced:
            tracer = Tracer()
            tracer.add_listener(CounterSampler())
        solver = LagrangianHydroSolver(problem, RunConfig(), tracer=tracer)
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            solver.run(max_steps=steps)
            elapsed = time.perf_counter() - t0
        finally:
            gc.enable()
        return elapsed, len(tracer.spans) if traced else 0

    # One untimed warmup pair absorbs first-call costs (imports, numpy
    # buffer pools, the sampler's first read), then back-to-back off/on
    # pairs with the cyclic GC parked outside the timed region (span
    # dicts advance the gen0 counter, so collections would fire
    # preferentially inside traced runs and read as phantom overhead).
    # The gate reads the *minimum* pair: off/on in one pair share one
    # load window, so differencing cancels whatever the host was doing,
    # and the quietest window is the truest — a real regression cannot
    # hide there because it is carried by every pair, the quietest
    # included. (Median-of-pairs and min(on)/min(off) were tried first;
    # both tripped under suite load on this 1-core host, where a single
    # scheduler blip is percent-scale on a ~30 ms run and the global
    # fastest off-run pairs with nobody.)
    once(False)
    once(True)
    pairs, spans = [], 0
    for _ in range(reps):
        off = once(False)[0]
        on, spans = once(True)
        pairs.append(((on - off) / off, off, on))
    overhead, off, on = min(pairs)
    return {
        "order": order,
        "zones_per_dim": zones_per_dim,
        "steps": steps,
        "reps": reps,
        "off_ms": off * 1e3,
        "on_ms": on * 1e3,
        "spans": spans,
        "overhead_pct": overhead * 100.0,
        "median_pair_pct": 100.0 * sorted(p[0] for p in pairs)[len(pairs) // 2],
        "pair_overheads_pct": [p[0] * 100.0 for p in pairs],
    }


def bench_scheduler_overhead(
    order: int = 2, zones_per_dim: int = 6, steps: int = 6, reps: int = 3
) -> dict:
    """Per-step cost of in-band tuning vs the hybrid march itself.

    Differencing two short full runs cannot resolve a few percent on a
    loaded host, so the added work is timed directly. The denominator is
    the per-step wall time of a warm-started (pinned-winner) hybrid run;
    the numerator drives a cold scheduler through its *entire* campaign
    — joint-space construction, the in-band local search asking/pricing
    one candidate per `on_step` at `tune_period_steps=1` (the most
    scheduler work per step possible), and every cache flush — and
    amortizes the total over the campaign's steps. The march is bitwise identical under either
    scheduler state (pinned by tests/test_backends.py), so this ratio
    *is* the in-band scheduling overhead.
    """
    import tempfile

    from repro.config import RunConfig
    from repro.hydro.solver import LagrangianHydroSolver
    from repro.problems import SedovProblem
    from repro.sched import OnlineScheduler, SchedulerConfig
    from repro.tuning import TuningCache

    def build(cache_path: str) -> LagrangianHydroSolver:
        problem = SedovProblem(dim=2, order=order, zones_per_dim=zones_per_dim)
        cfg = RunConfig(backend="hybrid", tune_period_steps=1,
                        tuning_cache=cache_path)
        return LagrangianHydroSolver(problem, cfg)

    def drain(sched) -> int:
        calls = 0
        while not sched.done and calls < 1000:
            sched.on_step()
            calls += 1
        return calls

    with tempfile.TemporaryDirectory() as d:
        warm = os.path.join(d, "warm.json")
        seed = build(warm)  # run one full campaign to populate the cache
        drain(seed.scheduler)
        seed.close()

        pinned_s = []
        for _ in range(reps):
            solver = build(warm)  # warm-starts: scheduler immediately done
            t0 = time.perf_counter()
            solver.run(max_steps=steps)
            pinned_s.append((time.perf_counter() - t0) / steps)
            solver.close()
        pinned_step = min(pinned_s)

        sched_step_s, campaign_steps = [], 0
        host = build(warm)  # donor of an attached hybrid backend
        # A campaign is milliseconds, so extra reps are nearly free and
        # the min is far less exposed to a noisy-host window than the
        # (expensive, `reps`-capped) pinned-step measurement above.
        for i in range(reps + 2):
            cache = TuningCache(os.path.join(d, f"cold{i}.json"))
            t0 = time.perf_counter()
            # Construction prices the candidate spaces on the simulated
            # device — a cost warm starts skip, so it belongs in the bill.
            sched = OnlineScheduler(
                host.backend, cache, SchedulerConfig(steps_per_period=1)
            )
            campaign_steps = drain(sched)
            sched_step_s.append(
                (time.perf_counter() - t0) / max(campaign_steps, 1)
            )
        host.close()
        sched_step = min(sched_step_s)
    return {
        "order": order,
        "zones_per_dim": zones_per_dim,
        "steps": steps,
        "reps": reps,
        "strategy": "local",  # SchedulerConfig default drives the search
        "campaign_steps": campaign_steps,
        "pinned_ms": pinned_step * 1e3,
        "tuned_ms": (pinned_step + sched_step) * 1e3,
        "sched_us_per_step": sched_step * 1e6,
        "overhead_pct": sched_step / pinned_step * 100.0,
    }


def bench_distributed_overhead(
    order: int = 2, zones_per_dim: int = 6, steps: int = 6, reps: int = 3
) -> dict:
    """Per-step wall of a ranks=2 cpu-fused run vs the serial fused run.

    Times back-to-back serial/distributed pairs and gates on the best
    pair's factor (one pair shares one load window): the vectorized
    rank path evaluates interface and interior zones in two passes,
    scatters per-rank partial sums, and re-derives the interface rows
    of the mass matvec every PCG iteration, so a bounded constant
    factor is expected — a blowout means the composition layer
    regressed.
    """
    from repro.config import RunConfig
    from repro.hydro.solver import LagrangianHydroSolver
    from repro.problems import SedovProblem

    def once(ranks: int) -> float:
        problem = SedovProblem(dim=2, order=order, zones_per_dim=zones_per_dim)
        solver = LagrangianHydroSolver(problem, RunConfig(ranks=ranks))
        t0 = time.perf_counter()
        solver.run(max_steps=steps)
        elapsed = time.perf_counter() - t0
        solver.close()
        return elapsed / steps

    best = (math.inf, math.inf, math.inf)
    for _ in range(reps):
        serial = once(0)
        dist = once(2)
        best = min(best, (dist / serial, serial, dist))
    factor, serial, dist = best
    return {
        "order": order,
        "zones_per_dim": zones_per_dim,
        "steps": steps,
        "reps": reps,
        "ranks": 2,
        "serial_ms": serial * 1e3,
        "distributed_ms": dist * 1e3,
        "factor": factor,
    }


def bench_dispatch_overhead(order: int = 2, nz1d: int = 10, reps: int = 20) -> dict:
    """Steady-state fabric cost of the warm persistent pool at workers=1.

    The gated quantity is what the pool *adds* to one corner-force
    evaluation — a command round trip on the real pipe machinery (no-op
    worker fn, so the 16-byte packed wake-up + 1-byte ack is isolated
    from the compute it normally brackets) plus publishing the three
    state arrays into shared segments — measured directly rather than as
    the difference of two ms-scale timings: on a busy 1-core host the
    end-to-end pool/serial delta swings tens of percent either way with
    scheduler luck, while the fabric itself is tens of microseconds and
    times stably. Per-evaluation is strictly conservative versus the
    acceptance criterion's per-step form: a step dispatches twice but
    also pays 2*dim PCG solves on top of the two evaluations. The
    end-to-end workers=1 comparison (bitwise-equal results by the
    single-span contract) is recorded alongside as the unguarded
    trajectory number.
    """
    from repro.runtime.parallel import ZoneParallelExecutor
    from repro.runtime.workers import PersistentWorkerPool

    _, fused, states = _setup(order, nz1d)
    serial_s = min(_time_compute(fused.compute, states, reps) for _ in range(3))

    def _noop(wid: int, slot: int, t: float) -> None:
        pass

    with PersistentWorkerPool(1, _noop, name="bench-noop") as pool:
        pool.start()
        for _ in range(20):
            pool.dispatch(0, 0.0)
            pool.wait()
        n = 500
        t0 = time.perf_counter()
        for _ in range(n):
            pool.dispatch(0, 0.0)
            pool.wait()
        roundtrip_s = (time.perf_counter() - t0) / n

    # The executor's per-compute input publish: np.copyto into the
    # pre-mapped shared segments (same shapes, private destinations).
    st = states[0]
    dst = [np.empty_like(st.x), np.empty_like(st.v), np.empty_like(st.e)]
    src = [st.x, st.v, st.e]
    for d, s in zip(dst, src):
        np.copyto(d, s)
    n = 500
    t0 = time.perf_counter()
    for _ in range(n):
        for d, s in zip(dst, src):
            np.copyto(d, s)
    publish_s = (time.perf_counter() - t0) / n

    fabric_s = roundtrip_s + publish_s
    overhead = fabric_s / serial_s

    with ZoneParallelExecutor(fused, workers=1) as ex:
        ex.compute(states[0])  # fork + first dispatch outside the clock
        pool_s = min(_time_compute(ex.compute, states, reps) for _ in range(3))
        stats = ex.stats()
    return {
        "order": order,
        "nzones": fused.kinematic.mesh.nzones,
        "reps": reps,
        "serial_ms": serial_s * 1e3,
        "roundtrip_us": roundtrip_s * 1e6,
        "publish_us": publish_s * 1e6,
        "fabric_us": fabric_s * 1e6,
        "overhead_pct": overhead * 100.0,
        "pool_ms": pool_s * 1e3,
        "end_to_end_pct": (pool_s - serial_s) / serial_s * 100.0,
        "dispatches": stats["dispatches"],
        "dispatch_us_mean": stats["dispatch_us_mean"],
    }


def bench_sumfact_crossover(order: int = 4, nz1d: int = 8, reps: int = 5) -> dict:
    """Measure the Q`order` sumfact-vs-dense case and model the crossover.

    One measured corner-force comparison (fused dense tables vs the
    matrix-free sum-factorized engine, same randomized curved mesh) plus
    the modeled-work crossover table the tuner prices its fusion axis
    from — both land in the BENCH record so the per-order crossover has
    a trajectory.
    """
    from repro.fem.geometry import GeometryEvaluator
    from repro.fem.mesh import cartesian_mesh_2d
    from repro.fem.quadrature import tensor_quadrature
    from repro.fem.spaces import H1Space, L2Space
    from repro.fem.sumfact import modeled_work_dense, modeled_work_sumfact
    from repro.hydro.corner_force import ForceEngine, SumfactForceEngine
    from repro.hydro.eos import GammaLawEOS
    from repro.hydro.state import HydroState
    from repro.kernels import FEConfig

    mesh = cartesian_mesh_2d(nz1d, nz1d)
    h1 = H1Space(mesh, order)
    l2 = L2Space(mesh, order - 1)
    quad = tensor_quadrature(2, 2 * order)
    geo0 = GeometryEvaluator(h1, quad).evaluate(h1.node_coords)
    rho0 = np.ones((mesh.nzones, quad.nqp))
    args = (h1, l2, quad, GammaLawEOS(), rho0, geo0)
    fused = ForceEngine(*args, fused=True)
    sumfact = SumfactForceEngine(*args)
    rng = np.random.default_rng(_SEED)
    states = []
    for _ in range(2):
        v = 0.1 * rng.standard_normal((h1.ndof, 2))
        e = rng.random(l2.ndof) + 0.5
        x = h1.node_coords + _PERTURB * rng.standard_normal((h1.ndof, 2))
        states.append(HydroState(v, e, x, 0.0))

    ref = fused.compute(states[0]).Fz
    got = sumfact.dense_force(sumfact.compute(states[0]).Fz)
    rel_err = float(np.abs(ref - got).max() / np.abs(ref).max())
    fused_s = _time_compute(fused.compute, states, reps)
    sumfact_s = _time_compute(sumfact.compute, states, reps)

    crossover = []
    for o in (1, 2, 3, 4, 6, 8):
        cfg = FEConfig(dim=2, order=o, nzones=mesh.nzones)
        dense_w = modeled_work_dense(cfg)
        sf_w = modeled_work_sumfact(cfg)
        crossover.append({
            "order": o,
            "dim": 2,
            "work_dense": dense_w,
            "work_sumfact": sf_w,
            "ratio": sf_w / dense_w,
        })
    gate = next(c for c in crossover if c["order"] == SUMFACT_GATE_ORDER)
    return {
        "order": order,
        "nzones": mesh.nzones,
        "nqp": quad.nqp,
        "reps": reps,
        "fused_ms": fused_s * 1e3,
        "sumfact_ms": sumfact_s * 1e3,
        "measured_speedup": fused_s / sumfact_s,
        "rel_err": rel_err,
        "crossover": crossover,
        "gate_order": SUMFACT_GATE_ORDER,
        "gate_ratio": gate["ratio"],
    }


def run_hotpath_bench(
    quick: bool = False,
    workers: int | None = None,
    json_path: str | os.PathLike | None = None,
) -> dict:
    """Run the suite, print the table, append the JSON record.

    quick : smaller meshes / fewer reps (the < 60 s perf-smoke target of
        the tier-1 verify recipe).
    """
    if quick:
        micro = [(2, 10, 10), (4, 8, 8)]  # (order, nz1d, reps)
        step_cfg = (2, 6, 6)  # (order, zones_per_dim, steps)
    else:
        micro = [(2, 12, 30), (4, 12, 20)]
        step_cfg = (2, 10, 20)

    cases = [bench_corner_force(o, n, r, workers=workers) for o, n, r in micro]
    print("corner-force microbenchmark (one evaluation, mean over reps)")
    print(f"{'case':10s} {'zones':>6} {'legacy ms':>10} {'fused ms':>9} "
          f"{'speedup':>8} {'par ms':>8} {'par x':>6} {'wkr':>4} {'rel err':>9}")
    for c in cases:
        if c.parallel_skipped:
            par = f"{'skipped':>8} {'-':>6} {c.workers:4d}"
        else:
            par = (f"{c.parallel_ms:8.2f} {c.parallel_speedup:5.2f}x "
                   f"{c.workers:4d}")
        print(f"{c.label:10s} {c.nzones:6d} {c.legacy_ms:10.2f} {c.fused_ms:9.2f} "
              f"{c.fused_speedup:7.2f}x {par} "
              f"{max(c.fused_rel_err, c.parallel_rel_err):9.1e}")
    if any(c.parallel_skipped for c in cases):
        print(f"  parallel rows skipped: {cases[0].parallel_skipped}")

    full = bench_full_step(*step_cfg)
    print(f"\nfull solver step (2D Sedov Q{step_cfg[0]}, "
          f"{step_cfg[1]}x{step_cfg[1]} zones, {step_cfg[2]} steps)")
    for label in ("legacy", "workspace"):
        row = full[label]
        print(f"{label:10s} {row['ms_per_step']:8.2f} ms/step   "
              f"energy drift {row['energy_drift']:+.3e}")
    print(f"workspace step speedup {full['speedup']:.2f}x, "
          f"final-state max diff {full['state_max_diff']:.2e}")

    tele = bench_telemetry_overhead(step_cfg[0], step_cfg[1], step_cfg[2])
    print(f"\ntelemetry overhead ({tele['spans']} spans + power sampler): "
          f"off {tele['off_ms']:.1f} ms, on {tele['on_ms']:.1f} ms "
          f"-> {tele['overhead_pct']:+.2f}% "
          f"(limit {TELEMETRY_OVERHEAD_LIMIT:.0%})")

    sched = bench_scheduler_overhead(step_cfg[0], step_cfg[1], step_cfg[2])
    print(f"scheduler overhead ({sched['campaign_steps']}-step "
          f"{sched['strategy']}-search campaign, "
          f"amortized): step {sched['pinned_ms']:.2f} ms, "
          f"+{sched['sched_us_per_step']:.0f} us/step in-band "
          f"-> {sched['overhead_pct']:+.2f}% "
          f"(limit {SCHEDULER_OVERHEAD_LIMIT:.0%})")

    dist = bench_distributed_overhead(step_cfg[0], step_cfg[1], step_cfg[2])
    print(f"distributed overhead (ranks=2 cpu-fused vs serial): "
          f"serial {dist['serial_ms']:.2f} ms/step, "
          f"distributed {dist['distributed_ms']:.2f} ms/step "
          f"-> {dist['factor']:.2f}x "
          f"(limit {DISTRIBUTED_OVERHEAD_LIMIT:.1f}x)")

    disp = bench_dispatch_overhead(reps=10 if quick else 20)
    print(f"pool dispatch overhead (warm workers=1 fabric vs in-process): "
          f"round trip {disp['roundtrip_us']:.0f} us + publish "
          f"{disp['publish_us']:.0f} us on a {disp['serial_ms']:.2f} ms eval "
          f"-> {disp['overhead_pct']:+.2f}% "
          f"(limit {DISPATCH_OVERHEAD_LIMIT:.0%}; end-to-end "
          f"{disp['end_to_end_pct']:+.1f}%)")

    sumfact = bench_sumfact_crossover(
        order=SUMFACT_GATE_ORDER,
        nz1d=8 if quick else 10,
        reps=5 if quick else 10,
    )
    print(f"\nsumfact crossover (Q{sumfact['order']}, "
          f"{sumfact['nzones']} zones): fused {sumfact['fused_ms']:.2f} ms, "
          f"sumfact {sumfact['sumfact_ms']:.2f} ms "
          f"({sumfact['measured_speedup']:.2f}x measured), "
          f"rel err {sumfact['rel_err']:.1e}")
    print("  modeled work sumfact/dense by order: "
          + "  ".join(f"Q{c['order']}:{c['ratio']:.3f}"
                      for c in sumfact["crossover"]))

    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "quick": quick,
        "cpu_count": os.cpu_count() or 1,
        "cases": [asdict(c) for c in cases],
        "full_step": full,
        "telemetry": tele,
        "scheduler": sched,
        "distributed": dist,
        "dispatch": disp,
        "sumfact": sumfact,
    }
    from repro.analysis.record import append_bench_record

    path = Path(json_path) if json_path is not None else _default_json_path()
    append_bench_record(record, path, timestamp=False)
    print(f"\nappended record to {path}")
    if tele["overhead_pct"] > TELEMETRY_OVERHEAD_LIMIT * 100.0:
        raise SystemExit(
            f"telemetry overhead {tele['overhead_pct']:.2f}% exceeds the "
            f"{TELEMETRY_OVERHEAD_LIMIT:.0%} gate (off {tele['off_ms']:.1f} ms, "
            f"on {tele['on_ms']:.1f} ms)"
        )
    if sched["overhead_pct"] > SCHEDULER_OVERHEAD_LIMIT * 100.0:
        raise SystemExit(
            f"in-band {sched['strategy']}-search overhead "
            f"{sched['overhead_pct']:.2f}% exceeds the "
            f"{SCHEDULER_OVERHEAD_LIMIT:.0%} gate "
            f"({sched['sched_us_per_step']:.0f} us/step on a "
            f"{sched['pinned_ms']:.2f} ms step)"
        )
    if dist["factor"] > DISTRIBUTED_OVERHEAD_LIMIT:
        raise SystemExit(
            f"distributed overhead {dist['factor']:.2f}x exceeds the "
            f"{DISTRIBUTED_OVERHEAD_LIMIT:.1f}x gate "
            f"(serial {dist['serial_ms']:.2f} ms/step, "
            f"ranks=2 {dist['distributed_ms']:.2f} ms/step)"
        )
    if disp["overhead_pct"] > DISPATCH_OVERHEAD_LIMIT * 100.0:
        raise SystemExit(
            f"persistent-pool dispatch overhead {disp['overhead_pct']:.2f}% "
            f"exceeds the {DISPATCH_OVERHEAD_LIMIT:.0%} gate "
            f"({disp['fabric_us']:.0f} us fabric on a "
            f"{disp['serial_ms']:.2f} ms serial evaluation)"
        )
    if sumfact["gate_ratio"] >= 1.0:
        raise SystemExit(
            f"sumfact modeled work no longer beats the dense tables at "
            f"Q{SUMFACT_GATE_ORDER} (ratio {sumfact['gate_ratio']:.3f} >= 1.0) "
            f"— the crossover regressed"
        )
    if sumfact["rel_err"] > SUMFACT_PARITY_LIMIT:
        raise SystemExit(
            f"sumfact corner-force parity {sumfact['rel_err']:.1e} exceeds "
            f"the {SUMFACT_PARITY_LIMIT:.0e} budget vs the fused engine"
        )
    return record


def _default_json_path() -> Path:
    """BENCH_hotpath.json at the repo root (next to EXPERIMENTS.md)."""
    root = Path(__file__).resolve().parents[3]  # src/repro/analysis -> repo
    if (root / "pyproject.toml").exists():
        return root / "BENCH_hotpath.json"
    return Path.cwd() / "BENCH_hotpath.json"
