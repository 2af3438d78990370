"""Command-line interface.

    python -m repro run sedov --dim 2 --order 2 --zones 8 --t-final 0.2
    python -m repro run sod --backend cpu-sumfact --order 4
    python -m repro run sedov --backend hybrid --tuning-cache tune.json
    python -m repro run sedov --ranks 4 --backend cpu-fused --overlap on
    python -m repro bench scaling --quick
    python -m repro info devices
    python -m repro model greenup --order 2
    python -m repro tune kernel3 --device K20 --order 2
    python -m repro tune campaign --device K20 --cache tune.json
    python -m repro submit sedov --journal fleet.jsonl --priority 2
    python -m repro serve --journal fleet.jsonl --workers 2

`run` drives the real solver under one of three execution backends
(--backend cpu-fused|cpu-sumfact|hybrid, with optional VTK/checkpoint
output) and prints its wall-time phase split; `bench scaling` checks
the measured weak/strong scaling curves against the analytic model
(performance is measured by `perfbench/run.py`);
`model` prices workloads on the simulated hardware; `tune` runs the
autotuner (single kernel, or a whole campaign with `tune campaign`);
`info` dumps the device catalogs; `submit`/`serve` journal jobs and
drain them through the fault-tolerant `repro.service` fleet.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main", "build_parser"]

_PROBLEMS = ("sedov", "triple-pt", "taylor-green", "noh", "saltzman", "sod")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for shell completion)."""
    from repro.config import BACKEND_NAMES, DEFAULT_MAX_STEPS

    p = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a hydro problem")
    run.add_argument("problem", choices=_PROBLEMS)
    run.add_argument("--dim", type=int, default=2, choices=(2, 3))
    run.add_argument("--order", type=int, default=2)
    run.add_argument("--zones", type=int, default=8, help="zones per dimension")
    run.add_argument("--t-final", type=float, default=None)
    run.add_argument("--cfl", type=float, default=None)
    run.add_argument("--max-steps", type=int, default=None,
                     help=f"step budget (default {DEFAULT_MAX_STEPS})")
    run.add_argument("--integrator", default="rk2avg", choices=("rk2avg", "euler", "rk4"))
    run.add_argument("--vtk", default=None, help="write a VTK snapshot here")
    run.add_argument("--checkpoint", default=None, help="write a checkpoint here")
    run.add_argument("--restore", default=None, help="restore a checkpoint first")
    run.add_argument("--backend", default=None, choices=BACKEND_NAMES,
                     help="execution backend: the fused zero-allocation "
                          "path (default), the matrix-free "
                          "sum-factorization engine, or the priced CPU-GPU "
                          "split with in-band tuning")
    run.add_argument("--hybrid-device", default="K20", metavar="GPU",
                     help="simulated GPU pricing the hybrid backend's split")
    run.add_argument("--tuning-cache", default=None, metavar="PATH",
                     help="tuning-cache JSON for the hybrid scheduler "
                          "(persists winners; warm-starts later runs)")
    run.add_argument("--tune-period-steps", type=int, default=40, metavar="N",
                     help="steps per in-band sampling period (hybrid "
                          "scheduler; default 40)")
    run.add_argument("--strict-tuning-cache", action="store_true",
                     help="treat a corrupt --tuning-cache file as an error "
                          "instead of warning and starting fresh")
    run.add_argument("--tuning-objective", default="time",
                     choices=("time", "energy", "edp"),
                     help="what the in-band tuning campaign minimizes "
                          "(winners persist per objective; default time)")
    run.add_argument("--tuning-strategy", default="local",
                     choices=("exhaustive", "random", "local"),
                     help="how the campaign walks the joint configuration "
                          "space (default: greedy local coordinate descent)")
    run.add_argument("--ranks", type=int, default=0, metavar="N",
                     help="partition the mesh over N simulated-MPI ranks; "
                          "composes with --backend (each rank runs the "
                          "selected node backend)")
    run.add_argument("--overlap", default="on", choices=("on", "off"),
                     help="price the distributed interface-dof exchange as "
                          "hidden under the modeled interior-zone corner force "
                          "(pricing only; physics is identical; default on)")
    run.add_argument("--faults", default=None, metavar="SPEC",
                     help="fault-injection schedule, e.g. 'gpu:3,state:12:blowup,"
                          "rank:2:1' (kind:occurrence[:extra], '!' suffix = sticky)")
    run.add_argument("--fault-seed", type=int, default=0,
                     help="seed for the fault injector's random rates")
    run.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                     help="run under the ResilientDriver, snapshotting every N steps")
    run.add_argument("--checkpoint-dir", default=None,
                     help="also write verified disk checkpoints at the cadence")
    run.add_argument("--checkpoint-keep", type=int, default=0, metavar="N",
                     help="retain at most N disk checkpoints (0 = all); the "
                          "most recent verified checkpoint is never pruned")
    run.add_argument("--offload-device", default=None, metavar="GPU",
                     help="price a GPU corner-force offload (with fault recovery) "
                          "on this device, e.g. K20")
    run.add_argument("--trace", default=None, metavar="PATH",
                     help="write a chrome://tracing trace of the run here")
    run.add_argument("--metrics", default=None, metavar="PATH",
                     help="write the JSONL telemetry event stream here")
    run.add_argument("--json", action="store_true",
                     help="print the RunManifest as JSON instead of the "
                          "human-readable report")

    bench = sub.add_parser("bench", help="scaling-model benchmark")
    bench.add_argument("target", choices=("scaling",))
    bench.add_argument("--quick", action="store_true",
                       help="fewer steps per point (< 60 s CI smoke)")
    bench.add_argument("--json", default=None,
                       help="override the BENCH_scaling.json location")

    info = sub.add_parser("info", help="inventory dumps")
    info.add_argument("topic", choices=("devices", "kernels"))

    model = sub.add_parser("model", help="simulated-hardware models")
    model.add_argument("what", choices=("greenup", "profile", "scaling"))
    model.add_argument("--dim", type=int, default=3, choices=(2, 3))
    model.add_argument("--order", type=int, default=2)
    model.add_argument("--zones", type=int, default=16)
    model.add_argument("--nmpi", type=int, default=8)
    model.add_argument("--cpu", default="E5-2670")
    model.add_argument("--device", default="K20")

    tune = sub.add_parser("tune", help="autotune kernels (one, or a campaign)")
    tune.add_argument("kernel",
                      choices=("kernel3", "kernel5", "kernel7", "campaign"))
    tune.add_argument("--device", default="K20")
    tune.add_argument("--dim", type=int, default=3, choices=(2, 3))
    tune.add_argument("--order", type=int, default=2)
    tune.add_argument("--orders", default="2,3,4", metavar="LIST",
                      help="comma-separated FE orders for 'campaign'")
    tune.add_argument("--zones", type=int, default=16)
    tune.add_argument("--cache", default=None, help="tuning-cache JSON path")
    tune.add_argument("--objective", action="append", dest="objectives",
                      choices=("time", "energy", "edp"),
                      help="objective(s) for 'campaign' (repeatable; default "
                           "time; each objective's winner is cached under "
                           "its own key)")
    tune.add_argument("--strategy", default="local",
                      choices=("exhaustive", "random", "local"),
                      help="search strategy for 'campaign' (default local)")
    tune.add_argument("--seed", type=int, default=0,
                      help="strategy seed (random start / subsample)")
    tune.add_argument("--trace", default=None, metavar="PATH",
                      help="write a chrome://tracing trace of the campaign")

    serve = sub.add_parser(
        "serve",
        help="drain a job journal through the simulation fleet",
        description="Run every pending job in a write-ahead journal "
                    "(crash-safe: interrupted jobs are re-run, completed "
                    "ones served from the result store bit-identically) "
                    "and print the fleet telemetry rollup.",
    )
    serve.add_argument("--journal", required=True, metavar="PATH",
                       help="job journal (JSONL); created if missing")
    serve.add_argument("--workers", type=int, default=2, metavar="N",
                       help="worker threads (0 = deterministic inline "
                            "draining on the calling thread; default 2)")
    serve.add_argument("--results-dir", default=None, metavar="DIR",
                       help="result store directory (default: <journal "
                            "dir>/results)")
    serve.add_argument("--tuning-cache", default=None, metavar="PATH",
                       help="shared tuning cache injected into hybrid jobs")
    serve.add_argument("--manifest", default=None, metavar="PATH",
                       help="write the FleetManifest JSON here")
    serve.add_argument("--strict-journal", action="store_true",
                       help="treat corrupt journal lines as an error "
                            "instead of warning and skipping them")

    submit = sub.add_parser(
        "submit",
        help="append a job to a journal for a later `repro serve`",
        description="Write-ahead submission: records the job in the "
                    "journal without running it. The next `repro serve "
                    "--journal PATH` picks it up as pending work.",
    )
    submit.add_argument("problem", choices=_PROBLEMS)
    submit.add_argument("--journal", required=True, metavar="PATH")
    submit.add_argument("--dim", type=int, default=2, choices=(2, 3))
    submit.add_argument("--order", type=int, default=2)
    submit.add_argument("--zones", type=int, default=8)
    submit.add_argument("--t-final", type=float, default=None)
    submit.add_argument("--max-steps", type=int, default=None,
                        help=f"step budget (default {DEFAULT_MAX_STEPS})")
    submit.add_argument("--backend", default=None, choices=BACKEND_NAMES)
    submit.add_argument("--priority", type=int, default=0,
                        help="higher runs first (default 0)")
    submit.add_argument("--deadline", type=float, default=None, metavar="S",
                        help="per-attempt wall-clock budget in seconds")
    submit.add_argument("--max-attempts", type=int, default=3, metavar="N")
    submit.add_argument("--job-id", default=None,
                        help="explicit job id (default: derived)")
    return p


def _cmd_run(args) -> int:
    from repro.api import RunConfig, run

    cfg = RunConfig(
        dim=args.dim,
        order=args.order,
        zones=args.zones,
        t_final=args.t_final,
        max_steps=args.max_steps,
        cfl=args.cfl,
        integrator=args.integrator,
        backend=args.backend,
        hybrid_device=args.hybrid_device,
        tuning_cache=args.tuning_cache,
        tune_period_steps=args.tune_period_steps,
        tuning_strict=args.strict_tuning_cache,
        tuning_objective=args.tuning_objective,
        tuning_strategy=args.tuning_strategy,
        ranks=args.ranks,
        overlap=args.overlap == "on",
        faults=args.faults,
        fault_seed=args.fault_seed,
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_keep=args.checkpoint_keep,
        offload_device=args.offload_device,
        restore=args.restore,
        vtk=args.vtk,
        checkpoint=args.checkpoint,
        trace_path=args.trace,
        metrics_path=args.metrics,
    )
    report = run(args.problem, cfg)
    if args.json:
        print(report.manifest.to_json())
        return 0
    result = report.result
    if report.recovery is not None:
        print("resilience report:")
        print(report.recovery.summary())
    e0, e1 = result.energy_history[0], result.energy_history[-1]
    print(f"{report.problem.name}: {result.steps} steps to t={result.state.t:g} "
          f"({'complete' if result.reached_t_final else 'stopped early'})")
    print(f"energy: initial {e0.total:.13e}  final {e1.total:.13e}  "
          f"change {result.energy_change:+.3e}")
    if report.mpi_traffic is not None:
        tr = report.mpi_traffic
        print(f"simulated MPI traffic: {tr.messages} messages, "
              f"{tr.bytes} bytes, {tr.reductions} reductions")
    if report.scheduler is not None:
        s = report.scheduler
        origin = ("warm-started from cache" if s.warm_started else
                  f"tuned in {s.periods_tune}+{s.periods_balance} periods, "
                  f"{s.evaluations}/{s.feasible_points} candidates priced")
        print(f"in-band scheduler: GPU share {s.ratio:.2f} "
              f"(objective {s.objective}, strategy {s.strategy}; {origin}, "
              f"{'converged' if s.converged else 'not converged'})")
    if report.vtk_path is not None:
        print(f"wrote {report.vtk_path}")
    if report.checkpoint_path is not None:
        print(f"wrote {report.checkpoint_path}")
    w = result.workload
    print(f"phase wall time: force {w.wall_force_s:.3f}s  cg {w.wall_cg_s:.3f}s  "
          f"other {w.wall_other_s:.3f}s")
    if args.trace:
        print(f"wrote {args.trace}")
    if args.metrics:
        print(f"wrote {args.metrics}")
    return 0


def _cmd_bench(args) -> int:
    from repro.analysis.scaling_bench import run_scaling_bench

    run_scaling_bench(quick=args.quick, json_path=args.json)
    return 0


def _cmd_info(args) -> int:
    if args.topic == "devices":
        from repro.cpu.specs import CPU_CATALOG
        from repro.gpu.specs import GPU_CATALOG

        print(f"{'device':14s} {'year':>4} {'peak DP GF':>10} {'BW GB/s':>8} "
              f"{'TDP W':>6} {'GF/W':>6}")
        for spec in sorted(GPU_CATALOG.values(), key=lambda s: s.year):
            print(f"GPU {spec.name:10s} {spec.year:4d} {spec.peak_dp_gflops:10.0f} "
                  f"{spec.mem_bandwidth_gbs:8.0f} {spec.tdp_w:6.0f} "
                  f"{spec.peak_dp_per_watt:6.2f}")
        for spec in sorted(CPU_CATALOG.values(), key=lambda s: s.year):
            print(f"CPU {spec.name:10s} {spec.year:4d} {spec.peak_dp_gflops:10.0f} "
                  f"{spec.mem_bandwidth_gbs:8.0f} {spec.tdp_w:6.0f} "
                  f"{spec.peak_dp_per_watt:6.2f}")
        return 0
    from repro.kernels.registry import all_kernels

    for k in all_kernels():
        print(f"{k.number:3d}  {k.name:28s} {k.purpose}")
    return 0


def _cmd_model(args) -> int:
    from repro.config import validate_order
    from repro.cpu import get_cpu
    from repro.gpu import get_gpu
    from repro.kernels import FEConfig

    cfg = FEConfig(dim=args.dim, order=validate_order(args.order),
                   nzones=args.zones**args.dim)
    if args.what == "greenup":
        from repro.runtime.hybrid import HybridExecutor

        ex = HybridExecutor(cfg, get_cpu(args.cpu), get_gpu(args.device), nmpi=args.nmpi)
        rep = ex.greenup_report()
        print(rep.row())
        return 0
    if args.what == "profile":
        from repro.analysis.profiles import cpu_profile

        prof = cpu_profile(cfg, get_cpu(args.cpu), steps=100, nmpi=args.nmpi)
        print("method        corner force   CG solver     total")
        print(prof.row())
        return 0
    from repro.cluster import TITAN, weak_scaling

    for pt in weak_scaling(TITAN, [8, 64, 512, 4096]):
        print(f"{pt.nodes:5d} nodes  {pt.time_s:7.3f} s  efficiency {pt.efficiency:5.1%}")
    return 0


def _cmd_tune_campaign(args) -> int:
    """Offline tuning campaign through the unified search engine.

    Searches the space of the three kernel tilings once per FE order
    and per objective, producing the same per-objective cache
    entries the in-band scheduler writes (keyed backend="hybrid"), so
    `repro run --backend hybrid --tuning-cache PATH` warm-starts from a
    campaign run here — for the matching objective only.
    """
    from repro.backends.hybrid import HybridBackend
    from repro.gpu import get_gpu
    from repro.kernels import FEConfig
    from repro.kernels.registry import KernelSelection
    from repro.sched import hybrid_param_space
    from repro.sched.online import BALANCE_KEY, winners_from_candidate
    from repro.tuning import AutoBalancer, TuningCache, run_search

    spec = get_gpu(args.device)
    cache = TuningCache(args.cache)
    objectives = args.objectives or ["time"]
    strategy = args.strategy
    tracer = None
    if args.trace:
        from repro.telemetry import Tracer

        tracer = Tracer()
    from repro.config import validate_order

    orders = [validate_order(int(o)) for o in args.orders.split(",") if o.strip()]
    rows = []
    root = tracer.begin("tune_campaign", category="sched") if tracer else -1
    for order in orders:
        cfg = FEConfig(dim=args.dim, order=order, nzones=args.zones**args.dim)
        harness = HybridBackend.for_pricing(cfg, device=args.device)
        space = hybrid_param_space(cfg, spec)
        for objective in objectives:
            span = (tracer.begin("tuning_campaign", category="sched",
                                 meta={"order": order, "objective": objective,
                                       "strategy": strategy})
                    if tracer else -1)
            result = run_search(space, harness.measure_candidate,
                                objective=objective, strategy=strategy,
                                seed=args.seed)
            winners = winners_from_candidate(result.best)
            for kernel, params in winners.items():
                cache.store(spec, cfg, kernel, params, backend="hybrid",
                            objective=objective)
            if tracer:
                tracer.end(span)
            # Price the tuned split and balance it (Section 3.3).
            harness.apply_selection(KernelSelection.from_winners(winners))
            res = AutoBalancer(harness.gpu_time_s, harness.cpu_time_s).balance()
            if res.converged:
                cache.store(spec, cfg, BALANCE_KEY, {"ratio": res.ratio},
                            backend="hybrid", objective=objective)
            rows.append((order, objective, result, winners, res))
    if tracer:
        tracer.end(root)
        tracer.finish()
        from repro.telemetry import write_chrome_trace

        write_chrome_trace(args.trace, tracer)

    print(f"tuning campaign on {spec.name} "
          f"({args.dim}D, {args.zones}^{args.dim} zones, "
          f"strategy {strategy})")
    print(f"{'method':8s} {'objective':>9} {'k3 mats/blk':>11} "
          f"{'k5 mats/blk':>11} {'k7 cols':>8} "
          f"{'GPU share':>10} {'evaluated':>12} {'converged':>10}")
    for order, objective, result, winners, res in rows:
        evaluated = (f"{result.evaluations}/{result.feasible_points}")
        print(f"Q{order}-Q{order - 1:<4d} {objective:>9} "
              f"{winners['kernel3']['matrices_per_block']:11d} "
              f"{winners['kernel5']['matrices_per_block']:11d} "
              f"{winners['kernel7']['block_cols']:8d} "
              f"{res.ratio:10.2%} {evaluated:>12} "
              f"{'yes' if res.converged else 'no':>10}")
    for order, objective, result, *_ in rows:
        print(f"  Q{order} {objective} winner scored under objective "
              f"'{objective}' ({result.score:.4g} {_objective_unit(objective)}); "
              f"priced {result.evaluations} of {result.feasible_points} "
              f"feasible points ({result.evaluated_fraction:.1%})")
    if args.cache:
        print(f"wrote {len(cache)} entries to {args.cache}")
    if args.trace:
        print(f"wrote {args.trace}")
    return 0


def _objective_unit(objective: str) -> str:
    from repro.tuning import OBJECTIVES

    return OBJECTIVES[objective].unit


def _cmd_tune(args) -> int:
    if args.kernel == "campaign":
        return _cmd_tune_campaign(args)
    from repro.gpu import execute_kernel, get_gpu
    from repro.kernels import FEConfig
    from repro.kernels.registry import TUNING_AXES
    from repro.tuning import Autotuner, ParamSpace
    from repro.tuning.cache import TuningCache

    from repro.config import validate_order

    spec = get_gpu(args.device)
    cfg = FEConfig(dim=args.dim, order=validate_order(args.order),
                   nzones=args.zones**args.dim)
    axis = next(a for a in TUNING_AXES if a.kernel == args.kernel)
    param = axis.param
    space = ParamSpace(**{param: axis.candidates}).constrain(
        lambda c: axis.launchable(cfg, spec, c[param])
    )

    def campaign():
        tuner = Autotuner(
            lambda c: execute_kernel(spec, axis.cost(cfg, c[param])).time_s,
            space, steps_per_period=40, noise_rel=0.02,
        )
        return tuner.tune().best

    cache = TuningCache(args.cache)
    best = cache.get_or_tune(spec, cfg, args.kernel, campaign)
    t = execute_kernel(spec, axis.cost(cfg, best[param]))
    print(f"{args.kernel} on {spec.name} ({cfg.describe()}):")
    print(f"  best {param} = {best[param]}  ->  {t.gflops:.1f} Gflop/s, "
          f"occupancy {t.occupancy.occupancy:.1%}")
    return 0


def _cmd_submit(args) -> int:
    """Write-ahead submission: journal the job, don't run it."""
    import uuid

    from repro.api import RunConfig
    from repro.service import JobJournal, JobSpec

    cfg = RunConfig(
        dim=args.dim, order=args.order, zones=args.zones,
        t_final=args.t_final, max_steps=args.max_steps,
        backend=args.backend,
    )
    spec = JobSpec(
        problem=args.problem, config=cfg, priority=args.priority,
        deadline_s=args.deadline, max_attempts=args.max_attempts,
        job_id=args.job_id or f"job-{uuid.uuid4().hex[:10]}",
    )
    JobJournal(args.journal).append("submit", job=spec.to_dict())
    print(f"journaled {spec.job_id} ({spec.problem}, priority "
          f"{spec.priority}) to {args.journal}")
    return 0


def _cmd_serve(args) -> int:
    """Drain a journal's pending jobs through a `SimulationFleet`."""
    from repro.errors import ConfigError
    from repro.service import FleetConfig, SimulationFleet
    from repro.telemetry import FleetManifest

    if args.workers < 0:
        raise ConfigError("workers must be non-negative")
    if args.strict_journal:
        from repro.service import JobJournal

        # Strict pre-flight: a corrupt line fails the serve up front
        # (typed JournalCorruptionError -> exit code 3 in main) instead
        # of being skipped with a warning during recovery.
        JobJournal(args.journal, strict=True)
    fleet = SimulationFleet(
        FleetConfig(workers=args.workers),
        journal_path=args.journal,
        results_dir=args.results_dir,
        tuning_cache=args.tuning_cache,
    )
    pending = len(fleet.recovered)
    done = sum(1 for h in fleet.recovered if h.done)
    print(f"recovered {pending} pending jobs from {args.journal} "
          f"({done} served from the result store)")
    fleet.drain()
    fleet.shutdown(wait=False)
    manifest = FleetManifest.from_rollup(fleet.rollup())
    print(manifest.summary())
    if args.manifest:
        manifest.write(args.manifest)
        print(f"wrote {args.manifest}")
    failed = fleet.rollup()["jobs"]["failed"]
    return 1 if failed else 0


#: Per-error-type remediation hints, appended to the message the user
#: sees. Keyed by class name so the CLI never imports every subsystem.
_ERROR_HINTS = {
    "TuningCacheCorruptionError":
        "re-run without --strict-tuning-cache to discard the corrupt "
        "cache and retune",
    "JournalCorruptionError":
        "re-run without --strict-journal to skip corrupt lines",
}


def main(argv: list[str] | None = None) -> int:
    """Entry point: parse argv (default sys.argv) and dispatch.

    Typed errors map to exit codes in exactly one place: `ConfigError`
    -> 2, `CorruptionError` -> 3, any other `ReproError` -> 1 (see
    `repro.errors.exit_code_for`). Commands raise; they don't print
    error messages or pick codes themselves.
    """
    from repro.errors import ReproError, exit_code_for

    args = build_parser().parse_args(argv)
    commands = {
        "run": _cmd_run,
        "bench": _cmd_bench,
        "info": _cmd_info,
        "model": _cmd_model,
        "tune": _cmd_tune,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
    }
    try:
        return commands[args.command](args)
    except ReproError as exc:
        hint = _ERROR_HINTS.get(type(exc).__name__)
        print(f"{exc} ({hint})" if hint else str(exc), file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
