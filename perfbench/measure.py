"""One workload run, in a fresh process started by `run.py`.

Usage (normally through run.py, which adds the environment and the
leftover-process checks):

    python3 perfbench/measure.py --workload W --seed N --seconds S --trace 0|1

Set-up is timed first: one untimed construction finishes lazy imports,
then `SETUP_REPS` constructions are timed and the median reported.
Measurement then runs fixed-size batches (a 100-step solve, or a batch
of jobs) until `--seconds` have passed and at least `MIN_OPS`
operations and one batch were timed with no more than `STOLEN_SHARE`
of their time stolen by the hypervisor. With `--trace 1` every other
batch runs with the layer wrappers installed; the untraced batches in
between give the tracing overhead. The last line of stdout is the JSON
result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import hygiene  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from hostspeed import STOLEN_SHARE, HostProbe, percentile, steal_s, stolen  # noqa: E402
from tracing import NAME, T0, T1, SpanLog, patch  # noqa: E402

#: Timed constructions per run; set-up reports their median.
SETUP_REPS = 41
#: Operations a run must time so its p90 has 10 samples beyond it.
MIN_OPS = 100
#: A run waits at most this long past `--seconds` for clean operations;
#: then no new batch starts, whatever the counts.
MAX_EXTRA_S = 10.0
#: The layer sum may miss the separately timed wall time by this share.
LAYER_SUM_RTOL = 0.01

CONFIG = json.loads((HERE / "config.json").read_text())
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def blas_threads() -> tuple[int | None, str]:
    """Thread count and build string of NumPy's bundled OpenBLAS."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get is not None and config is not None:
                get.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return int(get()), config().decode()
    return None, "unknown"


def child_peak_rss_mb() -> float:
    """Largest peak RSS among this process's children (pool workers)."""
    peak = 0.0
    for pid in hygiene.child_pids():
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                peak = max(peak, int(line.split()[1]) / 1024.0)
    return peak


def stop_resource_tracker() -> None:
    """Stop and reap the tracker `SharedMemory` started; it would
    otherwise outlive this process by a moment."""
    tracker_mod = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(tracker_mod, "_resource_tracker", None)
    if tracker is None or getattr(tracker, "_pid", None) is None:
        return
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()
        return
    os.close(tracker._fd)
    os.waitpid(tracker._pid, 0)
    tracker._fd = tracker._pid = None


def log_shared_memory(path: str):
    """Append the name of every `SharedMemory` segment this process, or
    a fork of it, creates to `path`, so that `run.py` can tell the
    workload's own leftover segments from anyone else's. Returns the
    undo."""
    from multiprocessing import shared_memory

    init = shared_memory.SharedMemory.__init__
    log = open(path, "a", buffering=1)  # line-buffered: each name lands at once

    def __init__(self, name=None, create=False, size=0, **kwargs):
        init(self, name, create, size, **kwargs)
        if create:
            log.write(self.name + "\n")

    return patch(shared_memory.SharedMemory, "__init__", __init__)


def time_setup(wl, probe: HostProbe, log: SpanLog | None) -> tuple[list, list, list]:
    """Wall time and host steal of each construction, and the probe
    index after each."""
    wl.release(wl.construct())
    undos = []
    if log is not None:
        import repro.hydro.solver as solver_mod

        undos = workloads.mass_assembly_patches(log, solver_mod)
    wall, steal, positions = [], [], []
    try:
        for _ in range(SETUP_REPS):
            s0 = steal_s()
            t0 = perf_counter()
            obj = wl.construct()
            t1 = perf_counter()
            steal.append(steal_s() - s0)
            wall.append(t1 - t0)
            positions.append(len(probe.wall))
            probe.sample(2)
            wl.release(obj)
    finally:
        for undo in reversed(undos):
            undo()
    return wall, steal, positions


def corrected(batch, factors) -> tuple[np.ndarray, float]:
    """(corrected op times, corrected batch time)."""
    return np.asarray(batch.op_s) * factors, float((np.asarray(batch.seg_s) * factors).sum())


def op_clean(batch) -> np.ndarray:
    """Mask of the batch's operations whose segments were not stolen from."""
    return ~stolen(batch.seg_steal, batch.seg_s)


def batch_clean(batch) -> bool:
    return not stolen(sum(batch.seg_steal), sum(batch.seg_s))


def clean_or_all(items, mask, least: int = 1) -> list:
    """The items the mask keeps; all of them when it keeps fewer than
    `least` (for percentiles, the samples a p90 needs)."""
    kept = [x for x, ok in zip(items, mask) if ok]
    return kept if len(kept) >= least else list(items)


class Run:
    """Everything one workload run measured."""

    def __init__(self, args):
        self.args = args
        self.nominal_s = CONFIG["nominal_ref_ms"] / 1e3
        self.tmp_root = os.environ.get("PERFBENCH_TMP") or str(HERE.parent / ".perfbench" / "tmp")
        Path(self.tmp_root).mkdir(parents=True, exist_ok=True)
        self.wl = workloads.make(args.workload, args.seed, self.tmp_root)
        self.log = SpanLog() if args.trace else None
        self.batches = []
        self.failures: list[str] = []
        self.checks = 0

    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(what)

    def measure(self, probe: HostProbe) -> None:
        args, wl = self.args, self.wl
        self.setup_wall, self.setup_steal, self.setup_pos = time_setup(wl, probe, self.log)
        wl.start()
        self.fleet_before = wl.fleet.rollup()["jobs"] if wl.kind == "fleet" else None
        t_start = perf_counter()
        clean_ops = clean_batches = 0
        while True:
            elapsed = perf_counter() - t_start
            enough = elapsed >= args.seconds and clean_ops >= MIN_OPS and clean_batches >= 1
            if args.trace:
                enough = elapsed >= args.seconds and len(self.batches) >= 2
            if enough or (elapsed > args.seconds + MAX_EXTRA_S and self.batches):
                break
            traced = bool(args.trace) and len(self.batches) % 2 == 1
            batch = wl.run_batch(probe, self.log if traced else None)
            self.batches.append(batch)
            clean_ops += int(op_clean(batch).sum())
            clean_batches += batch_clean(batch)
        if wl.kind == "fleet":
            self.fleet_after = wl.fleet.rollup()["jobs"]
        self.arena = wl.arena_stats()
        # Read before the checks: the fleet's re-run check builds more.
        self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.child_rss_mb = child_peak_rss_mb()
        self.verify()

    def verify(self) -> None:
        wl = self.wl
        if wl.kind == "fleet":
            reruns = wl.rerun_repeated()
            self.checks += len(wl.jobs) + len(reruns)
            self.failures.extend(checks.fleet_failures(wl.jobs, wl.results, reruns))
            return
        ref = checks.load_reference(wl.reference)
        for i, b in enumerate(self.batches):
            d = b.detail
            self.check(b.steps == workloads.STEPS_PER_SOLVE,
                       f"solve {i}: {b.steps} steps, expected {workloads.STEPS_PER_SOLVE}")
            self.check(checks.energy_ok(*d["energy"]),
                       f"solve {i}: energy changed by {d['energy'][1] - d['energy'][0]:.3e}")
            err = checks.state_error(d["state"], ref)
            self.check(err <= checks.STATE_RTOL,
                       f"solve {i}: final state differs from reference '{wl.reference}' "
                       f"by {err:.3e} (tolerance {checks.STATE_RTOL:g})")
            if "traffic" in d:
                self.check(checks.traffic_ok(d["traffic"]),
                           f"solve {i}: per-rank traffic {d['traffic']} != totals")

    # -- metrics ---------------------------------------------------------------

    def factors(self, probe: HostProbe, batch) -> np.ndarray:
        return probe.factors(batch.positions, self.nominal_s)

    def end_to_end(self, probe: HostProbe) -> tuple[dict, list[str]]:
        untraced = [b for b in self.batches if not b.traced]
        setup_wall = np.asarray(self.setup_wall)
        setup_ok = ~stolen(self.setup_steal, setup_wall)
        setup = clean_or_all(setup_wall * probe.factors(self.setup_pos, self.nominal_s), setup_ok)
        setup_raw = clean_or_all(setup_wall, setup_ok)
        fixed = [corrected(b, self.factors(probe, b)) for b in untraced]
        ok = np.concatenate([op_clean(b) for b in untraced])
        ops = clean_or_all(np.concatenate([f[0] for f in fixed]), ok, MIN_OPS)
        raw_ops = clean_or_all(np.concatenate([b.op_s for b in untraced]), ok, MIN_OPS)
        batch_ok = [batch_clean(b) for b in untraced]
        solves = clean_or_all([f[1] for f in fixed], batch_ok)
        raw_solves = clean_or_all([sum(b.seg_s) for b in untraced], batch_ok)
        # Every step (or job) of every untraced batch is one sample.
        p50, n = percentile(ops, 50)
        p90, _ = percentile(ops, 90)
        rss = self.rss_mb
        metrics = {
            "setup_s": (statistics.median(setup), "s", len(setup),
                        statistics.median(setup_raw), int((~setup_ok).sum())),
            "solve_s": (statistics.median(solves), "s", len(solves),
                        statistics.median(raw_solves), batch_ok.count(False)),
            "op_p50_ms": (1e3 * p50, "ms", n, 1e3 * percentile(raw_ops, 50)[0],
                          int((~ok).sum())),
            "op_p90_ms": (1e3 * p90, "ms", n, 1e3 * percentile(raw_ops, 90)[0],
                          int((~ok).sum())),
            "peak_rss_mb": (rss, "MiB", 1, rss, 0),
        }
        names = {"op_p50_ms": "step_p50_ms", "op_p90_ms": "step_p90_ms"}
        if self.wl.kind == "fleet":
            names = {"op_p50_ms": "job_p50_ms", "op_p90_ms": "job_p90_ms"}
        lines = ["  (value: wall clock, host-speed corrected; raw: wall clock, uncorrected;"
                 f" n: samples used; stolen: samples with over {STOLEN_SHARE:.0%} host steal,"
                 " dropped)"]
        for key, (value, unit, count, raw, dropped) in metrics.items():
            shown = names.get(key, key)
            lines.append(f"  {shown:<14} {value:>12.5f} {unit:<4} n={count:<5} raw {raw:.5f}"
                         f"  stolen {dropped}" + (f"   (json: {key})" if shown != key else ""))
        if self.wl.kind == "fleet":
            jobs = workloads.JOBS_PER_BATCH
            lines.append(f"  {'jobs_per_s':<14} {jobs / metrics['solve_s'][0]:>12.5f} 1/s  "
                         f"n={len(solves):<5} raw {jobs / metrics['solve_s'][3]:.5f}"
                         f"   ({jobs}-job batch / solve_s)")
        return {k: (v[0], v[1]) for k, v in metrics.items()}, lines

    def per_layer(self, probe: HostProbe) -> tuple[dict, list[str]]:
        wl, log = self.wl, self.log
        traced = [b for b in self.batches if b.traced]
        untraced = [b for b in self.batches if not b.traced]
        steps = sum(b.steps for b in traced)
        if wl.kind == "fleet":
            jobs = [j for b in traced for j in b.detail["jobs"]]
            m, residual = layers.fleet_layers(log, jobs, steps, wl.counters)
            self.check(residual >= -1e-3, f"fleet layers exceed a job's wall time by {-residual:.4f} ms")
            fc = wl.fleet_counters
            before, after = self.fleet_before, self.fleet_after
            executed = ((after["completed"] - after["cached"])
                        - (before["completed"] - before["cached"]))
            m["warm.hit_ratio"] = (after["warm_hits"] - before["warm_hits"]) / max(executed, 1)
            m["journal.records_per_job"] = fc.appends / max(len(jobs), 1)
            m["results.gets_per_job"] = fc.gets / max(len(jobs), 1)
            m["results.hit_ratio"] = fc.hits / max(fc.gets, 1)
            service = sum(m[k] for k in ("admit.ms_per_job", "queue.wait_ms_per_job",
                                         "journal.append_ms_per_job", "results.put_ms_per_job",
                                         "results.get_ms_per_job"))
            sum_line = (f"  layers per job: {m['run.wall_ms'] - m['run.unattributed_ms']:.4f} ms"
                        f" + unattributed {m['run.unattributed_ms']:.4f} ms"
                        f" = wall {m['run.wall_ms']:.4f} ms (smallest remainder {residual:.4f} ms)"
                        f"\n  shares of job time: service layers {service / m['run.wall_ms']:.1%},"
                        f" cold build {m['build.ms_per_job'] / m['run.wall_ms']:.1%},"
                        f" solve {m['solve.ms_per_job'] / m['run.wall_ms']:.1%}")
        else:
            m = layers.solver_layers(log, steps, wl.counters)
            # Timed by the operation timer, apart from the spans.
            m["run.wall_ms"] = 1e3 * sum(sum(b.seg_s) for b in traced) / max(steps, 1)
            layer_sum = layers.layer_sum_ms(m)
            miss = layer_sum - m["run.wall_ms"]
            self.check(abs(miss) <= LAYER_SUM_RTOL * m["run.wall_ms"],
                       f"solver layers miss the timed wall time by {miss:.4f} ms per step")
            sum_line = (f"  layers per step: {layer_sum - m['run.unattributed_ms']:.4f} ms"
                        f" + unattributed {m['run.unattributed_ms']:.4f} ms"
                        f" = {layer_sum:.4f} ms; timed wall {m['run.wall_ms']:.4f} ms"
                        f" (off by {miss:+.4f} ms, allowed {LAYER_SUM_RTOL:.0%})")
        per = 1.0 / max(steps, 1)
        pool = [b.detail["pool"] for b in traced if "pool" in b.detail]
        m["pool.dispatches_per_step"] = sum(p["dispatches"] for p in pool) * per
        m["pool.wait_ms_per_step"] = 1e3 * sum(p["dispatch_s"] for p in pool) * per
        m["pool.child_peak_rss_mb"] = self.child_rss_mb
        traffic = [b.detail["traffic"] for b in traced if "traffic" in b.detail]
        for key in ("messages", "bytes", "reductions"):
            m[f"comm.{key}_per_step"] = sum(t[key] for t in traffic) * per
        m["arena.high_water_mb"] = self.arena["high_water_bytes"] / 2**20
        m["arena.allocations"] = self.arena["block_allocations"]
        m["arena.leases"] = self.arena["block_allocations"] + self.arena["block_reuses"]
        assembly = [s[T1] - s[T0] for s in log.spans if s[NAME] == "mass_assembly"]
        m["setup.mass_assembly_ms"] = 1e3 * sum(assembly) / max(len(assembly) / 2, 1)
        m["host.ref_ms"] = probe.median_ms()
        m["host.ref_dropped"] = probe.dropped
        m["host.stolen_dropped"] = (int(stolen(self.setup_steal, self.setup_wall).sum())
                                    + sum(int((~op_clean(b)).sum()) for b in self.batches))

        def batch_times(bs):
            return clean_or_all([corrected(b, self.factors(probe, b))[1] for b in bs],
                                [batch_clean(b) for b in bs])

        plain = statistics.median(batch_times(untraced))
        m["trace.overhead_pct"] = 100.0 * (statistics.median(batch_times(traced)) - plain) / plain
        # Every workload reports every layer; one it never enters reads 0.
        out = {e["name"]: (float(m.get(e["name"], 0.0)), e["unit"]) for e in BENCH["per_layer"]}
        if set(m) - set(out):
            raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(set(m) - set(out))}")
        lines = [f"  {k:<26} {v:>14.5f} {u}" for k, (v, u) in out.items()]
        lines.append(sum_line)
        return out, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    threads, blas = blas_threads()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} blas_threads={threads} ({blas}) gc={gc.isenabled()}", flush=True)
    if os.environ.get("PERFBENCH_SHM_LOG"):
        log_shared_memory(os.environ["PERFBENCH_SHM_LOG"])
    run = Run(args)
    probe = HostProbe()
    try:
        run.measure(probe)
    finally:
        run.wl.close()
        probe.close()
        stop_resource_tracker()
    if args.trace:
        metrics, lines = run.per_layer(probe)
        out = HERE.parent / ".perfbench" / "traces"
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"{args.workload}-seed{args.seed}.spans.jsonl.gz"
        run.log.write(path)
        lines.append(f"  spans: {len(run.log.spans)} written to {path}")
    else:
        metrics, lines = run.end_to_end(probe)
    print("\n".join(lines))
    n_samples = len(probe.wall)
    print(f"  host: reference {probe.median_ms():.4f} ms median (nominal "
          f"{CONFIG['nominal_ref_ms']:.4f}), {probe.dropped} of {n_samples} samples "
          f"dropped as contended")
    print(f"  checks: {run.checks - len(run.failures)} passed, {len(run.failures)} failed")
    for line in run.failures:
        print(f"  FAILED {line}")
    attempted = sum(len(b.op_s) for b in run.batches)
    result = {
        "correct": not run.failures,
        "attempted": attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
