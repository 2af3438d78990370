"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload sedov-q2 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in a fresh process of its own session, with one BLAS
thread per process (recorded in the output). With `--trace 0` it prints
the end-to-end metrics -- host-speed corrected, each with its unit,
sample count and raw value -- and with `--trace 1` the per-layer
metrics. The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

Correctness checks run in the same command; the exit code is non-zero
when one fails. After the workload exits this script looks for anything
it left behind -- a live process of its session, a new /dev/shm
segment it created, a file in its temp dir -- removes it, and fails
naming it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hygiene  # noqa: E402

WORKLOADS = ("sedov-q2", "sedov-q2-par2", "triple-pt-r8", "fleet-churn")
#: A workload process is killed after this long (the run limit is 180 s).
TIMEOUT_S = 170.0
#: Thread pools pinned to one thread per process; the parallel workload's
#: two pool workers would otherwise oversubscribe two cores.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
_ADDR_NO_RANDOMIZE = 0x0040000


def _fixed_layout() -> None:
    """In the workload process before exec: turn off address-space
    randomization, so memory layout (and with it cache alignment) does
    not vary from run to run. Best effort; Linux only."""
    try:
        import ctypes

        libc = ctypes.CDLL(None)
        libc.personality(libc.personality(0xFFFFFFFF) | _ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def run_workload(name: str, args, scratch: Path) -> tuple[int, dict | None, list[str]]:
    """Run one workload process; returns (exit code, result, problems)."""
    tmp = scratch / f"{name}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    shm_log = scratch / f"{name}-{os.getpid()}.shm"
    env = dict(os.environ, **PINNED, PERFBENCH_TMP=str(tmp), TMPDIR=str(tmp),
               PERFBENCH_SHM_LOG=str(shm_log), PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    shm_before = hygiene.shm_entries()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True, preexec_fn=_fixed_layout)
    problems = []
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        problems.append(f"{name}: killed after {TIMEOUT_S:g} s")
    lines = out.splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines.pop())
    print("\n".join(lines), flush=True)

    own_shm = set(shm_log.read_text().split()) if shm_log.exists() else set()
    shm_log.unlink(missing_ok=True)
    found = hygiene.leftovers(proc.pid, shm_before, tmp, own_shm)
    hygiene.clean(found)
    for key, what in (("pids", "process still running"), ("shm", "shared-memory segment"),
                      ("paths", "temp file")):
        problems += [f"{name}: left behind {what}: {item}" for item in found[key]]
    for item in found["foreign_shm"]:
        print(f"perfbench: {name}: new /dev/shm entry not created by the workload, "
              f"left alone: {item}", file=sys.stderr)
    shutil.rmtree(tmp, ignore_errors=True)
    return proc.returncode, result, problems


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="Run the repository benchmark.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    hygiene.become_subreaper()
    scratch = ROOT / ".perfbench" / "tmp"
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results, problems, codes = {}, [], []
    for name in names:
        code, result, found = run_workload(name, args, scratch)
        codes.append(code)
        problems += found
        if result is None:
            problems.append(f"{name}: no result (exit code {code})")
        else:
            results[name] = result
    for path in (scratch, scratch.parent):
        try:
            path.rmdir()
        except OSError:
            pass
    for line in problems:
        print(f"perfbench: {line}", file=sys.stderr)
    if not results:
        return codes[-1] or 1
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    if problems:
        summary = dict(summary, correct=False, failed=summary["failed"] + len(problems))
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] and not any(codes) else 1


if __name__ == "__main__":
    sys.exit(main())
