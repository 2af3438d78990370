"""Communication/computation overlap: the distributed backend's knob.

The paper's MPI layer (Section 3.4) exchanges interface-dof force
contributions between the two corner-force phases; an implementation
that posts the exchange nonblocking and evaluates interior zones while
it is in flight hides the transfer behind compute. The distributed
backend reproduces that trade as a pure *pricing* knob: `overlap=on`
and `overlap=off` execute the same arithmetic in the same order
(states are bitwise identical), but the `CommLedger` settles the
modeled transfer time against the wall-clock window it was in flight.

This bench makes the run communication-bound (a slow alpha-beta
network under a small mesh), runs the same march both ways, and
reports the modeled step time

    modeled = wall + ledger.exposed_s

which `overlap=on` must strictly reduce. Every run appends to
BENCH_comm_overlap.json so the overlap win has a trajectory to regress
against (`--json PATH` appends to another file instead).
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

import numpy as np

try:
    import repro  # noqa: F401
except ImportError:  # running from a source checkout without PYTHONPATH=src
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import RunConfig
from repro.backends import DistributedBackend
from repro.hydro.solver import LagrangianHydroSolver
from repro.problems import SedovProblem
from repro.runtime.mpi_sim import CommCostModel

#: A slow interconnect (5 ms latency, ~1 MB/s-ish beta) under a small
#: mesh: per-step comm cost far exceeds per-step compute, so whatever
#: the overlap hides is visible in the modeled total.
SLOW_NETWORK = CommCostModel(alpha_s=5e-3, beta_s_per_byte=1e-6)

RANKS = 2
STEPS = 8
ZONES = 6


def _march(overlap: bool) -> dict:
    backend = DistributedBackend(
        RANKS, overlap=overlap, cost_model=SLOW_NETWORK
    )
    solver = LagrangianHydroSolver(
        SedovProblem(dim=2, order=2, zones_per_dim=ZONES),
        RunConfig(),
        backend=backend,
    )
    t0 = time.perf_counter()
    result = solver.run(max_steps=STEPS)
    wall_s = time.perf_counter() - t0
    ledger = backend.comm.ledger
    traffic = backend.comm.traffic
    # The only *overlappable* comm is the interface-dof exchange (one
    # nonblocking sum per corner-force evaluation); the PCG's blocking
    # reductions are exposed in both modes, so the hidden time is best
    # read against the exchange total, not the whole comm bill.
    iface_bytes = backend._iface_dofs.size * solver.kinematic.dim * 8
    exchange_s = (
        result.workload.force_evals
        * SLOW_NETWORK.allreduce_time(backend.nranks, iface_bytes)
    )
    out = {
        "overlap": overlap,
        "steps": result.steps,
        "wall_s": wall_s,
        "comm_total_s": ledger.total_s,
        "comm_hidden_s": ledger.hidden_s,
        "comm_exposed_s": ledger.exposed_s,
        "exchange_s": exchange_s,
        "modeled_s": wall_s + ledger.exposed_s,
        "modeled_ms_per_step": (wall_s + ledger.exposed_s) / result.steps * 1e3,
        "messages": traffic.messages,
        "bytes": traffic.bytes,
        "state": result.state,
    }
    solver.close()
    return out


def compute() -> dict:
    on = _march(overlap=True)
    off = _march(overlap=False)
    # The knob is pricing-only: the physics must be bitwise identical
    # and the traffic unchanged.
    assert np.array_equal(on["state"].v, off["state"].v)
    assert np.array_equal(on["state"].e, off["state"].e)
    assert np.array_equal(on["state"].x, off["state"].x)
    assert on["bytes"] == off["bytes"] and on["messages"] == off["messages"]
    for row in (on, off):
        del row["state"]
    return {
        "ranks": RANKS,
        "steps": STEPS,
        "zones_per_dim": ZONES,
        "alpha_s": SLOW_NETWORK.alpha_s,
        "beta_s_per_byte": SLOW_NETWORK.beta_s_per_byte,
        "on": on,
        "off": off,
        "modeled_speedup": off["modeled_s"] / on["modeled_s"],
        "hidden_exchange_fraction": (
            (on["comm_hidden_s"] - off["comm_hidden_s"]) / on["exchange_s"]
        ),
    }


def _append_record(d: dict, path: Path | None = None) -> Path:
    from repro.analysis.record import append_bench_record

    return append_bench_record(d, path or _default_json_path())


def _default_json_path() -> Path:
    root = Path(__file__).resolve().parent.parent
    return root / "BENCH_comm_overlap.json"


def run(json_path=None) -> dict:
    d = compute()
    print(f"comm/compute overlap (sedov {ZONES}x{ZONES} Q2, "
          f"{RANKS} ranks, {STEPS} steps, "
          f"alpha {d['alpha_s'] * 1e3:.0f} ms)")
    print(f"{'mode':12s} {'wall ms/st':>10} {'comm ms':>9} {'hidden ms':>10} "
          f"{'exposed ms':>10} {'modeled ms/st':>13}")
    for label, row in (("overlap on", d["on"]), ("overlap off", d["off"])):
        print(f"{label:12s} {row['wall_s'] / row['steps'] * 1e3:10.2f} "
              f"{row['comm_total_s'] * 1e3:9.1f} "
              f"{row['comm_hidden_s'] * 1e3:10.1f} "
              f"{row['comm_exposed_s'] * 1e3:10.1f} "
              f"{row['modeled_ms_per_step']:13.2f}")
    saved_ms = (d["off"]["modeled_s"] - d["on"]["modeled_s"]) * 1e3
    print(f"overlap saves {saved_ms:.1f} ms modeled "
          f"({d['hidden_exchange_fraction']:.0%} of the interface exchange "
          f"hidden under interior zones); physics bitwise identical")
    path = _append_record(d, Path(json_path) if json_path else None)
    print(f"appended record to {path}")
    return d


def test_comm_overlap(benchmark):
    d = benchmark.pedantic(compute, rounds=1, iterations=1)
    # Same modeled comm volume both ways; overlap hides some of it.
    assert d["on"]["comm_total_s"] > 0
    assert abs(d["on"]["comm_total_s"] - d["off"]["comm_total_s"]) < 1e-12
    assert d["on"]["comm_hidden_s"] > d["off"]["comm_hidden_s"]
    # The headline: overlap=on strictly reduces the modeled step time on
    # a communication-bound configuration.
    assert d["on"]["modeled_s"] < d["off"]["modeled_s"]


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--json", default=None,
                    help="override BENCH_comm_overlap.json path")
    run(json_path=ap.parse_args().json)
