"""`RunManifest`: the machine-readable summary of one solver run.

One JSON-serializable record tying together what the run was (problem +
`RunConfig`), what it did (steps, energy conservation, workload
counters), where the wall time went (phase table), where the joules
went (per-phase energy from the `CounterSampler`), and what resilience
machinery fired (the `RecoveryReport`). `repro run --json` prints it,
`repro.api.run` returns it on every `RunReport`, and benchmark /
EXPERIMENTS.md generation consumes it instead of re-deriving ad-hoc
summaries per script.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field

__all__ = ["RunManifest", "FleetManifest"]


@dataclass
class RunManifest:
    """Structured summary of a run (see module docstring)."""

    problem: str
    config: dict
    steps: int
    t_final: float
    reached_t_final: bool
    energy_initial: float
    energy_final: float
    energy_drift: float
    workload: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict)
    energy: dict | None = None
    recovery: dict | None = None
    telemetry: dict | None = None
    solver: dict = field(default_factory=dict)
    version: str = ""
    timestamp: str = ""

    @classmethod
    def from_run(
        cls,
        problem,
        config,
        result,
        recovery=None,
        tracer=None,
        sampler=None,
        solver_info: dict | None = None,
    ) -> "RunManifest":
        """Assemble the manifest from run artifacts.

        `config` is a `RunConfig` (or dict), `result` a `RunResult`,
        `recovery` an optional `RecoveryReport`, `tracer`/`sampler` the
        optional telemetry pair.
        """
        from repro.version import __version__

        e0 = result.energy_history[0]
        e1 = result.energy_history[-1]
        cfg_dict = (
            dataclasses.asdict(config)
            if dataclasses.is_dataclass(config)
            else dict(config or {})
        )
        workload = dataclasses.asdict(result.workload)
        energy = None
        telemetry = None
        if tracer is not None and tracer.enabled:
            by_span = tracer.leaf_energy_table()
            attributed = sum(r["cpu_j"] + r["gpu_j"] for r in by_span.values())
            phase_energy = {}
            for name, row in tracer.phase_table(category="phase").items():
                if name in ("force", "cg"):
                    phase_energy[name] = row["cpu_j"] + row["gpu_j"]
            phase_energy["other"] = attributed - sum(phase_energy.values())
            energy = {
                "by_span_j": by_span,
                "phases_j": phase_energy,
                "attributed_j": attributed,
            }
            if sampler is not None:
                energy["cpu_j"] = sampler.cpu_energy_j
                energy["gpu_j"] = sampler.gpu_energy_j
                energy["total_j"] = sampler.total_energy_j
                # Idle joules metered while no span was open (setup,
                # teardown) — total_j == attributed_j + unattributed_j.
                energy["unattributed_j"] = sampler.total_energy_j - attributed
                telemetry = sampler.describe()
                telemetry["events"] = len(tracer.events)
        recovery_dict = None
        if recovery is not None:
            recovery_dict = dataclasses.asdict(recovery)
        return cls(
            problem=getattr(problem, "name", str(problem)),
            config=cfg_dict,
            steps=result.steps,
            t_final=float(result.state.t),
            reached_t_final=bool(result.reached_t_final),
            energy_initial=float(e0.total),
            energy_final=float(e1.total),
            energy_drift=float(e1.total - e0.total),
            workload=workload,
            phases=result.workload.phase_table(),
            energy=energy,
            recovery=recovery_dict,
            telemetry=telemetry,
            solver=solver_info or {},
            version=__version__,
            timestamp=time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        )

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-serializable)."""
        return dataclasses.asdict(self)

    def to_json(self, indent: int | None = 2) -> str:
        """JSON rendering — what `repro run --json` prints."""
        return json.dumps(self.to_dict(), indent=indent, default=float)

    def summary(self) -> str:
        """Short human-readable digest."""
        lines = [
            f"{self.problem}: {self.steps} steps to t={self.t_final:g} "
            f"({'complete' if self.reached_t_final else 'stopped early'})",
            f"energy drift {self.energy_drift:+.3e}",
        ]
        if self.phases:
            top = sorted(
                self.phases.items(), key=lambda kv: -kv[1].get("seconds", 0.0)
            )[:4]
            lines.append(
                "phases: "
                + "  ".join(f"{k} {v['seconds']:.3f}s" for k, v in top)
            )
        if self.energy is not None:
            ph = self.energy.get("phases_j", {})
            lines.append(
                "energy: "
                + "  ".join(f"{k} {v:.1f}J" for k, v in ph.items())
                + f"  (total {self.energy.get('total_j', self.energy['attributed_j']):.1f}J)"
            )
        if self.recovery:
            lines.append(
                f"recovery: {len(self.recovery.get('faults', []))} faults, "
                f"{self.recovery.get('rollbacks', 0)} rollbacks"
            )
        return "\n".join(lines)


@dataclass
class FleetManifest:
    """Fleet-wide telemetry rollup from `repro.service`.

    The service-level counterpart of `RunManifest`: where a run
    manifest describes one solve, the fleet manifest aggregates a whole
    job population — throughput (jobs/s), latency percentiles, joules
    per metered job, and the robustness counters (shed / retried /
    degraded / cached / recovered) plus per-backend breaker histories.
    Built from `SimulationFleet.rollup()` and exported on the same
    JSON manifest path telemetry uses for runs.
    """

    jobs: dict = field(default_factory=dict)
    throughput_jobs_per_s: float = 0.0
    latency_s: dict = field(default_factory=dict)
    energy: dict = field(default_factory=dict)
    tuning: dict = field(default_factory=dict)
    breakers: dict = field(default_factory=dict)
    queue: dict = field(default_factory=dict)
    arena: dict = field(default_factory=dict)
    results_cached: int = 0
    version: str = ""
    timestamp: str = ""

    @classmethod
    def from_rollup(cls, rollup: dict) -> "FleetManifest":
        from repro.version import __version__

        known = {f.name for f in dataclasses.fields(cls)}
        return cls(
            **{k: v for k, v in rollup.items() if k in known},
            version=__version__,
            timestamp=time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=float)

    def write(self, path) -> None:
        """Atomically write the manifest JSON (temp + `os.replace`)."""
        import os
        from pathlib import Path

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.tmp")
        try:
            tmp.write_text(self.to_json() + "\n", encoding="utf-8")
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    def summary(self) -> str:
        """Short human-readable digest (what `repro serve` prints)."""
        j = self.jobs
        lat = self.latency_s
        lines = [
            f"fleet: {j.get('completed', 0)}/{j.get('submitted', 0)} jobs "
            f"completed at {self.throughput_jobs_per_s:.2f} jobs/s "
            f"(p50 {lat.get('p50', 0.0):.3f}s, p99 {lat.get('p99', 0.0):.3f}s)",
            f"robustness: {j.get('shed', 0)} shed, {j.get('retries', 0)} "
            f"retries, {j.get('timeouts', 0)} timeouts, "
            f"{j.get('degraded', 0)} degraded, {j.get('cached', 0)} cached, "
            f"{j.get('recovered', 0)} recovered",
        ]
        if self.energy.get("metered_jobs"):
            lines.append(
                f"energy: {self.energy['joules_per_job']:.1f} J/job over "
                f"{self.energy['metered_jobs']} metered jobs"
            )
        if self.tuning.get("campaigns") or self.tuning.get("warm_starts"):
            last = self.tuning.get("last") or {}
            lines.append(
                f"tuning: {self.tuning.get('campaigns', 0)} campaigns, "
                f"{self.tuning.get('warm_starts', 0)} warm starts"
                + (
                    f" (last: {last.get('objective')}/{last.get('strategy')}, "
                    f"{last.get('evaluations')} evaluations)"
                    if last else ""
                )
            )
        for name, br in self.breakers.items():
            lines.append(
                f"breaker[{name}]: {br['state']} "
                f"({len(br.get('transitions', []))} transitions)"
            )
        return "\n".join(lines)
