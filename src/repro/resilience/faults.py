"""Deterministic fault injection for the simulated hybrid runtime.

The paper motivates the CPU-GPU redesign with fault tolerance
("Applications are more fault tolerant and runs faster, since the
frequency of checking points can be reduced") — which only means
something if the runtime can actually fail. This module provides the
failure side of that bargain: a seeded `FaultInjector` whose schedule
deterministically raises simulated GPU ECC/kernel aborts, PCIe transfer
failures and MPI rank deaths at instrumented sites across `gpu/` and
`runtime/`, and corrupts the hydro state (NaN or blow-up) so the
watchdog/rollback machinery in `repro.resilience` has real faults to
recover from.

Fault kinds and their injection sites:

==========  ==========================================  ==================
kind        site (who calls ``check``)                  exception
==========  ==========================================  ==================
``gpu``     `execute_kernel` via `SimulatedGPU`         `GPUKernelFault`
``pcie``    `PCIeModel.transfer_time_s`                 `PCIeTransferFault`
``rank``    `SimulatedComm` collectives                 `RankFailure`
``state``   `FaultInjector.corrupt_state` (the driver)  *silent corruption*
==========  ==========================================  ==================
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "InjectedFault",
    "GPUKernelFault",
    "PCIeTransferFault",
    "RankFailure",
    "FaultSpec",
    "FaultRecord",
    "FaultInjector",
    "parse_fault_specs",
    "FAULT_KINDS",
]

FAULT_KINDS = ("gpu", "pcie", "rank", "state")

_STATE_MODES = ("nan", "blowup")


class InjectedFault(RuntimeError):
    """Base class for every simulated failure raised by the injector."""

    kind = "fault"

    def __init__(self, message: str, *, occurrence: int = 0, detail: str | None = None,
                 sticky: bool = False):
        super().__init__(message)
        self.occurrence = occurrence
        self.detail = detail
        self.sticky = sticky


class GPUKernelFault(InjectedFault):
    """A kernel aborted on the device (uncorrectable ECC, launch fault)."""

    kind = "gpu"


class PCIeTransferFault(InjectedFault):
    """A host<->device transfer failed on the PCIe link."""

    kind = "pcie"


class RankFailure(InjectedFault):
    """A simulated MPI rank died inside a collective."""

    kind = "rank"

    def __init__(self, message: str, *, rank: int = 0, **kw):
        super().__init__(message, **kw)
        self.rank = rank


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    kind : one of `FAULT_KINDS`.
    at : 1-based occurrence of the matching site call at which the fault
        fires (for ``state`` faults: the 1-based step index).
    target : optional filter — a kernel-name prefix for ``gpu`` faults,
        the failing rank for ``rank`` faults, the corruption mode
        ("nan" or "blowup") for ``state`` faults.
    sticky : keep failing every matching call from `at` on (a dead
        device / permanently lost rank rather than a transient).
    """

    kind: str
    at: int
    target: str | int | None = None
    sticky: bool = False

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind '{self.kind}' (choose from {FAULT_KINDS})")
        if self.at < 1:
            raise ValueError("fault occurrence index is 1-based")
        if self.kind == "state" and self.target is not None and self.target not in _STATE_MODES:
            raise ValueError(f"state fault mode must be one of {_STATE_MODES}")


@dataclass(frozen=True)
class FaultRecord:
    """One fault that actually fired."""

    kind: str
    occurrence: int
    detail: str | None = None
    sticky: bool = False


_EXC = {"gpu": GPUKernelFault, "pcie": PCIeTransferFault, "rank": RankFailure}


def parse_fault_specs(text: str) -> tuple[FaultSpec, ...]:
    """Parse a CLI schedule like ``"gpu:3,state:12:blowup,rank:2:1"``.

    Entries are comma-separated ``kind:at[:extra][!]``; the optional
    ``extra`` is the kernel-name prefix (gpu), failing rank (rank) or
    corruption mode (state), and a trailing ``!`` makes the fault sticky.
    """
    specs = []
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            continue
        sticky = entry.endswith("!")
        if sticky:
            entry = entry[:-1]
        parts = entry.split(":")
        if len(parts) < 2:
            raise ValueError(f"fault spec '{entry}' must look like kind:occurrence[:extra]")
        kind = parts[0].strip()
        try:
            at = int(parts[1])
        except ValueError:
            raise ValueError(f"fault spec '{entry}': occurrence must be an integer") from None
        target: str | int | None = None
        if len(parts) > 2 and parts[2]:
            target = int(parts[2]) if kind == "rank" else parts[2]
        specs.append(FaultSpec(kind=kind, at=at, target=target, sticky=sticky))
    return tuple(specs)


class FaultInjector:
    """Seeded, deterministic fault source shared by every instrumented site.

    Two scheduling mechanisms compose:

    * an explicit `schedule` of `FaultSpec`s — each spec privately counts
      the site calls that match its filter and fires exactly at its
      `at`-th one (every one from `at` on when sticky);
    * optional Poisson-like `rates` (kind -> probability per call) drawn
      from the seeded generator, for soak-style experiments.

    The injector never rolls its counters back: a replayed step sees a
    fault-free world, exactly like a real retry after a transient.
    """

    def __init__(self, schedule: tuple[FaultSpec, ...] | list[FaultSpec] = (),
                 seed: int = 0, rates: dict[str, float] | None = None):
        self.schedule = tuple(schedule)
        self.rates = dict(rates or {})
        for kind, rate in self.rates.items():
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind '{kind}' in rates")
            if not (0.0 <= rate <= 1.0):
                raise ValueError("fault rates must be probabilities")
        self.rng = np.random.default_rng(seed)
        self.calls: dict[str, int] = {}
        self.fired: list[FaultRecord] = []
        self._spec_calls = [0] * len(self.schedule)
        self._spec_done = [False] * len(self.schedule)

    # -- Site API ---------------------------------------------------------------

    def check(self, kind: str, detail: str | None = None) -> None:
        """Called by an instrumented site; raises if a fault is due."""
        if kind not in _EXC:
            raise ValueError(f"'{kind}' is not a raisable fault kind")
        self.calls[kind] = self.calls.get(kind, 0) + 1
        for i, spec in enumerate(self.schedule):
            if spec.kind != kind or self._spec_done[i]:
                continue
            if spec.kind == "gpu" and isinstance(spec.target, str) and detail is not None \
                    and not detail.startswith(spec.target):
                continue
            self._spec_calls[i] += 1
            n = self._spec_calls[i]
            if n == spec.at or (spec.sticky and n > spec.at):
                if not spec.sticky:
                    self._spec_done[i] = True
                self._raise(spec, n, detail)
        rate = self.rates.get(kind, 0.0)
        if rate and self.rng.random() < rate:
            self._raise(FaultSpec(kind, max(self.calls[kind], 1)), self.calls[kind], detail)

    def _raise(self, spec: FaultSpec, occurrence: int, detail: str | None):
        rec = FaultRecord(spec.kind, occurrence, detail, spec.sticky)
        self.fired.append(rec)
        exc = _EXC[spec.kind]
        msg = f"injected {spec.kind} fault at occurrence {occurrence}"
        if detail:
            msg += f" ({detail})"
        if spec.kind == "rank":
            rank = int(spec.target) if spec.target is not None else 0
            raise exc(msg + f": rank {rank} died", rank=rank,
                      occurrence=occurrence, detail=detail, sticky=spec.sticky)
        raise exc(msg, occurrence=occurrence, detail=detail, sticky=spec.sticky)

    # -- Silent data corruption ---------------------------------------------------

    def corrupt_state(self, state, step: int) -> str | None:
        """Apply any ``state`` fault scheduled for 1-based step `step`.

        Mutates the state's arrays in place (NaN poke or energy blow-up)
        and returns a description, or None when nothing was due. The
        corruption is *silent* — detection is the watchdog's job. A
        sticky state fault re-corrupts every time the run passes `at`
        again (i.e. after every rollback), modeling a persistent source
        of corruption that no amount of replay can outrun.
        """
        for i, spec in enumerate(self.schedule):
            if spec.kind != "state" or self._spec_done[i]:
                continue
            if spec.at != step:
                continue
            if not spec.sticky:
                self._spec_done[i] = True
            mode = spec.target or "nan"
            if mode == "nan":
                state.v[0, 0] = np.nan
                desc = "NaN poked into v[0,0]"
            else:
                state.e *= 1e12
                desc = "internal energy blown up by 1e12"
            self.fired.append(FaultRecord("state", step, desc, spec.sticky))
            return desc
        return None

    # -- Introspection -------------------------------------------------------------

    @property
    def faults_fired(self) -> int:
        return len(self.fired)

    def describe(self) -> str:
        if not self.fired:
            return "no faults fired"
        return "; ".join(
            f"{r.kind}@{r.occurrence}" + (f" [{r.detail}]" if r.detail else "")
            for r in self.fired
        )
