"""`DistributedBackend`: the simulated-MPI layer as an execution backend.

The paper's Section 3.4 claim is that the MPI level and the CPU/GPU
corner-force level are independent, composable layers. This module is
that composition for the repro: `RunConfig(ranks=N, backend=<any>)`
builds one ordinary `LagrangianHydroSolver` whose backend is a
`DistributedBackend` holding one *node* backend (cpu-fused /
cpu-sumfact / cpu-parallel / hybrid) that evaluates every rank's
zones. The solver's time loop, integrator, telemetry and
resilience hooks are all the standard ones — the distributed layer only
changes how the corner force is evaluated and how the mass operator is
applied, and it does both with stacked array operations over the rank
axis, so the functional layer steps O(100-1000) simulated ranks in
seconds and reproduces the paper's Figs 12-13 weak/strong curves
measured, not just modeled:

- corner forces: every rank's zones are split into *interface* zones
  (touching shared dofs) and *interior* zones. All ranks' interface
  zones form one rank-major zone subset, and all interior zones
  another, each prepared once per partition and evaluated by the
  node engine's fused zone-subset entry (`ForceEngine.compute_subset`,
  whatever the node's flavour). The interface phase's per-rank
  partials land in a (nranks, n_iface, dim) stack via `np.bincount`
  and are exchanged through one nonblocking `iallreduce_sum_stacked`,
  posted before the interior phase, so interior-zone evaluation hides
  the (modeled) transfer when `overlap` is on. Physics is bitwise
  identical either way — only the `CommLedger` exposed/hidden split
  moves.
- time step: each phase's result carries its per-zone dt minima (one
  CFL pass per phase); per-rank minima by `np.minimum.at`, combined
  through `iallreduce_min_batch`.
- momentum PCG: `VectorizedDistributedMomentumSolver` applies the
  global partial-assembly `MassAction` once and replaces the interface
  rows with the sum of per-rank partials contracted from the
  interface-zone mass blocks, priced as a full (ndof,) vector per rank,
  with the tolerances the solver's `RunConfig` (`solver.config`) sets.

At a fixed rank count P a run's traffic has a closed form in its force
evaluations F and operator applies S: `2F + S` reductions (one
interface exchange and one dt minimum per evaluation, one exchange per
apply), each priced as `2(P-1)` tree messages.

Resilience routes through the same object (`exclude_rank` rebuilds the
partition; `swap_node` records a rank's degraded node after a sticky
device fault), and when the node is hybrid it is also the in-band
scheduler's tuning target: all ranks model identical hardware, so the
split it prices (over the whole mesh) holds for every rank.

Elasticity: `resize_ranks` repartitions to a new rank count mid-run
(deterministic RCB on the initial zone centroids, traffic/ledger carried
over, a `rank_resize` trace instant emitted), and a `rank_schedule`
("step:ranks,step:ranks,...") drives resizes from the solver's step
hook — grow 4->8 or shrink 8->3 under a running job, building on the
same rebuild path `exclude_rank` uses. The schedule is parsed by
`repro.config.parse_rank_schedule`, the function `RunConfig` validates
it with, so a malformed schedule is a `ConfigError` when the config is
built, not when the solver is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import parse_rank_schedule
from repro.hydro.corner_force import ForceResult, ZoneSubset
from repro.hydro.momentum import MomentumSolver
from repro.runtime.groups import (
    DofGroups,
    build_dof_groups,
    interface_dofs,
    split_interface_zones,
)
from repro.runtime.mpi_sim import SimulatedComm

__all__ = [
    "DistributedBackend",
    "VectorizedDistributedMomentumSolver",
]


@dataclass
class _RankData:
    """One simulated rank: its zones and the name of the node it runs.

    Every rank evaluates on the backend's one node; `node_name` records
    what the rank's hardware is, which a sticky device fault degrades.
    """

    zones: np.ndarray
    interface_zones: np.ndarray
    interior_zones: np.ndarray
    node_name: str


@dataclass
class _VecPlan:
    """Precomputed index machinery for the vectorized rank step.

    Built once per partition. `ifz`/`inz` are the interface/interior
    zones of *all* ranks concatenated rank-major (so one zone-subset
    evaluation per phase covers every rank, and each dof accumulates
    its zones in rank order); `sub_if`/`sub_in` are the engine subsets
    prepared over them, released when the partition is rebuilt.
    `scat_idx` maps each (zone-dof) entry that lands on an interface
    dof to its flat (rank, iface-position) slot; `scat_src` selects the
    matching rows of the zone-local RHS. `rhs_rows` is the global dof
    of every (zone, dof) row of the two phases' zone-local RHS, interface
    zones first, so the momentum RHS is one `np.bincount` per component.
    The interface-zone mass blocks power the momentum matvec's per-rank
    interface partials without per-rank operators.
    """

    ifz: np.ndarray        # interface zones, rank-major concat
    inz: np.ndarray        # interior zones, rank-major concat
    ifz_rank: np.ndarray   # rank of each interface zone
    inz_rank: np.ndarray   # rank of each interior zone
    iface_dofs: np.ndarray  # the shared (interface) dof ids
    n_iface: int
    scat_idx: np.ndarray   # flat rank * n_iface + iface_pos, masked entries
    scat_src: np.ndarray   # rows into (n_ifz * ndof_per_zone) flattened arrays
    ldof_ifz: np.ndarray   # (n_ifz, ndof_per_zone) dof map of interface zones
    rhs_rows: np.ndarray   # ((n_ifz + n_inz) * ndof_per_zone,) global dofs
    mass_blocks: np.ndarray  # (n_ifz, ndz, ndz) interface-zone mass blocks
    sub_if: ZoneSubset     # engine subset over `ifz`
    sub_in: ZoneSubset     # engine subset over `inz`


class VectorizedDistributedMomentumSolver(MomentumSolver):
    """Momentum PCG whose operator is the group sum over the ranks.

    The operator applies the *global* mass action once (exact at private
    dofs, where a single rank owns every contribution), then replaces
    the interface-dof rows with a genuine sum of per-rank partials —
    each rank's contribution contracted from its interface-zone mass
    blocks and exchanged through one stacked collective priced at a
    full (ndof,) vector per rank, the payload a rank-local operator
    would exchange.
    """

    def __init__(self, mass, action, bc, plan, nranks, comm, tol=1e-14, maxiter=None):
        super().__init__(mass, action, bc, tol=tol, maxiter=maxiter)
        self.plan = plan
        self.nranks = nranks
        self.comm = comm
        n_ifz, ndz, _ = plan.mass_blocks.shape
        self.flops_per_apply += 2 * n_ifz * ndz * ndz  # the interface partials

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = self.action.matvec(x)
        p = self.plan
        contrib = np.matmul(p.mass_blocks, x[p.ldof_ifz][:, :, None]).reshape(-1)
        stacked = np.bincount(
            p.scat_idx, weights=contrib[p.scat_src],
            minlength=self.nranks * p.n_iface,
        ).reshape(self.nranks, p.n_iface)
        iface_sum = self.comm.wait(
            self.comm.iallreduce_sum_stacked(stacked, nbytes_each=x.nbytes)
        )
        y[p.iface_dofs] = iface_sum
        return y


class DistributedBackend:
    """Simulated-MPI execution over one node backend.

    Parameters
    ----------
    nranks : simulated ranks (>= 1).
    node : registry name of the node backend that evaluates every
        rank's zones ("cpu-fused" / "cpu-sumfact" / "cpu-parallel" /
        "hybrid"). It runs in-process: under ranks the rank is the
        parallel unit, so a cpu-parallel node starts no pool.
        Whatever its flavour, its engine evaluates the ranks' zones
        through the fused zone-subset entry.
    node_kwargs : forwarded to the node backend's constructor.
    zone_rank : optional explicit zone -> rank map (default: RCB).
    overlap : overlap the interface-dof exchange with interior-zone
        evaluation (pricing only; physics is bitwise identical).
    rank_schedule : optional "step:ranks,step:ranks,..." elastic-rank
        schedule, e.g. "10:8,20:3" grows to 8 ranks after step 10 and
        shrinks to 3 after step 20 (driven by the solver's step hook).
    fault_injector : optional injector wired into the communicator.
    cost_model : optional `CommCostModel` pricing the communicator.
    """

    name = "distributed"

    def __init__(
        self,
        nranks: int,
        node: str = "cpu-fused",
        node_kwargs: dict | None = None,
        zone_rank: np.ndarray | None = None,
        overlap: bool = True,
        rank_schedule: str | None = None,
        fault_injector=None,
        cost_model=None,
    ):
        if nranks < 1:
            raise ValueError("need at least one rank")
        self.nranks = nranks
        self.node_name = node
        self.node_kwargs = dict(node_kwargs or {})
        self.overlap = bool(overlap)
        self.rank_schedule = parse_rank_schedule(rank_schedule)
        self._zone_rank_init = zone_rank
        self._initial_nranks = nranks
        self.fault_injector = fault_injector
        self.cost_model = cost_model
        self.solver = None
        self.engine = None
        self.node = None
        self.comm: SimulatedComm | None = None
        self.groups: DofGroups | None = None
        self.zone_rank: np.ndarray | None = None
        self.ranks: list[_RankData] = []
        self.momentum: "MomentumSolver | None" = None
        self._iface_dofs: np.ndarray | None = None
        self._vec_plan: _VecPlan | None = None
        self._fz_slot = 0
        self._schedule_fired: set[int] = set()
        #: (step, nranks, reason) transitions, surfaced in the manifest.
        self.rank_history: list[dict] = []

    # -- Lifecycle -----------------------------------------------------------

    def attach(self, solver) -> None:
        """Attach the node backend: its engine, and no executor."""
        if self.node is not None:
            raise RuntimeError("backend 'distributed' is already attached")
        from repro.backends.base import make_backend

        self.solver = solver
        self.node = make_backend(self.node_name, **self.node_kwargs)
        self.node.attach_node(solver)
        self.engine = self.node.engine

    def finalize(self, solver) -> None:
        """Build the partition-derived machinery (post-construction).

        Needs the solver's mass matrices, boundary conditions and
        integrator, so it runs as the solver's last construction step:
        partition, communicator, dof groups, the stacked-step index
        plan, and the distributed momentum solver
        (installed on the solver *and* its integrator).
        """
        self.zone_rank = self._initial_zone_rank()
        if self.zone_rank.shape != (solver.problem.mesh.nzones,):
            raise ValueError("zone_rank must assign every zone")
        self.comm = SimulatedComm(
            self.nranks,
            fault_injector=self.fault_injector,
            cost_model=self.cost_model,
            tracer=solver.tracer,
        )
        self._build_partition(solver)
        solver.integrator.assemble_fn = self._assemble_rhs

    def _rcb(self, nranks: int) -> np.ndarray:
        """RCB over the initial zone centroids: a pure function of nranks."""
        from repro.fem.partition import partition_rcb

        centroids = self.solver.problem.mesh.zone_vertex_coords().mean(axis=1)
        return np.asarray(partition_rcb(centroids, nranks), dtype=np.int64)

    def _initial_zone_rank(self) -> np.ndarray:
        if self._zone_rank_init is None:
            return self._rcb(self._initial_nranks)
        return np.asarray(self._zone_rank_init, dtype=np.int64)

    def _repartition(
        self, zone_rank: np.ndarray, nranks: int, carry=True, survivors=None
    ) -> None:
        """Move to a new zone -> rank map over `nranks` ranks.

        Rebuilds the communicator — carrying the run's traffic and
        ledger over when `carry`, so totals stay cumulative — and every
        partition-derived structure. New rank `i` keeps the node name of
        old rank `survivors[i]` (default: rank `i`), so a rank degraded
        by `swap_node` stays degraded; a rank with no predecessor runs
        the node.
        """
        old_names = [r.node_name for r in self.ranks]
        names = [old_names[s] if s < len(old_names) else self.node_name
                 for s in (survivors or range(nranks))]
        old = self.comm
        self.zone_rank = zone_rank
        self.nranks = nranks
        self.comm = SimulatedComm(
            nranks,
            fault_injector=old.fault_injector,
            cost_model=old.cost_model,
            tracer=old.tracer,
        )
        if carry:
            self.comm.traffic = old.traffic
            self.comm.ledger = old.ledger
        self._build_partition(self.solver)
        for rank, name in zip(self.ranks, names):
            rank.node_name = name

    def _build_partition(self, solver) -> None:
        """(Re)build everything derived from the zone -> rank map.

        Dof groups, the ranks' interface/interior split, the stacked-step
        plan with its two engine zone subsets (the previous plan's are
        released first, so repartitions do not accumulate workspaces),
        and the momentum operator over them.
        """
        self.groups = build_dof_groups(solver.kinematic, self.zone_rank)
        self._iface_dofs = interface_dofs(self.groups)
        splits = split_interface_zones(solver.kinematic, self.zone_rank, self.groups)
        self.ranks = [
            _RankData(
                zones=np.flatnonzero(self.zone_rank == r),
                interface_zones=splits[r][0],
                interior_zones=splits[r][1],
                node_name=self.node_name,
            )
            for r in range(self.nranks)
        ]
        old = self._vec_plan
        if old is not None:
            self.engine.release_subset(old.sub_if)
            self.engine.release_subset(old.sub_in)
        self._vec_plan = self._build_vec_plan(solver)
        self.momentum = VectorizedDistributedMomentumSolver(
            solver.mass_v,
            solver.mass_v_action,
            solver.bc,
            self._vec_plan,
            self.nranks,
            self.comm,
            tol=solver.config.pcg_tol,
            maxiter=solver.config.pcg_maxiter,
        )
        solver.momentum = self.momentum
        solver.integrator.momentum = self.momentum

    def _build_vec_plan(self, solver) -> _VecPlan:
        """Precompute the rank-major index machinery (see `_VecPlan`)."""
        kin = solver.kinematic
        iface = self._iface_dofs
        n_iface = int(iface.size)
        ifz = np.concatenate(
            [r.interface_zones for r in self.ranks]
            or [np.empty(0, dtype=np.int64)]
        ).astype(np.int64, copy=False)
        inz = np.concatenate(
            [r.interior_zones for r in self.ranks]
            or [np.empty(0, dtype=np.int64)]
        ).astype(np.int64, copy=False)
        ifz_rank = np.repeat(
            np.arange(self.nranks, dtype=np.int64),
            [r.interface_zones.size for r in self.ranks],
        )
        inz_rank = np.repeat(
            np.arange(self.nranks, dtype=np.int64),
            [r.interior_zones.size for r in self.ranks],
        )
        # dof -> interface position (or -1 for private dofs).
        pos = np.full(kin.ndof, -1, dtype=np.int64)
        pos[iface] = np.arange(n_iface, dtype=np.int64)
        ldof_ifz = kin.ldof[ifz]
        posz = pos[ldof_ifz]  # (n_ifz, ndz)
        mask = (posz >= 0).ravel()
        scat_src = np.flatnonzero(mask)
        scat_idx = (ifz_rank[:, None] * n_iface + posz).ravel()[scat_src]
        # Interface-zone mass blocks (the zones whose contributions
        # cross ranks), from the weights the global mass action applies.
        action = solver.mass_v_action
        blocks = np.einsum(
            "zk,ki,kj->zij", action.qp_weights[ifz], action.basis, action.basis
        )
        sub_if = self.engine.prepare_subset(ifz)
        sub_in = self.engine.prepare_subset(inz)
        return _VecPlan(
            ifz=ifz,
            inz=inz,
            ifz_rank=ifz_rank,
            inz_rank=inz_rank,
            iface_dofs=iface,
            n_iface=n_iface,
            scat_idx=scat_idx,
            scat_src=scat_src,
            ldof_ifz=ldof_ifz,
            rhs_rows=np.concatenate([sub_if.ldof.ravel(), sub_in.ldof.ravel()]),
            mass_blocks=blocks,
            sub_if=sub_if,
            sub_in=sub_in,
        )

    # -- The distributed corner force ----------------------------------------

    @property
    def force_fn(self):
        if self.node is None:
            raise RuntimeError("backend 'distributed' is not attached")
        return self._compute

    def _compute(self, state) -> ForceResult:
        """Two-phase distributed corner-force evaluation over the rank axis.

        Phase 1 evaluates every rank's *interface* zones (one prepared
        rank-major subset, through the engine's fused `compute_subset`),
        lands the per-rank partials in a (nranks, n_iface, dim) stack
        via `np.bincount` and posts their exchange as one
        `iallreduce_sum_stacked`; phase 2 evaluates every rank's
        *interior* zones the same way — with `overlap` on, while the
        exchange is (modeled as) in flight. Only where the `wait` lands
        differs between the overlap settings, which is exactly the
        exposed-vs-hidden pricing split. Interior zones touch no
        interface dofs, so the global RHS scatter-add followed by the
        overwrite of the interface rows with the collective's sum is
        the group sum of the ranks' partials. Each phase's result
        carries its per-zone dt minima, so dt costs one CFL pass per
        phase. The stack, the zone-local and global RHS and the full
        F_z live in the engine's workspace; F_z and the RHS alternate
        between two buffers, so the two most recent results stay live.
        """
        kin = self.solver.kinematic
        ndof, dim = kin.ndof, kin.dim
        plan = self._vec_plan
        comm = self.comm
        engine = self.engine
        ws = engine.workspace
        n_if = plan.ifz.size
        fz_shape = engine._fz_shape

        # Phase 1: all interface zones, one batched evaluation.
        res_if = engine.compute_subset(state, plan.sub_if)
        if not res_if.valid:
            return ForceResult(None, None, None, 0.0, valid=False)
        rhs_z = ws.get("dist.rhs_z", (n_if + plan.inz.size,) + fz_shape[1:3])
        rhs_if = engine.force_times_one(res_if.Fz, out=rhs_z[:n_if]).reshape(-1, dim)
        stacked = ws.get("dist.stacked", (self.nranks, plan.n_iface, dim))
        for d in range(dim):
            stacked[..., d] = np.bincount(
                plan.scat_idx,
                weights=rhs_if[plan.scat_src, d],
                minlength=self.nranks * plan.n_iface,
            ).reshape(self.nranks, plan.n_iface)
        req = comm.iallreduce_sum_stacked(stacked)
        if not self.overlap:
            iface_sum = comm.wait(req)

        # Phase 2: all interior zones — the hiding window when overlapping.
        res_in = engine.compute_subset(state, plan.sub_in)
        if not res_in.valid:
            if self.overlap:
                comm.wait(req)
            return ForceResult(None, None, None, 0.0, valid=False)
        if self.overlap:
            iface_sum = comm.wait(req)

        # Momentum RHS: interface-zone then interior-zone scatter-adds
        # (rank-major), with the interface rows taken from the collective.
        slot = self._fz_slot
        self._fz_slot = 1 - slot
        engine.force_times_one(res_in.Fz, out=rhs_z[n_if:])
        rhs_flat = rhs_z.reshape(-1, dim)
        rhs = ws.get(f"dist.rhs{slot}", (ndof, dim))
        for d in range(dim):
            rhs[:, d] = np.bincount(plan.rhs_rows, weights=rhs_flat[:, d], minlength=ndof)
        rhs[plan.iface_dofs] = iface_sum

        # Per-rank dt minima over the rank axis, reduced as one batch of
        # scalar min-allreduces (pricing: one reduction).
        per_rank_dt = np.full(self.nranks, np.inf)
        np.minimum.at(per_rank_dt, plan.ifz_rank, res_if.dt_zones)
        np.minimum.at(per_rank_dt, plan.inz_rank, res_in.dt_zones)
        dt_req = comm.iallreduce_min_batch(per_rank_dt)

        Fz = ws.get(f"dist.Fz{slot}", fz_shape)
        Fz[plan.ifz] = res_if.Fz
        Fz[plan.inz] = res_in.Fz
        dt = comm.wait(dt_req)

        result = ForceResult(Fz, None, None, float(dt), valid=True)
        result.rhs_mom = rhs
        return result

    def _assemble_rhs(self, force) -> np.ndarray:
        """Integrator hook: the RHS was assembled during the force eval."""
        return force.rhs_mom

    # -- Scheduler / resilience hooks ----------------------------------------

    def tuning_target(self):
        """The hybrid node, while no rank has been degraded; else None.

        All ranks model identical hardware, so the scheduler prices the
        one node and its decision holds for every rank — the paper's
        per-task autotuner converging once per architecture, not once
        per rank. The node's `name` stays "hybrid", so `TuningCache`
        keys are shared with single-task hybrid runs.
        """
        if self.ranks and all(r.node_name == "hybrid" for r in self.ranks):
            return self.node
        return None

    def swap_node(self, name: str, rank: int) -> None:
        """Degrade one rank's node to `name` (sticky device fault path).

        Records the rank's new node name — the other ranks keep theirs,
        the paper's failure model being per-task — and stops any in-band
        scheduler: its split no longer describes the hardware carrying
        the run. Every rank evaluates on the one engine, so a swap
        within an engine flavour (hybrid -> cpu-fused) changes no
        arithmetic; a name whose engine flavour differs is rejected.
        """
        if not (0 <= rank < self.nranks):
            raise ValueError(f"rank {rank} out of range (nranks={self.nranks})")
        from repro.backends.base import make_backend

        nb = make_backend(name)
        if nb.sumfact != self.node.sumfact:
            raise ValueError(
                f"cannot swap rank {rank} to '{name}': its engine flavour "
                f"differs from the '{self.node_name}' node's"
            )
        self.ranks[rank].node_name = name
        sched = getattr(self.solver, "scheduler", None)
        if sched is not None:
            sched.reset()

    def exclude_rank(self, rank: int) -> None:
        """Degrade to `nranks - 1` ranks after a simulated rank failure.

        The dead rank's zones are dealt round-robin to the survivors
        and every partition-derived structure (communicator, dof
        groups, stacked-step plan, momentum operator) is rebuilt. The
        functional layer is partition-independent, so the physics
        continues unchanged up to floating-point reordering of the
        reductions. Traffic and ledger accounting carry over so a run's
        totals stay cumulative.
        """
        if not (0 <= rank < self.nranks):
            raise ValueError(f"rank {rank} out of range (nranks={self.nranks})")
        if self.nranks == 1:
            raise ValueError("cannot exclude the last remaining rank")
        survivors = [r for r in range(self.nranks) if r != rank]
        zr = self.zone_rank.copy()
        failed_zones = np.flatnonzero(zr == rank)
        for i, z in enumerate(failed_zones):
            zr[z] = survivors[i % len(survivors)]
        remap = {old: new for new, old in enumerate(survivors)}
        self._repartition(
            np.asarray([remap[r] for r in zr], dtype=np.int64),
            self.nranks - 1,
            survivors=survivors,
        )
        self._record_transition("exclude")

    # -- Elasticity -----------------------------------------------------------

    def resize_ranks(self, new_nranks: int) -> None:
        """Repartition to `new_nranks` simulated ranks mid-run.

        Deterministic: the new partition is RCB over the *initial* zone
        centroids (the same rule the constructor uses), so a resize at a
        given step is a pure function of (mesh, new_nranks) and a resized
        run is bit-reproducible. Traffic and ledger accounting carry
        over, every partition-derived structure is rebuilt through the
        same path `exclude_rank` uses, and a `rank_resize` trace instant
        marks the transition in the Chrome trace.
        """
        if new_nranks < 1:
            raise ValueError("need at least one rank")
        if new_nranks == self.nranks:
            return
        old_nranks = self.nranks
        self._repartition(self._rcb(new_nranks), new_nranks)
        self._record_transition("resize", old_nranks=old_nranks)

    def on_step(self, steps_done: int) -> None:
        """Solver per-step hook: fire any scheduled elastic resizes."""
        if not self.rank_schedule:
            return
        target = self.rank_schedule.get(int(steps_done))
        if target is not None and steps_done not in self._schedule_fired:
            self._schedule_fired.add(int(steps_done))
            self.resize_ranks(target)

    def _record_transition(self, reason: str, old_nranks: "int | None" = None) -> None:
        steps = getattr(getattr(self.solver, "workload", None), "steps", 0)
        self.rank_history.append(
            {"step": int(steps), "nranks": int(self.nranks), "reason": reason}
        )
        tracer = self.solver.tracer if self.solver is not None else None
        if tracer is not None:
            tracer.instant(
                "rank_resize" if reason != "exclude" else "rank_exclude",
                category="comm",
                step=int(steps),
                nranks=int(self.nranks),
                **({"from": int(old_nranks)} if old_nranks is not None else {}),
            )

    def reset(self) -> None:
        """Rewind to the constructed configuration (warm solver reuse).

        Restores the initial rank count/partition if a resize or
        exclusion moved it, and starts fresh traffic/ledger accounting
        so a pooled distributed solver re-runs bit-identically with
        per-job communication totals.
        """
        if self.comm is None:
            return  # not finalized yet (solver.__init__ calls reset first)
        if self.nranks != self._initial_nranks or self.rank_history:
            self._repartition(
                self._initial_zone_rank(), self._initial_nranks, carry=False
            )
        else:
            from repro.runtime.mpi_sim import CommLedger, _Traffic

            self.comm.traffic = _Traffic()
            self.comm.ledger = CommLedger()
        self.rank_history = []
        self._schedule_fired = set()

    # -- Housekeeping --------------------------------------------------------

    def close(self) -> None:
        if self.node is not None:
            self.node.close()

    def describe(self) -> dict:
        out = {
            "backend": self.name,
            "ranks": self.nranks,
            "node": self.node_name,
            "overlap": self.overlap,
        }
        if self.rank_schedule:
            out["rank_schedule"] = dict(self.rank_schedule)
        if self.rank_history:
            out["rank_history"] = list(self.rank_history)
        if self.node is not None:
            out["node_detail"] = self.node.describe()
        return out
