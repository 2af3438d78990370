"""`DistributedBackend`: the simulated-MPI layer as an execution backend.

The paper's Section 3.4 claim is that the MPI level and the CPU/GPU
corner-force level are independent, composable layers. This module is
that composition for the repro: `RunConfig(ranks=N, backend=<any>)`
builds one ordinary `LagrangianHydroSolver` whose backend is a
`DistributedBackend` wrapping N per-rank *node* backends (cpu-serial /
cpu-fused / cpu-parallel / hybrid). The solver's time loop, integrator,
telemetry and resilience hooks are all the standard ones — the
distributed layer only changes how the corner force is evaluated and
how the mass operator is applied:

- corner forces: each rank's node backend evaluates its own zones
  (`compute_local`), split into *interface* zones (touching shared
  dofs) and *interior* zones. The interface-dof momentum-RHS exchange
  is posted as a nonblocking `iallreduce_sum` between the two phases,
  so interior-zone evaluation hides the (modeled) transfer when
  `overlap` is on. Physics is bitwise identical either way — only the
  `CommLedger` exposed/hidden split moves.
- time step: rank-local minima combined through `iallreduce_min`.
- momentum PCG: the mass matrix applies as the group-sum of rank-local
  operators (`DistributedMomentumSolver`), with the tolerances the
  solver's `RunConfig` (`solver.config`) sets.

Resilience routes through the same object (`exclude_rank` rebuilds the
partition; `swap_node` replaces one rank's node backend after a sticky
device fault), and the in-band scheduler drives all hybrid nodes at
once through the `_HybridFleet` tuning target.

Two rank-stepping modes share this contract (`rank_step`):

- **loop** — the reference: one `compute_local` per rank per phase, one
  Python-level partial per rank. Exact but O(P) Python work per force
  evaluation; the mode hybrid nodes use (their pricing is per-call).
- **vectorized** — all ranks' interface zones evaluated in one
  rank-major `compute_local` call (ditto interior), per-rank interface
  partials accumulated by `np.bincount` into a (nranks, n_iface, dim)
  stack and exchanged through one `iallreduce_sum_stacked`, per-rank dt
  minima by `np.minimum.at` + `iallreduce_min_batch`, and the momentum
  matvec as one global CSR apply with per-rank interface partials from
  the interface-zone mass blocks. Collective count, payload sizes and
  therefore the priced `CommLedger` are identical to loop mode, and the
  accumulation orders are arranged to match loop mode's — the force
  phase is bit-compatible, the momentum operator agrees to FP
  reordering. This is what lets the functional layer step O(100-1000)
  simulated ranks in seconds and reproduce the paper's Figs 12-13
  weak/strong curves measured, not just modeled.

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
from repro.hydro.corner_force import ForceResult
from repro.hydro.momentum import MomentumSolver
from repro.linalg.csr import CSRMatrix
from repro.runtime.groups import (
    DofGroups,
    build_dof_groups,
    interface_dofs,
    split_interface_zones,
)
from repro.runtime.mpi_sim import SimulatedComm

__all__ = [
    "DistributedBackend",
    "DistributedMomentumSolver",
    "VectorizedDistributedMomentumSolver",
]


@dataclass
class _RankData:
    """One simulated rank: its zones, mass share and node backend.

    In vectorized mode `mass_local` is None (the momentum operator works
    from the global matrix plus the interface-zone blocks in `_VecPlan`)
    and every rank shares the primary node backend.
    """

    zones: np.ndarray
    interface_zones: np.ndarray
    interior_zones: np.ndarray
    mass_local: "CSRMatrix | None"
    node: object


@dataclass
class _VecPlan:
    """Precomputed index machinery for the vectorized rank step.

    Built once per partition. `ifz`/`inz` are the interface/interior
    zones of *all* ranks concatenated rank-major (so one `compute_local`
    per phase covers every rank, and per-dof accumulation order matches
    the per-rank loop). `scat_idx` maps each (zone-dof) entry that lands
    on an interface dof to its flat (rank, iface-position) slot;
    `scat_src` selects the matching rows of the zone-local RHS. The
    interface-zone mass blocks power the momentum matvec's per-rank
    interface partials without per-rank CSR matrices.
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
    mass_blocks: np.ndarray  # (n_ifz, ndz, ndz) interface-zone mass blocks


class VectorizedDistributedMomentumSolver(MomentumSolver):
    """Momentum PCG for the vectorized rank-stepping mode.

    The operator applies the *global* mass matrix once (exact at private
    dofs, where a single rank owns every contribution), then replaces
    the interface-dof rows with a genuine sum of per-rank partials —
    each rank's contribution contracted from its interface-zone mass
    blocks and exchanged through one stacked collective priced at the
    loop mode's payload (a full (ndof,) vector per rank), so the
    `CommLedger` agrees between modes.
    """

    def __init__(self, mass, bc, plan, nranks, comm, tol=1e-14, maxiter=None):
        super().__init__(mass, bc, tol=tol, maxiter=maxiter)
        self.plan = plan
        self.nranks = nranks
        self.comm = comm

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = self.mass.matvec(x)
        p = self.plan
        contrib = np.einsum(
            "zij,zj->zi", p.mass_blocks, x[p.ldof_ifz], optimize=True
        ).ravel()
        stacked = np.bincount(
            p.scat_idx, weights=contrib[p.scat_src],
            minlength=self.nranks * p.n_iface,
        ).reshape(self.nranks, p.n_iface)
        iface_sum = self.comm.wait(
            self.comm.iallreduce_sum_stacked(stacked, nbytes_each=x.nbytes)
        )
        y[p.iface_dofs] = iface_sum
        return y


class DistributedMomentumSolver(MomentumSolver):
    """Momentum PCG whose operator is the sum of rank-local matrices.

    Same preconditioner, tolerances and eliminated-BC handling as the
    serial `MomentumSolver`; only `matvec` changes — every application
    is a group sum over the ranks' local mass shares, priced and
    accounted by the communicator.
    """

    def __init__(self, mass, bc, rank_masses, comm, tol=1e-14, maxiter=None):
        super().__init__(mass, bc, tol=tol, maxiter=maxiter)
        self.rank_masses = list(rank_masses)
        self.comm = comm

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.comm.allreduce_sum([m.matvec(x) for m in self.rank_masses])


class _HybridFleet:
    """Scheduler view of N hybrid node backends as one tuning target.

    The in-band scheduler tunes kernels and balances the CPU/GPU split
    against rank 0's device model (all ranks simulate the same
    hardware) and broadcasts every decision to the whole fleet — the
    paper's per-task autotuner converging once per architecture, not
    once per rank. `name` stays "hybrid" so `TuningCache` keys are
    shared with single-task hybrid runs.
    """

    name = "hybrid"

    def __init__(self, nodes):
        self.nodes = list(nodes)

    @property
    def fe_cfg(self):
        return self.nodes[0].fe_cfg

    @property
    def gpu(self):
        return self.nodes[0].gpu

    def gpu_time_s(self, ratio: float) -> float:
        return self.nodes[0].gpu_time_s(ratio)

    def cpu_time_s(self, share: float) -> float:
        return self.nodes[0].cpu_time_s(share)

    def set_ratio(self, ratio: float) -> None:
        for node in self.nodes:
            node.set_ratio(ratio)

    def apply_selection(self, selection) -> None:
        for node in self.nodes:
            node.apply_selection(selection)

    def apply_runtime(self, fusion: str, chunk: int) -> None:
        for node in self.nodes:
            node.apply_runtime(fusion, chunk)

    def measure_candidate(self, params: dict):
        # All ranks model identical hardware, so rank 0 prices for the fleet.
        return self.nodes[0].measure_candidate(params)


class DistributedBackend:
    """Simulated-MPI execution over per-rank node backends.

    Parameters
    ----------
    nranks : simulated ranks (>= 1).
    node : registry name of the per-rank node backend
        ("cpu-serial" / "cpu-fused" / "cpu-parallel" / "hybrid").
    node_kwargs : forwarded to each node backend's constructor.
    zone_rank : optional explicit zone -> rank map (default: RCB).
    overlap : overlap the interface-dof exchange with interior-zone
        evaluation (pricing only; physics is bitwise identical).
    rank_step : "loop", "vectorized", or "auto" (default). Auto picks
        vectorized for cpu-* node backends and loop for hybrid nodes
        (the hybrid pricing meters individual `compute_local` calls).
        See the module docstring for the contract between the modes.
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
        rank_step: str = "auto",
        rank_schedule: str | None = None,
        fault_injector=None,
        cost_model=None,
    ):
        if nranks < 1:
            raise ValueError("need at least one rank")
        if rank_step not in ("auto", "loop", "vectorized"):
            raise ValueError(
                f"unknown rank_step '{rank_step}' (choose 'auto', 'loop' or 'vectorized')"
            )
        self.nranks = nranks
        self.node_name = node
        self.node_kwargs = dict(node_kwargs or {})
        self.overlap = bool(overlap)
        self.rank_step = rank_step
        self.rank_schedule = parse_rank_schedule(rank_schedule)
        self._zone_rank_init = zone_rank
        self._initial_nranks = nranks
        self.fault_injector = fault_injector
        self.cost_model = cost_model
        self.solver = None
        self.engine = None
        self.node0 = None
        self.comm: SimulatedComm | None = None
        self.groups: DofGroups | None = None
        self.zone_rank: np.ndarray | None = None
        self.ranks: list[_RankData] = []
        self.momentum: "MomentumSolver | None" = None
        self._iface_dofs: np.ndarray | None = None
        self._vectorized = False
        self._vec_plan: _VecPlan | None = None
        self._schedule_fired: set[int] = set()
        #: (step, nranks, reason) transitions, surfaced in the manifest.
        self.rank_history: list[dict] = []

    # -- Lifecycle -----------------------------------------------------------

    def attach(self, solver) -> None:
        """Attach the primary node backend (engine construction)."""
        if self.node0 is not None:
            raise RuntimeError("backend 'distributed' is already attached")
        from repro.backends.base import make_backend

        self.solver = solver
        self.node0 = make_backend(self.node_name, **self.node_kwargs)
        self.node0.attach(solver)
        self.engine = self.node0.engine

    def finalize(self, solver) -> None:
        """Build the partition-derived machinery (post-construction).

        Needs the solver's mass matrices, boundary conditions and
        integrator, so it runs as the solver's last construction step:
        partition, communicator, dof groups, rank-local mass shares,
        per-rank node backends, and the distributed momentum solver
        (installed on the solver *and* its integrator).
        """
        mesh = solver.problem.mesh
        zone_rank = self._zone_rank_init
        if zone_rank is None:
            from repro.fem.partition import partition_rcb

            centroids = mesh.zone_vertex_coords().mean(axis=1)
            zone_rank = partition_rcb(centroids, self.nranks)
        self.zone_rank = np.asarray(zone_rank, dtype=np.int64)
        if self.zone_rank.shape != (mesh.nzones,):
            raise ValueError("zone_rank must assign every zone")
        self.comm = SimulatedComm(
            self.nranks,
            fault_injector=self.fault_injector,
            cost_model=self.cost_model,
            tracer=solver.tracer,
        )
        self._vectorized = self._resolve_vectorized()
        self._build_partition(solver)
        self._install_momentum(solver)
        solver.integrator.assemble_fn = self._assemble_rhs

    def _resolve_vectorized(self) -> bool:
        if self.rank_step == "vectorized":
            return True
        if self.rank_step == "loop":
            return False
        # auto: hybrid nodes price per compute_local call, so they keep
        # the per-rank loop; pure-CPU nodes take the vectorized step.
        return self.node_name != "hybrid"

    def _install_momentum(self, solver) -> None:
        """(Re)build the distributed momentum operator for the mode."""
        if self._vectorized:
            self.momentum = VectorizedDistributedMomentumSolver(
                solver.mass_v,
                solver.bc,
                self._vec_plan,
                self.nranks,
                self.comm,
                tol=solver.config.pcg_tol,
                maxiter=solver.config.pcg_maxiter,
            )
        else:
            self.momentum = DistributedMomentumSolver(
                solver.mass_v,
                solver.bc,
                [r.mass_local for r in self.ranks],
                self.comm,
                tol=solver.config.pcg_tol,
                maxiter=solver.config.pcg_maxiter,
            )
        solver.momentum = self.momentum
        solver.integrator.momentum = self.momentum

    def _build_partition(self, solver) -> None:
        """(Re)build everything derived from the zone -> rank map."""
        self.groups = build_dof_groups(solver.kinematic, self.zone_rank)
        self._iface_dofs = interface_dofs(self.groups)
        splits = split_interface_zones(solver.kinematic, self.zone_rank, self.groups)
        if self._vectorized:
            # One shared node evaluates every rank's zones in two
            # rank-major batches; per-rank CSR shares are not built (the
            # momentum operator works from the global matrix + the
            # interface-zone blocks in the plan).
            nodes = [self.node0] * self.nranks
            masses = [None] * self.nranks
        else:
            nodes = self._make_nodes(solver)
            masses = [self._rank_mass(solver, r) for r in range(self.nranks)]
        self.ranks = [
            _RankData(
                zones=np.flatnonzero(self.zone_rank == r),
                interface_zones=splits[r][0],
                interior_zones=splits[r][1],
                mass_local=masses[r],
                node=nodes[r],
            )
            for r in range(self.nranks)
        ]
        self._vec_plan = self._build_vec_plan(solver) if self._vectorized else None

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
        # Interface-zone mass blocks (same assembly as `_rank_mass`,
        # restricted to the zones whose contributions cross ranks).
        basis = kin.element.tabulate(solver.quad.points)
        if ifz.size:
            geo = self.engine.geom_eval.evaluate_local(
                kin.gather(kin.node_coords)[ifz]
            )
            rho = self.engine.mass_qp[ifz] / geo.det
            w = solver.quad.weights[None, :] * rho * geo.det
            blocks = np.einsum("zk,ki,kj->zij", w, basis, basis, optimize=True)
        else:
            ndz = kin.ndof_per_zone
            blocks = np.zeros((0, ndz, ndz))
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
            mass_blocks=blocks,
        )

    def _make_nodes(self, solver) -> list:
        """One node backend per rank; rank 0 reuses the primary."""
        from repro.backends.base import make_backend

        nodes = [self.node0]
        for _ in range(1, self.nranks):
            nb = make_backend(self.node_name, **self.node_kwargs)
            nb.attach_node(solver, self.engine)
            nodes.append(nb)
        return nodes

    def _rank_mass(self, solver, rank: int) -> CSRMatrix:
        """Assemble the rank-local share of the kinematic mass matrix."""
        zones = np.flatnonzero(self.zone_rank == rank)
        basis = solver.kinematic.element.tabulate(solver.quad.points)
        geo = self.engine.geom_eval.evaluate_local(
            solver.kinematic.gather(solver.kinematic.node_coords)[zones]
        )
        rho = self.engine.mass_qp[zones] / geo.det  # = rho0 on the initial mesh
        w = solver.quad.weights[None, :] * rho * geo.det
        blocks = np.einsum("zk,ki,kj->zij", w, basis, basis, optimize=True)
        ldof = solver.kinematic.ldof[zones]
        ndz = solver.kinematic.ndof_per_zone
        rows = np.repeat(ldof, ndz, axis=1).ravel()
        cols = np.tile(ldof, (1, ndz)).ravel()
        return CSRMatrix.from_coo(
            rows, cols, blocks.ravel(), (solver.kinematic.ndof, solver.kinematic.ndof)
        )

    # -- The distributed corner force ----------------------------------------

    @property
    def force_fn(self):
        if self.node0 is None:
            raise RuntimeError("backend 'distributed' is not attached")
        return self._compute

    def compute_local(self, state, zone_ids):
        """Delegate a zone subset to the primary node backend."""
        return self.node0.compute_local(state, zone_ids)

    @staticmethod
    def _local_dt(result) -> float:
        return result.dt_est if result.points is not None else np.inf

    def _compute(self, state) -> ForceResult:
        """Two-phase distributed corner-force evaluation.

        Phase 1 evaluates every rank's *interface* zones and posts the
        shared-dof momentum-RHS exchange; phase 2 evaluates *interior*
        zones — with `overlap` on, while the exchange is (modeled as)
        in flight. The arithmetic is identical in both modes and in
        both phases; only where the `wait` lands differs, which is
        exactly the exposed-vs-hidden pricing split.
        """
        if self._vectorized:
            return self._compute_vectorized(state)
        return self._compute_loop(state)

    def _compute_vectorized(self, state) -> ForceResult:
        """The same two-phase evaluation, batched over the rank axis.

        One `compute_local` call per phase covers every rank's zones
        (rank-major order), per-rank interface partials land in a
        (nranks, n_iface, dim) stack via `np.bincount` — accumulation
        order per slot matches the loop mode's per-rank `np.add.at`, so
        the stacked rows are bit-equal — and the exchange is one
        `iallreduce_sum_stacked` priced exactly like loop mode's
        `iallreduce_sum`. Interior zones touch no interface dofs, so
        the global RHS scatter-add and the overwrite of the interface
        rows with the collective's sum reproduce the loop-mode RHS bit
        for bit (up to the node engine's batch-size sensitivity).
        """
        sol = self.solver
        kin = sol.kinematic
        ndof, dim = kin.ndof, kin.dim
        plan = self._vec_plan
        comm = self.comm

        # Phase 1: all interface zones, one batched evaluation.
        res_if = self.node0.compute_local(state, plan.ifz)
        if not res_if.valid:
            return ForceResult(None, None, None, 0.0, valid=False)
        stacked = np.zeros((self.nranks, plan.n_iface, dim))
        if plan.ifz.size:
            rhs_if = self.engine.force_times_one(res_if.Fz).reshape(-1, dim)
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
        res_in = self.node0.compute_local(state, plan.inz)
        if not res_in.valid:
            if self.overlap:
                comm.wait(req)
            return ForceResult(None, None, None, 0.0, valid=False)
        if self.overlap:
            iface_sum = comm.wait(req)

        # Momentum RHS: interface-zone then interior-zone scatter-adds
        # (rank-major, the loop mode's per-dof accumulation order), with
        # the interface rows taken from the collective.
        rhs = np.zeros((ndof, dim))
        if plan.ifz.size:
            np.add.at(rhs, plan.ldof_ifz.reshape(-1), rhs_if)
        if plan.inz.size:
            rhs_in = self.engine.force_times_one(res_in.Fz).reshape(-1, dim)
            np.add.at(rhs, kin.ldof[plan.inz].reshape(-1), rhs_in)
        rhs[plan.iface_dofs] = iface_sum

        # Per-rank dt minima over the rank axis, reduced as one batch of
        # scalar min-allreduces (pricing: one reduction, as in loop mode).
        per_rank_dt = np.full(self.nranks, np.inf)
        if plan.ifz.size:
            np.minimum.at(
                per_rank_dt, plan.ifz_rank,
                self.engine.estimate_dt_zones(res_if.points, res_if.geometry),
            )
        if plan.inz.size:
            np.minimum.at(
                per_rank_dt, plan.inz_rank,
                self.engine.estimate_dt_zones(res_in.points, res_in.geometry),
            )
        dt_req = comm.iallreduce_min_batch(per_rank_dt)

        Fz = np.empty(
            (kin.mesh.nzones, kin.ndof_per_zone, dim, sol.thermodynamic.ndof_per_zone)
        )
        if plan.ifz.size:
            Fz[plan.ifz] = res_if.Fz
        if plan.inz.size:
            Fz[plan.inz] = res_in.Fz
        dt = comm.wait(dt_req)

        result = ForceResult(Fz, None, None, float(dt), valid=True)
        result.rhs_mom = rhs
        return result

    def _compute_loop(self, state) -> ForceResult:
        """Reference per-rank loop (see `_compute`)."""
        sol = self.solver
        kin = sol.kinematic
        ndof, dim = kin.ndof, kin.dim
        iface = self._iface_dofs

        # Phase 1: interface zones, per rank.
        res_if = [r.node.compute_local(state, r.interface_zones) for r in self.ranks]
        if any(not res.valid for res in res_if):
            return ForceResult(None, None, None, 0.0, valid=False)
        partials = []
        for rank, res in zip(self.ranks, res_if):
            part = np.zeros((ndof, dim))
            if rank.interface_zones.size:
                rhs_z = self.engine.force_times_one(res.Fz)
                np.add.at(
                    part,
                    kin.ldof[rank.interface_zones].reshape(-1),
                    rhs_z.reshape(-1, dim),
                )
            partials.append(part)
        req = self.comm.iallreduce_sum([p[iface] for p in partials])
        if not self.overlap:
            iface_sum = self.comm.wait(req)

        # Phase 2: interior zones — the hiding window when overlapping.
        res_in = [r.node.compute_local(state, r.interior_zones) for r in self.ranks]
        if any(not res.valid for res in res_in):
            if self.overlap:
                self.comm.wait(req)
            return ForceResult(None, None, None, 0.0, valid=False)
        for rank, part, res in zip(self.ranks, partials, res_in):
            if rank.interior_zones.size:
                rhs_z = self.engine.force_times_one(res.Fz)
                np.add.at(
                    part,
                    kin.ldof[rank.interior_zones].reshape(-1),
                    rhs_z.reshape(-1, dim),
                )
        if self.overlap:
            iface_sum = self.comm.wait(req)

        # Momentum RHS: rank partials in rank order, interface dofs from
        # the collective (bitwise equal to the sequential sum).
        rhs = np.zeros((ndof, dim))
        for part in partials:
            rhs += part
        rhs[iface] = iface_sum

        # Global Fz (for the zone-local energy RHS) assembled from the
        # rank blocks while the min-dt reduction is in flight.
        dt_req = self.comm.iallreduce_min(
            [
                min(self._local_dt(a), self._local_dt(b))
                for a, b in zip(res_if, res_in)
            ]
        )
        Fz = np.empty(
            (kin.mesh.nzones, kin.ndof_per_zone, dim, sol.thermodynamic.ndof_per_zone)
        )
        for rank, a, b in zip(self.ranks, res_if, res_in):
            Fz[rank.interface_zones] = a.Fz
            Fz[rank.interior_zones] = b.Fz
        dt = self.comm.wait(dt_req)

        result = ForceResult(Fz, None, None, float(dt), valid=True)
        result.rhs_mom = rhs
        return result

    def _assemble_rhs(self, force) -> np.ndarray:
        """Integrator hook: the RHS was assembled during the force eval."""
        return force.rhs_mom

    # -- Scheduler / resilience hooks ----------------------------------------

    def tuning_target(self):
        """All-hybrid fleets tune as one; anything else has no target."""
        if self.ranks and all(r.node.name == "hybrid" for r in self.ranks):
            return _HybridFleet([r.node for r in self.ranks])
        return None

    def swap_node(self, name: str, rank: int) -> None:
        """Replace one rank's node backend (sticky device fault path).

        The other ranks keep their backends — the paper's failure model
        is per-task — and any in-band scheduler stops: its fleet no
        longer describes the hardware carrying the run.
        """
        if not (0 <= rank < self.nranks):
            raise ValueError(f"rank {rank} out of range (nranks={self.nranks})")
        from repro.backends.base import make_backend

        if self._vectorized:
            # A per-rank node swap needs per-rank nodes: drop to the
            # loop mode (same physics, per-rank pricing) and rebuild.
            self._vectorized = False
            self._build_partition(self.solver)
            self._install_momentum(self.solver)
        nb = make_backend(name)
        old = self.ranks[rank].node
        same_flavour = getattr(nb, "fused", True) == getattr(old, "fused", True) and getattr(
            nb, "sumfact", False
        ) == getattr(old, "sumfact", False)
        if same_flavour:
            nb.attach_node(self.solver, self.engine)
        else:
            nb.attach_node(
                self.solver,
                self.solver._make_engine(
                    fused=nb.fused, sumfact=getattr(nb, "sumfact", False)
                ),
            )
        self.ranks[rank].node = nb
        old.close()
        sched = getattr(self.solver, "scheduler", None)
        if sched is not None:
            sched.reset()

    def exclude_rank(self, rank: int) -> None:
        """Degrade to `nranks - 1` ranks after a simulated rank failure.

        The dead rank's zones are dealt round-robin to the survivors
        and every partition-derived structure (communicator, dof
        groups, rank-local mass operators, node fleet) is rebuilt. The
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
        self.zone_rank = np.asarray([remap[r] for r in zr], dtype=np.int64)
        self.nranks -= 1
        old_comm = self.comm
        self.comm = SimulatedComm(
            self.nranks,
            fault_injector=old_comm.fault_injector,
            cost_model=old_comm.cost_model,
            tracer=old_comm.tracer,
        )
        self.comm.traffic = old_comm.traffic
        self.comm.ledger = old_comm.ledger
        for r in self.ranks:
            if r.node is not self.node0:
                r.node.close()
        self._build_partition(self.solver)
        if self.momentum is not None:
            self._install_momentum(self.solver)
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
        mesh = self.solver.problem.mesh
        from repro.fem.partition import partition_rcb

        centroids = mesh.zone_vertex_coords().mean(axis=1)
        self.zone_rank = np.asarray(
            partition_rcb(centroids, new_nranks), dtype=np.int64
        )
        old_nranks = self.nranks
        self.nranks = new_nranks
        old_comm = self.comm
        self.comm = SimulatedComm(
            new_nranks,
            fault_injector=old_comm.fault_injector,
            cost_model=old_comm.cost_model,
            tracer=old_comm.tracer,
        )
        self.comm.traffic = old_comm.traffic
        self.comm.ledger = old_comm.ledger
        for r in self.ranks:
            if r.node is not self.node0:
                r.node.close()
        self._build_partition(self.solver)
        if self.momentum is not None:
            self._install_momentum(self.solver)
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
            mesh = self.solver.problem.mesh
            zone_rank = self._zone_rank_init
            if zone_rank is None:
                from repro.fem.partition import partition_rcb

                centroids = mesh.zone_vertex_coords().mean(axis=1)
                zone_rank = partition_rcb(centroids, self._initial_nranks)
            self.zone_rank = np.asarray(zone_rank, dtype=np.int64)
            self.nranks = self._initial_nranks
            old_comm = self.comm
            self.comm = SimulatedComm(
                self.nranks,
                fault_injector=old_comm.fault_injector,
                cost_model=old_comm.cost_model,
                tracer=old_comm.tracer,
            )
            self._vectorized = self._resolve_vectorized()
            for r in self.ranks:
                if r.node is not self.node0:
                    r.node.close()
            self._build_partition(self.solver)
            if self.momentum is not None:
                self._install_momentum(self.solver)
        else:
            from repro.runtime.mpi_sim import CommLedger, _Traffic

            self.comm.traffic = _Traffic()
            self.comm.ledger = CommLedger()
            if self.momentum is not None:
                self.momentum.comm = self.comm
        self.rank_history = []
        self._schedule_fired = set()

    # -- Housekeeping --------------------------------------------------------

    def close(self) -> None:
        for r in self.ranks:
            if r.node is not self.node0:
                r.node.close()
        if self.node0 is not None:
            self.node0.close()

    def describe(self) -> dict:
        out = {
            "backend": self.name,
            "ranks": self.nranks,
            "node": self.node_name,
            "overlap": self.overlap,
            "rank_step": (
                ("vectorized" if self._vectorized else "loop")
                if self.comm is not None
                else self.rank_step
            ),
        }
        if self.rank_schedule:
            out["rank_schedule"] = dict(self.rank_schedule)
        if self.rank_history:
            out["rank_history"] = list(self.rank_history)
        if self.node0 is not None:
            out["node_detail"] = self.node0.describe()
        return out
