"""Corner force assembly — the computational hot spot of BLAST.

Implements equation (4)/(5)/(6): per zone z, the corner force matrix

    F_z = A_z B^T,
    (A_z)_{(i,d),k} = alpha_k [ sigma_hat(q_k) : J_z^{-1}(q_k)
                                 grad_hat w_i(q_k) e_d ] |J_z(q_k)|,
    (B)_{j,k} = phi_hat_j(q_k),

followed by the two contractions the time integrator needs: -F.1
(momentum right-hand side, kernel 8) and F^T v (energy right-hand side,
kernel 10).

Two formulations are provided:

* `ForceEngine` — the *batched* formulation of the paper's GPU redesign,
  as a zero-allocation hot path mirroring its kernels: the pointwise
  stage (kernels 1-4: adjugates, determinants, the velocity gradient,
  EOS, the viscosity eigenpairs and sigma_min) is closed-form
  elementwise arithmetic over all zones and quadrature points at once,
  and the basis contractions are GEMMs (`np.matmul`) against the
  constant `grad_table` and B — the Jacobian and the reference velocity
  gradient, then F_z as the paper's A_z (kernels 5/6) followed by
  A_z B^T (kernel 7), and F^T v as a batched GEMV. Every intermediate
  writes into a `Workspace` buffer, and geometry is evaluated once per
  RK2 stage into a read-only per-`x` cache. The stages run under the
  span labels of the paper's Table 2 so the hardware cost models can
  meter each kernel. `SumfactForceEngine` is its matrix-free,
  sum-factorized subclass.
* `corner_force_loops` — the original CPU structure (outer loop over
  zones, inner loop over quadrature points, scalar math per point, the
  stress from `tensor_viscosity`), kept as the independently-written
  reference the batched path is validated against. The two agree to a
  few ULPs (~1e-15 relative; the batched arithmetic reorders
  mathematically-identical floating point).

The same stages also evaluate any zone subset prepared with
`prepare_subset` (`compute_subset`): the zone-parallel executor's chunks
go through that entry. The simulated ranks evaluate through `compute`
itself, like every single-process backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fem.geometry import GeometryAtPoints, GeometryEvaluator, reference_gradients
from repro.fem.quadrature import QuadratureRule
from repro.fem.spaces import H1Space, L2Space
from repro.hydro.state import HydroState
from repro.hydro.viscosity import ViscosityCoefficients, ViscosityKernel, tensor_viscosity
from repro.hydro.workspace import Workspace
from repro.kernels.base import span_label
from repro.linalg.smallmat import batched_adjugate, batched_det, batched_matmul
from repro.linalg.svd_small import batched_singular_values
from repro.telemetry.tracer import NULL_SPAN

__all__ = [
    "ForceEngine",
    "ForceResult",
    "PointData",
    "SumfactForceEngine",
    "SumfactStress",
    "ZoneSubset",
    "corner_force_loops",
]

# Table 2 span names for the kernel-aligned stages of the fused path:
# geometry (adjugate/det/SVD), pointwise stress (EoS + grad v + viscosity),
# and the force assembly (A_z, then A_z B^T: kernels 5/6 and 7).
_K_GEOMETRY = span_label(1)
_K_STRESS = span_label(2)
_K_FORCE = span_label(7)


@dataclass
class PointData:
    """Per-(zone, quadrature point) thermodynamic fields."""

    rho: np.ndarray
    e: np.ndarray
    pressure: np.ndarray
    sound_speed: np.ndarray
    grad_v: np.ndarray
    sigma: np.ndarray
    mu_max: np.ndarray


@dataclass
class ForceResult:
    """Output of one corner-force evaluation.

    Fz has layout (nzones, ndof_h1_zone, dim, ndof_l2_zone); the paper's
    2D matrix view flattens (i, d) into the row index (e.g. 81 x 8 for
    3D Q2-Q1 zones). `dt_zones` holds the per-zone CFL minima of the
    evaluated zones (dt_est is their min); an invalid result has none.
    """

    Fz: np.ndarray
    geometry: GeometryAtPoints
    points: PointData
    dt_est: float
    valid: bool = True
    dt_zones: np.ndarray | None = field(default=None, repr=False)


@dataclass(eq=False)
class ZoneSubset:
    """A zone subset prepared once for `ForceEngine.compute_subset`.

    Everything that depends only on the zone ids is gathered here when
    the subset is prepared: the kinematic and L2 gather rows, the rows
    of the conserved pointwise mass, and the slice of a per-zone-gamma
    EOS. The private `workspace` (on the engine's arena) leases its
    buffers on the first evaluation, so later evaluations of the same
    subset allocate nothing.
    """

    zones: np.ndarray    # (n,) zone ids
    ldof: np.ndarray     # (n, ndof_h1_zone) kinematic gather rows
    ldof_l2: np.ndarray  # (n, ndof_l2_zone) thermodynamic gather rows
    mass_qp: np.ndarray  # (n, nqp) rho0 |J0| rows
    eos: object
    workspace: Workspace


class ForceEngine:
    """Batched corner-force evaluator (the redesigned formulation).

    Parameters
    ----------
    kinematic, thermodynamic : the Qk / Qk-1 spaces.
    quad : shared quadrature rule (2k points per dimension reproduces
        the paper's operator shapes).
    eos : object with pressure(rho, e) and sound_speed(rho, e).
    rho0_qp : (nzones, nqp) initial density at quadrature points.
    geometry0 : initial-configuration geometry (sets the conserved
        pointwise mass rho0 |J0|).
    viscosity : tensor artificial viscosity coefficients.
    workspace : buffer pool for every intermediate (a private one is
        created when omitted); subset workspaces share its arena.
    tracer : optional enabled `repro.telemetry.Tracer`; when given, the
        full-batch `compute` emits one "kernel"-category span per
        Table 2 stage (geometry / pointwise stress / force assembly).
    """

    def __init__(
        self,
        kinematic: H1Space,
        thermodynamic: L2Space,
        quad: QuadratureRule,
        eos,
        rho0_qp: np.ndarray,
        geometry0: GeometryAtPoints,
        viscosity: ViscosityCoefficients | None = None,
        workspace: Workspace | None = None,
        tracer=None,
    ):
        if kinematic.mesh is not thermodynamic.mesh:
            raise ValueError("spaces must share a mesh")
        self.kinematic = kinematic
        self.thermodynamic = thermodynamic
        self.quad = quad
        self.eos = eos
        self.viscosity = viscosity or ViscosityCoefficients()
        self.geom_eval = GeometryEvaluator(kinematic, quad)
        self.grad_table = self.geom_eval.grad_table  # (nqp, ndzH1, dim)
        self.B = thermodynamic.element.tabulate_B(quad)  # (ndzL2, nqp)
        self.basis_l2 = thermodynamic.element.tabulate(quad.points)  # (nqp, ndzL2)
        rho0_qp = np.asarray(rho0_qp, dtype=np.float64)
        if rho0_qp.shape != (kinematic.mesh.nzones, quad.nqp):
            raise ValueError("rho0_qp must be (nzones, nqp)")
        if not geometry0.check_valid():
            raise ValueError("initial geometry is tangled (det J0 <= 0)")
        # Strong mass conservation: rho(q,t) |J(q,t)| = rho0 |J0| forever.
        self.mass_qp = rho0_qp * geometry0.det
        self.order = kinematic.order
        self.workspace = workspace if workspace is not None else Workspace()
        self.tracer = tracer if (tracer is not None and tracer.enabled) else None
        self._ldof = kinematic.ldof
        self._fz_shape = (
            kinematic.mesh.nzones, kinematic.ndof_per_zone, kinematic.dim,
            thermodynamic.ndof_per_zone,
        )
        # (ndl2, nqp) contiguous for the e interpolation matmul.
        self.basis_l2_T = np.ascontiguousarray(self.basis_l2.T)
        # Per-x geometry cache: two rotating slots keyed on array identity,
        # so the two most recent stage geometries stay live (RK2Avg needs
        # exactly that: the mid-step eval plus the end-of-step check, the
        # latter re-used as the next step's begin-of-step geometry).
        self._geo_cache: list[tuple[object, GeometryAtPoints] | None] = [None, None]
        self._geo_mru = 0
        self._fz_slot = 0
        # Live subsets from `prepare_subset`, so solver retirement can
        # return their workspace leases (`release_subset` drops one).
        self.subsets: list[ZoneSubset] = []
        # Constant operands of the force GEMMs, the size of grad_table and
        # B: gradW^T per point (a view) and the weighted (alpha_k B[j, k])^T.
        self._grad_T = self.grad_table.transpose(0, 2, 1)[:, None]  # (nqp, 1, dim, ndz)
        self._bw_T = np.ascontiguousarray((self.B * quad.weights).T)  # (nqp, ndl2)
        self._minus_one = np.full(thermodynamic.ndof_per_zone, -1.0)
        self._visc_kernel = ViscosityKernel(self.viscosity, self.order)

    # -- Kernel-aligned stages ---------------------------------------------

    def point_geometry(self, x: np.ndarray) -> GeometryAtPoints:
        """Kernels 1/3: Jacobians, determinants, adjugates at all points.

        Cached per `x` array (identity-keyed): each RK2 stage evaluates
        geometry exactly once and every consumer — corner force,
        viscosity length scales, dt control, validity checks — reads the
        same frozen `GeometryAtPoints`. The returned
        arrays are read-only; callers must treat `x` as immutable once
        passed in (all integrators allocate fresh position arrays).
        """
        for slot in (0, 1):
            entry = self._geo_cache[slot]
            if entry is not None and entry[0] is x:
                self._geo_mru = slot
                return entry[1]
        slot = 1 - self._geo_mru
        geo = self._zone_geometry(self.workspace, x, self._ldof, f"geo{slot}.")
        geo.freeze()
        self._geo_cache[slot] = (x, geo)
        self._geo_mru = slot
        return geo

    def _zone_geometry(
        self, ws: Workspace, x: np.ndarray, ldof: np.ndarray, prefix: str
    ) -> GeometryAtPoints:
        """Kernels 1/3 for the zones whose gather rows are `ldof`.

        Writes the gathered coordinates, Jacobians, determinants,
        adjugates and (for untangled zones) inverses into `ws` buffers,
        the geometry arrays under names starting with `prefix`.
        """
        n, ndz = ldof.shape
        dim = self.kinematic.dim
        nqp = self.quad.nqp
        xc = ws.get("xc", (dim, n, ndz))
        np.take(x.T, ldof, axis=1, out=xc)
        jac = ws.get(f"{prefix}jac", (n, nqp, dim, dim))
        self._jacobians(xc, jac)
        det = ws.get(f"{prefix}det", (n, nqp))
        batched_det(jac, out=det)
        adj = ws.get(f"{prefix}adj", (n, nqp, dim, dim))
        batched_adjugate(jac, out=adj)
        geo = GeometryAtPoints(jac, det=det, adj=adj)
        if geo.check_valid():
            inv = ws.get(f"{prefix}inv", (n, nqp, dim, dim))
            np.divide(adj, det[..., None, None], out=inv)
            geo.set_inv(inv)
        return geo

    def _jacobians(self, xc: np.ndarray, jac: np.ndarray) -> None:
        """Kernel 1: jac[z,k,d,e] = sum_i xc[d,z,i] gradW[k,i,e] (GEMMs)."""
        reference_gradients(xc, self.grad_table, jac)

    def force_times_one(self, Fz: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Kernel 8: per-zone -F.1 contribution (before global scatter) as
        one GEMV against -1, into `out` (default: the engine's buffer for
        the full batch)."""
        if out is None:
            if Fz.shape == self._fz_shape:
                out = self.workspace.get("rhs_mom_z", Fz.shape[:-1])
            else:
                out = np.empty(Fz.shape[:-1])
        np.matmul(Fz.reshape(-1, Fz.shape[-1]), self._minus_one, out=out.reshape(-1))
        return out

    def force_transpose_times_v(self, Fz: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Kernel 10: per-zone F^T v as one batched GEMV (flat L2 layout)."""
        n, ndz, dim, ndl2 = Fz.shape
        if Fz.shape == self._fz_shape:
            ws = self.workspace
            vz = ws.get("vz_energy", (n, ndz, dim))
            np.take(v, self._ldof, axis=0, out=vz)
            out = ws.get("rhs_energy_z", (n, ndl2))
        else:
            vz = self.kinematic.gather(v)
            out = np.empty((n, ndl2))
        np.matmul(
            vz.reshape(n, 1, ndz * dim), Fz.reshape(n, ndz * dim, ndl2),
            out=out.reshape(n, 1, ndl2),
        )
        return self.thermodynamic.scatter(out)

    def _dt_points(self, points: PointData, geo: GeometryAtPoints) -> np.ndarray:
        """Per-point CFL limits, (nzones, nqp).

        h = sigma_min(J) / order is the minimal directional zone length
        (the SVD of kernel 1); the viscous term adds mu / (rho h) to the
        acoustic speed, following the reference scheme.
        """
        smin = batched_singular_values(geo.jac)[..., 0]
        h = np.maximum(smin / max(self.order, 1), 1e-300)
        speed = points.sound_speed + 2.0 * points.mu_max / (points.rho * h)
        return h / np.maximum(speed, 1e-300)

    def _dt_result(
        self, ws: Workspace, Fz, geo: GeometryAtPoints, points: PointData
    ) -> ForceResult:
        """A valid result whose `dt_zones` (in the `ws` buffer) holds the
        per-zone minima of one `_dt_points` pass; dt_est is their min
        (exact, so the same value as the min over every point)."""
        dt_zones = ws.get("dt_zones", (geo.det.shape[0],))
        np.min(self._dt_points(points, geo), axis=1, out=dt_zones)
        return ForceResult(Fz, geo, points, float(dt_zones.min(initial=np.inf)),
                           valid=True, dt_zones=dt_zones)

    def prepare_subset(self, zone_ids) -> ZoneSubset:
        """Prepare a zone subset for `compute_subset`; the engine keeps
        it (`subsets`) until `release_subset`."""
        zones = np.asarray(zone_ids, dtype=np.int64).reshape(-1)
        subset = ZoneSubset(
            zones=zones,
            ldof=self._ldof[zones],
            ldof_l2=self.thermodynamic.ldof[zones],
            mass_qp=self.mass_qp[zones],
            eos=self._eos_for_zones(zones),
            workspace=Workspace(arena=self.workspace.arena),
        )
        self.subsets.append(subset)
        return subset

    def release_subset(self, subset: ZoneSubset) -> None:
        """Return a subset's workspace leases to the arena and drop it."""
        subset.workspace.close()
        self.subsets.remove(subset)

    def _eos_for_zones(self, zone_ids: np.ndarray):
        """Slice a per-zone-gamma EOS down to a zone subset."""
        gamma = getattr(self.eos, "gamma", None)
        if gamma is None or np.ndim(gamma) == 0:
            return self.eos
        g = np.asarray(gamma).reshape(self.kinematic.mesh.nzones, -1)
        return type(self.eos)(g[zone_ids])

    def compute_subset(self, state: HydroState, subset: ZoneSubset) -> ForceResult:
        """Fused corner-force evaluation of a prepared zone subset.

        The per-zone arithmetic is `compute`'s (the same elementwise
        stages and GEMMs) on the subset's gathered rows, and every
        contraction reduces within a zone: the subset of every zone in
        order gives the bits of the full-batch `compute`, and a fixed
        partition gives the same bits however its subsets are scheduled.
        Other subsets agree with the full-batch rows up to the GEMMs'
        BLAS blocking (~1e-18 absolute).

        `Fz` (leading dimension len(zones)), geometry and points live in
        the subset's workspace until its next evaluation; `dt_zones`
        holds the per-zone CFL minima of the one `_dt_points` pass. An
        empty subset gives a valid zero-row result with dt_est = inf.
        """
        n = subset.zones.size
        _, ndz, dim, ndl2 = self._fz_shape
        ws = subset.workspace
        geo = self._zone_geometry(ws, state.x, subset.ldof, "")
        if not geo.check_valid():
            return ForceResult(np.zeros((n, ndz, dim, ndl2)), geo, None, 0.0, valid=False)
        ez = ws.get("ez", (n, ndl2))
        np.take(state.e, subset.ldof_l2, axis=0, out=ez)
        Fz, points = self._fused_stages(
            ws, geo, state.v, subset.ldof, ez, subset.mass_qp, subset.eos, "Fz", None
        )
        return self._dt_result(ws, Fz, geo, points)

    def _fused_stages(
        self, ws: Workspace, geo: GeometryAtPoints, v: np.ndarray, ldof: np.ndarray,
        ez: np.ndarray, mass_qp: np.ndarray, eos, fz_name: str, tr,
    ) -> tuple[np.ndarray, PointData]:
        """Kernels 2/4 and the kernel 5/6/7 force assembly into the `ws`
        buffer `fz_name`, shared by the full batch and zone subsets:
        `ldof`, `ez`, `mass_qp` and `eos` are the zones' velocity gather
        rows, L2 energy coefficients, pointwise mass and EOS; `tr` gets
        one kernel span per stage (None: no spans).

        The pointwise stage is elementwise over all points; the
        contractions are GEMMs. With T = sigma adj(J)^T per point,

            A_z[k,d,z,i] = sum_r T[z,k,d,r] gradW[k,i,r]  (kernels 5/6)
            F_z[z,i,d,j] = sum_k A_z[k,d,z,i] alpha_k B[j,k]  (kernel 7)

        — one GEMM per (point, component) pair, then `dim` GEMMs against
        the weighted B, so no operator larger than `grad_table` or B
        is ever formed.
        """
        n, nqp = geo.det.shape
        ndz, dim = ldof.shape[1], self.kinematic.dim
        ndl2 = self._fz_shape[-1]
        plane = ws.get("plane", (n, nqp))
        with tr.span(_K_STRESS, category="kernel") if tr else NULL_SPAN:
            rho = ws.get("rho", (n, nqp))
            np.divide(mass_qp, geo.det, out=rho)
            e_qp = ws.get("e_qp", (n, nqp))
            np.matmul(ez, self.basis_l2_T, out=e_qp)
            p = eos.pressure(rho, e_qp)
            cs = eos.sound_speed(rho, e_qp)
            vc = ws.get("vc", (dim, n, ndz))
            np.take(v.T, ldof, axis=1, out=vc)
            ref_grad = ws.get("ref_grad_v", (n, nqp, dim, dim))
            reference_gradients(vc, self.grad_table, ref_grad)
            grad_v = ws.get("grad_v", (n, nqp, dim, dim))
            batched_matmul(ref_grad, geo.inv, grad_v, plane)
            sigma, mu_max = self._visc_kernel.compute(grad_v, geo, rho, cs, ws)
            for d in range(dim):
                sigma[..., d, d] -= p
        Fz = ws.get(fz_name, (n,) + self._fz_shape[1:])
        with tr.span(_K_FORCE, category="kernel") if tr else NULL_SPAN:
            T = ws.get("T", (n, nqp, dim, dim))
            batched_matmul(sigma, geo.adj.swapaxes(-1, -2), T, plane)
            Az = ws.get("Az", (nqp, dim, n, ndz))
            np.matmul(T.transpose(1, 2, 0, 3), self._grad_T, out=Az)
            F = Fz.reshape(n * ndz, dim, ndl2)
            for d in range(dim):
                np.matmul(Az[:, d].reshape(nqp, n * ndz).T, self._bw_T, out=F[:, d, :])
        return Fz, PointData(rho, e_qp, p, cs, grad_v, sigma, mu_max)

    def compute(self, state: HydroState) -> ForceResult:
        """Full corner-force evaluation at the given state: the per-`x`
        cached geometry, the fused stages, a double-buffered F_z (the
        two most recent results stay live across RK2's stages) and the
        per-zone dt minima."""
        tr = self.tracer
        with tr.span(_K_GEOMETRY, category="kernel") if tr else NULL_SPAN:
            geo = self.point_geometry(state.x)
        if not geo.check_valid():
            return ForceResult(
                Fz=np.zeros(self._fz_shape),
                geometry=geo,
                points=None,
                dt_est=0.0,
                valid=False,
            )
        slot = self._fz_slot
        self._fz_slot = 1 - slot
        Fz, points = self._fused_stages(
            self.workspace, geo, state.v, self._ldof,
            self.thermodynamic.gather(state.e),  # reshape view, no copy
            self.mass_qp, self.eos, f"Fz{slot}", tr,
        )
        return self._dt_result(self.workspace, Fz, geo, points)


class SumfactStress:
    """Matrix-free stand-in for the dense corner-force matrix F_z.

    Carries the weighted quadrature-point stress

        T[z,k,d,r] = alpha_k sum_e sigma[z,k,d,e] adj(J)[z,k,r,e],

    which determines F_z exactly (F_z[z,i,d,j] = sum_{k,r} B[j,k]
    gradW[k,i,r] T[z,k,d,r]) but is O(nqp dim^2) per zone instead of
    O(ndz dim ndl2). The integrator only ever consumes F_z through
    `force_times_one` and `force_transpose_times_v`, and the sumfact
    engine applies both directly from T through the 1D contraction
    chains — the dense matrix is never materialized on this path.

    `shape` mirrors the dense layout so shape-keyed consumers can still
    identify the full-batch result.
    """

    __slots__ = ("T", "shape")

    def __init__(self, T: np.ndarray, fz_shape: tuple[int, int, int, int]):
        self.T = T
        self.shape = fz_shape


class SumfactForceEngine(ForceEngine):
    """Sum-factorized corner-force evaluator (matrix-free formulation).

    Same physics and kernel staging as the fused `ForceEngine`, but every
    basis contraction — geometry Jacobians, reference velocity gradients,
    L2 energy interpolation, and both force applications — runs through
    the 1D tensor-product chains of `fem.sumfact`: O(order^{d+1}) work
    per zone instead of the dense tables' O(order^{2d}). The dense F_z is
    never formed; `compute` returns a `SumfactStress` and the two
    integrator-facing applications are overridden to consume it.

    Agrees with the fused engine to contraction-reordering roundoff (the
    documented parity budget is 1e-10 relative per evaluation). The
    geometry cache and the fused `compute_subset` are inherited (over
    the factorized Jacobians). Under ranks a sumfact node runs this
    `compute`, as in a single process, and the resilience layer composes
    as with the other engines.
    """

    sumfact = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        from repro.fem.sumfact import SumFactorizedOperators

        self._ops_h1 = SumFactorizedOperators(self.kinematic.element, self.quad)
        self._ops_l2 = SumFactorizedOperators(self.thermodynamic.element, self.quad)
        # Column sums of B (== 1 by partition of unity, kept exact): the
        # F.1 contraction reduces the L2 index analytically.
        self._b_colsum = np.ascontiguousarray(self.B.sum(axis=0))
        self._t_slot = 0

    # -- kernel-aligned stages, factorized ----------------------------------

    def _jacobians(self, xc: np.ndarray, jac: np.ndarray) -> None:
        """Kernel 1 factorized: jac[z,k,d,:] is the reference gradient of
        coordinate component d, contracted one 1D axis at a time."""
        for d in range(xc.shape[0]):
            self._ops_h1.apply_G(xc[d], out=jac[:, :, d, :])

    def compute(self, state: HydroState) -> ForceResult:
        """Workspace-backed factorized evaluation ending in T, not F_z."""
        ws = self.workspace
        nz, ndz, dim, ndl2 = self._fz_shape
        nqp = self.quad.nqp
        tr = self.tracer
        with tr.span(_K_GEOMETRY, category="kernel") if tr else NULL_SPAN:
            geo = self.point_geometry(state.x)
        if not geo.check_valid():
            return ForceResult(
                Fz=np.zeros(self._fz_shape),
                geometry=geo,
                points=None,
                dt_est=0.0,
                valid=False,
            )
        with tr.span(_K_STRESS, category="kernel") if tr else NULL_SPAN:
            rho = ws.get("rho", (nz, nqp))
            np.divide(self.mass_qp, geo.det, out=rho)
            ez = self.thermodynamic.gather(state.e)  # reshape view, no copy
            e_qp = ws.get("e_qp", (nz, nqp))
            self._ops_l2.apply_B(ez, out=e_qp)
            p = self.eos.pressure(rho, e_qp)
            cs = self.eos.sound_speed(rho, e_qp)
            vc = ws.get("vc", (dim, nz, ndz))
            np.take(state.v.T, self._ldof, axis=1, out=vc)
            ref_grad = ws.get("sf.refgrad_v", (nz, nqp, dim, dim))
            for d in range(dim):
                self._ops_h1.apply_G(vc[d], out=ref_grad[:, :, d, :])
            plane = ws.get("plane", (nz, nqp))
            grad_v = ws.get("grad_v", (nz, nqp, dim, dim))
            batched_matmul(ref_grad, geo.inv, grad_v, plane)
            sigma, mu_max = self._visc_kernel.compute(grad_v, geo, rho, cs, ws)
            for d in range(dim):
                sigma[..., d, d] -= p
        slot = self._t_slot
        self._t_slot = 1 - slot
        T = ws.get(f"sf.T{slot}", (nz, nqp, dim, dim))
        with tr.span(_K_FORCE, category="kernel") if tr else NULL_SPAN:
            batched_matmul(sigma, geo.adj.swapaxes(-1, -2), T, plane)
            T *= self.quad.weights[:, None, None]
        points = PointData(rho, e_qp, p, cs, grad_v, sigma, mu_max)
        return self._dt_result(ws, SumfactStress(T, self._fz_shape), geo, points)

    # -- matrix-free force applications --------------------------------------

    def force_times_one(self, Fz, out: np.ndarray | None = None) -> np.ndarray:
        """Kernel 8 from T: -F.1 = -G^T (colsum(B) * T) per component."""
        if not isinstance(Fz, SumfactStress):
            return super().force_times_one(Fz, out)
        ws = self.workspace
        nz, ndz, dim, _ = self._fz_shape
        nqp = self.quad.nqp
        out = ws.get("rhs_mom_z", (nz, ndz, dim))
        weighted = ws.get("sf.f1_weighted", (nz, nqp, dim))
        for d in range(dim):
            np.multiply(Fz.T[:, :, d, :], self._b_colsum[None, :, None], out=weighted)
            self._ops_h1.apply_G_T(weighted, out=out[:, :, d])
        np.negative(out, out=out)
        return out

    def force_transpose_times_v(self, Fz, v: np.ndarray) -> np.ndarray:
        """Kernel 10 from T: F^T v = B_l2^T (T : grad_ref v)."""
        if not isinstance(Fz, SumfactStress):
            return super().force_transpose_times_v(Fz, v)
        ws = self.workspace
        nz, ndz, dim, ndl2 = self._fz_shape
        nqp = self.quad.nqp
        vc = ws.get("sf.vc_energy", (dim, nz, ndz))
        np.take(v.T, self._ldof, axis=1, out=vc)
        ref_grad = ws.get("sf.refgrad_e", (nz, nqp, dim, dim))
        for d in range(dim):
            self._ops_h1.apply_G(vc[d], out=ref_grad[:, :, d, :])
        np.multiply(ref_grad, Fz.T, out=ref_grad)
        contracted = ws.get("sf.contract_e", (nz, nqp))
        np.sum(ref_grad.reshape(nz, nqp, dim * dim), axis=-1, out=contracted)
        out = ws.get("rhs_energy_z", (nz, ndl2))
        self._ops_l2.apply_B_T(contracted, out=out)
        return self.thermodynamic.scatter(out)

    def dense_force(self, Fz) -> np.ndarray:
        """Materialize the dense F_z from a `SumfactStress` (tests/benches).

        Not part of the hot path — parity checks against the fused
        engine need the full matrix.
        """
        if not isinstance(Fz, SumfactStress):
            return np.asarray(Fz)
        return np.einsum("zkdr,kir,jk->zidj", Fz.T, self.grad_table, self.B, optimize=True)


def corner_force_loops(engine: ForceEngine, state: HydroState) -> np.ndarray:
    """Reference CPU formulation: explicit zone / quadrature-point loops.

    Mirrors the paper's step 4/4.1/4.2 structure with scalar math at each
    point. O(nzones * nqp) Python-level iterations — use on small meshes
    to validate the batched engine.
    """
    mesh = engine.kinematic.mesh
    dim = mesh.dim
    nqp = engine.quad.nqp
    ndz = engine.kinematic.ndof_per_zone
    ndl2 = engine.thermodynamic.ndof_per_zone
    xz = engine.kinematic.gather(state.x)
    vz = engine.kinematic.gather(state.v)
    ez = engine.thermodynamic.gather(state.e)
    Fz = np.zeros((mesh.nzones, ndz, dim, ndl2))
    eye = np.eye(dim)

    def zone_eos(z: int):
        """Per-zone scalar-gamma view of a (possibly per-zone) EOS."""
        gamma = getattr(engine.eos, "gamma", None)
        if gamma is None or np.ndim(gamma) == 0:
            return engine.eos
        g = float(np.asarray(gamma).reshape(mesh.nzones, -1)[z, 0])
        return type(engine.eos)(g)

    for z in range(mesh.nzones):
        eos_z = zone_eos(z)
        for k in range(nqp):
            gw = engine.grad_table[k]  # (ndz, dim)
            jac = xz[z].T @ gw  # (dim, dim)
            det = np.linalg.det(jac)
            if det <= 0:
                raise RuntimeError(f"tangled zone {z} at point {k}")
            jinv = np.linalg.inv(jac)
            rho = engine.mass_qp[z, k] / det
            e_pt = float(engine.basis_l2[k] @ ez[z])
            p = float(np.asarray(eos_z.pressure(rho, e_pt)))
            cs = float(np.asarray(eos_z.sound_speed(rho, e_pt)))
            grad_v = vz[z].T @ gw @ jinv
            sigma_visc, _ = tensor_viscosity(
                grad_v[None], jac[None], np.array([rho]), np.array([cs]), engine.order, engine.viscosity
            )
            sigma = sigma_visc[0] - p * eye
            alpha = engine.quad.weights[k]
            contraction = gw @ (det * jinv) @ sigma.T  # (ndz, dim)
            for j in range(ndl2):
                Fz[z, :, :, j] += alpha * contraction * engine.B[j, k]
    return Fz
