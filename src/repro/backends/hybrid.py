"""`HybridBackend`: functional zone split priced by the simulated GPU.

Per the repro substitution rule, the "GPU side" of the paper's
CUDA+OpenMP split *executes* as the fused NumPy path (the same
full-batch evaluation as `cpu-fused`, hence bitwise-identical physics)
while a simulated device prices what the split *would* cost: the
fraction `ratio` of zones on the modelled GPU (roofline kernel times +
PCIe state traffic), the remainder on the modelled host cores. These
model times are what the in-band scheduler (`repro.sched`) feeds to the
Section 3.3 `AutoBalancer` — the convergence dynamics are the paper's,
the arithmetic is NumPy's.
"""

from __future__ import annotations

from repro.backends.cpu import _EngineBackend
from repro.kernels.registry import KernelSelection, corner_force_costs

__all__ = ["HybridBackend"]

#: Host-side corner-force slowdown of the legacy (unfused) engine
#: relative to the fused hot path — the ratio the PR-2 benchmarks
#: measured between `cpu-serial` and `cpu-fused` assembly.
LEGACY_FUSION_FACTOR = 1.75

#: Zone-chunking U-curve for the host workers: tiny chunks pay
#: per-chunk dispatch overhead, huge chunks lose cache locality. The
#: coefficients put the optimum at a moderate chunk (4 zones).
def _chunk_factor(chunk: int) -> float:
    return 1.0 + 0.06 / chunk + 0.04 * (chunk - 1) / 8.0


class HybridBackend(_EngineBackend):
    """Fused execution + simulated-device pricing of a CPU/GPU zone split.

    Parameters
    ----------
    device : simulated GPU catalog name carrying the split's GPU side.
    cpu : simulated CPU catalog name for the host side.
    ratio : initial fraction of zones priced on the GPU (the scheduler
        moves this; 0.5 is the paper's cold start).
    selection : tuned kernel parameters; None = feasibility defaults
        until a campaign (offline or in-band) supplies winners.
    """

    name = "hybrid"
    fused = True

    def __init__(
        self,
        device: str = "K20",
        cpu: str = "E5-2670",
        ratio: float = 0.5,
        selection: KernelSelection | None = None,
    ):
        super().__init__()
        if not (0.0 < ratio < 1.0):
            raise ValueError("ratio must be in (0, 1)")
        self.device = device
        self.cpu_name = cpu
        self.ratio = float(ratio)
        self.selection = selection or KernelSelection()
        # Runtime knobs the joint tuning space also searches: which
        # corner-force engine the host side runs and how many zones one
        # worker chunk carries. Defaults = the untuned cold start.
        self.fusion = "fused"
        self.chunk = 1
        self.gpu = None
        self.fe_cfg = None
        self._pricer = None
        self._gpu_stage_s = None  # cached full-batch GPU stage seconds
        self._pcie_s = None  # cached state-traffic seconds (selection-free)
        self._cpu_base_s = None  # cached fused single-chunk host seconds
        self._sumfact_factor = None  # cached sumfact/dense modeled-work ratio
        self._phase_memo: dict = {}  # (k3, k5, k7) -> GPU phase (time, energy)

    @classmethod
    def for_pricing(
        cls, fe_cfg, device: str = "K20", cpu: str = "E5-2670"
    ) -> "HybridBackend":
        """A detached pricing harness over an explicit `FEConfig`.

        Offline campaigns (`repro tune campaign`, tests) need
        `measure_candidate` without marching a solver; this wires the
        device models directly instead of `_post_attach`.
        """
        from repro.cpu import get_cpu
        from repro.gpu import get_gpu
        from repro.runtime.hybrid import HybridExecutor

        self = cls(device=device, cpu=cpu)
        self.gpu = get_gpu(device)
        self.fe_cfg = fe_cfg
        self._pricer = HybridExecutor(fe_cfg, get_cpu(cpu), self.gpu, nmpi=1)
        self._reprice()
        return self

    def _post_attach(self) -> None:
        from repro.cpu import get_cpu
        from repro.gpu import get_gpu
        from repro.kernels.config import FEConfig
        from repro.runtime.hybrid import HybridExecutor

        self.gpu = get_gpu(self.device)
        self.fe_cfg = FEConfig.from_solver(self.solver)
        self._pricer = HybridExecutor(
            self.fe_cfg, get_cpu(self.cpu_name), self.gpu, nmpi=1
        )
        self._reprice()

    def tuning_target(self):
        """A hybrid backend is its own scheduler target."""
        return self

    # -- Pricing model (what the scheduler measures) ------------------------

    def _reprice(self) -> None:
        """Recompute the full-batch model times for the current selection."""
        from repro.gpu.pcie import PCIeModel

        if self._pcie_s is None:
            # State traffic and the fused host baseline depend only on
            # the FE config — price them once, not per candidate.
            pcie = PCIeModel(self.gpu)
            plan = pcie.state_vectors_plan(
                self.fe_cfg.kinematic_ndof_estimate,
                self.fe_cfg.nzones * self.fe_cfg.ndof_thermo_zone,
                self.fe_cfg.dim,
            )
            self._pcie_s = pcie.transfer_time_s(plan.total, ncalls=5)
            self._cpu_base_s = self._pricer._cpu_corner_force_s()
        sel = self.selection
        time_s, _ = self._gpu_phase(
            sel.gemm_matrices_per_block, sel.batched_matrices_per_block,
            sel.block_cols,
        )
        self._gpu_stage_s = time_s + self._pcie_s
        self._cpu_stage_s = self._cpu_base_s * self._runtime_factor()

    def _gpu_phase(self, k3, k5, k7) -> tuple[float, float]:
        """Memoized GPU corner-force phase (seconds, joules) for a tiling."""
        from repro.gpu.device import SimulatedGPU

        key = (k3, k5, k7)
        if key not in self._phase_memo:
            costs = corner_force_costs(
                self.fe_cfg, "optimized",
                selection=KernelSelection(
                    gemm_matrices_per_block=k3,
                    batched_matrices_per_block=k5,
                    block_cols=k7,
                ),
            )
            phase = SimulatedGPU(self.gpu).run_phase(costs)
            self._phase_memo[key] = (phase.time_s, phase.energy_j)
        return self._phase_memo[key]

    def _runtime_factor(self, fusion: str | None = None, chunk: int | None = None):
        """Host-side cost multiplier of the (fusion, chunk) runtime pair."""
        fusion = self.fusion if fusion is None else fusion
        chunk = self.chunk if chunk is None else chunk
        if fusion == "fused":
            factor = 1.0
        elif fusion == "sumfact":
            if self._sumfact_factor is None:
                from repro.fem.sumfact import sumfact_host_factor

                self._sumfact_factor = sumfact_host_factor(self.fe_cfg)
            factor = self._sumfact_factor
        else:
            factor = LEGACY_FUSION_FACTOR
        return factor * _chunk_factor(chunk)

    def gpu_time_s(self, ratio: float) -> float:
        """Modelled seconds for the GPU side carrying `ratio` of zones.

        Zone work and state traffic both scale linearly in the zone
        share, so the full-batch stage time is computed once per
        selection and scaled here — the balancer samples this hundreds
        of times per run.
        """
        return self._gpu_stage_s * ratio

    def cpu_time_s(self, share: float) -> float:
        """Modelled seconds for the host cores carrying `share` of zones."""
        return self._cpu_stage_s * share

    # -- Scheduler hooks ----------------------------------------------------

    def set_ratio(self, ratio: float) -> None:
        if not (0.0 < ratio < 1.0):
            raise ValueError("ratio must be in (0, 1)")
        self.ratio = float(ratio)

    def apply_selection(self, selection: KernelSelection) -> None:
        """Adopt tuned kernel parameters and re-price the split."""
        self.selection = selection
        if self.fe_cfg is not None:
            self._reprice()

    def apply_runtime(self, fusion: str, chunk: int) -> None:
        """Adopt tuned runtime knobs (engine fusion, worker chunking)."""
        if fusion not in ("fused", "sumfact", "legacy"):
            raise ValueError("fusion must be 'fused', 'sumfact' or 'legacy'")
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        self.fusion = fusion
        self.chunk = int(chunk)
        if self.fe_cfg is not None:
            self._reprice()

    # -- Candidate pricing (what the search engine measures) ----------------

    def measure_candidate(self, params: dict):
        """Price one joint-space candidate as a `Measurement`.

        The candidate fixes the kernel tilings *and* the runtime pair;
        the split ratio is taken at its balanced optimum for those
        choices (the Section 3.3 fixed point), so candidates are
        compared at their own best load balance — time is the balanced
        stage seconds, energy the GPU phase joules for its zone share
        plus the host package+DRAM draw over the stage.
        """
        from repro.runtime.hybrid import HYBRID_CPU_UTILIZATION
        from repro.tuning.search import Measurement

        if self._pcie_s is None:
            self._reprice()  # populate the selection-free cached terms
        phase_s, phase_j = self._gpu_phase(
            params.get("kernel3_matrices_per_block"),
            params.get("kernel5_matrices_per_block"),
            params.get("kernel7_block_cols"),
        )
        gpu_s = phase_s + self._pcie_s
        cpu_s = self._cpu_base_s * self._runtime_factor(
            params.get("fusion"), params.get("chunk")
        )
        # Balanced split: r*gpu_s == (1-r)*cpu_s -> stage time T.
        stage_s = gpu_s * cpu_s / (gpu_s + cpu_s)
        gpu_share = stage_s / gpu_s
        cpu_model = self._pricer._cpu_model
        cpu_w = cpu_model.package_power(HYBRID_CPU_UTILIZATION) + cpu_model.dram_power(
            HYBRID_CPU_UTILIZATION
        )
        energy_j = phase_j * gpu_share + cpu_w * stage_s
        return Measurement(time_s=stage_s, energy_j=energy_j)

    def describe(self) -> dict:
        out = {"backend": self.name, "device": self.device, "ratio": self.ratio}
        if self.fusion != "fused" or self.chunk != 1:
            out["runtime"] = {"fusion": self.fusion, "chunk": self.chunk}
        sel = self.selection
        if sel.gemm_matrices_per_block or sel.batched_matrices_per_block or sel.block_cols:
            out["selection"] = {
                "gemm_matrices_per_block": sel.gemm_matrices_per_block,
                "batched_matrices_per_block": sel.batched_matrices_per_block,
                "block_cols": sel.block_cols,
            }
        return out
