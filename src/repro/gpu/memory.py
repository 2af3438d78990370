"""GPU memory hierarchy model.

Three levels, matching the paper's Figure 8 profile: on-chip L1/shared,
on-chip L2, and off-chip device memory. Each level carries a bandwidth
(from the device catalog) and an energy cost per byte. The energy
ratios follow the micro-benchmarks the paper cites ([19], Hong & Kim:
"the device memory power is 52, while shared memory is 1 with FP and
ALU only 0.2 (normalized unit)") scaled to physically plausible
picojoule values; this ratio — device memory traffic costs ~50x on-chip
traffic — is what makes the optimized kernels *lower power*, not just
faster.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.specs import GPUSpec

__all__ = ["MemoryHierarchy", "ENERGY_PER_DP_FLOP_PJ"]

# Dynamic energy constants (picojoules). Calibrated so a device-memory-
# saturating kernel on K20 draws ~60-70 W of dynamic power and a
# compute-saturating one ~80-100 W — consistent with the paper's
# Figure 15 scenario levels under its 225 W TDP.
ENERGY_PER_DP_FLOP_PJ = 75.0
_ENERGY_DRAM_PJ_PER_BYTE = 420.0
_ENERGY_L2_PJ_PER_BYTE = 45.0
_ENERGY_SHARED_PJ_PER_BYTE = 8.0


@dataclass(frozen=True)
class MemoryHierarchy:
    """Bandwidths (GB/s) and energies (pJ/B) of the three levels."""

    dram_gbs: float
    l2_gbs: float
    shared_gbs: float
    dram_pj_per_byte: float = _ENERGY_DRAM_PJ_PER_BYTE
    l2_pj_per_byte: float = _ENERGY_L2_PJ_PER_BYTE
    shared_pj_per_byte: float = _ENERGY_SHARED_PJ_PER_BYTE

    @classmethod
    def of(cls, spec: GPUSpec) -> "MemoryHierarchy":
        return cls(
            dram_gbs=spec.mem_bandwidth_gbs,
            l2_gbs=spec.l2_bandwidth_gbs,
            shared_gbs=spec.shared_bandwidth_gbs,
        )

    def level_time_s(self, dram_bytes: float, l2_bytes: float, shared_bytes: float,
                     dram_efficiency: float = 1.0) -> dict[str, float]:
        """Per-level transfer time for the given traffic volumes."""
        eff = max(min(dram_efficiency, 1.0), 1e-3)
        times = {
            "dram": dram_bytes / (self.dram_gbs * 1e9 * eff) if dram_bytes else 0.0,
        }
        times["l2"] = l2_bytes / (self.l2_gbs * 1e9) if l2_bytes and self.l2_gbs else 0.0
        times["shared"] = shared_bytes / (self.shared_gbs * 1e9) if shared_bytes else 0.0
        return times

    def traffic_energy_j(self, dram_bytes: float, l2_bytes: float, shared_bytes: float) -> float:
        """Dynamic energy of moving the given traffic (joules)."""
        return 1e-12 * (
            dram_bytes * self.dram_pj_per_byte
            + l2_bytes * self.l2_pj_per_byte
            + shared_bytes * self.shared_pj_per_byte
        )
