"""Tests for GPU catalog and occupancy calculator."""

import pytest

from repro.gpu.occupancy import occupancy
from repro.gpu.specs import GPU_CATALOG, get_gpu


class TestCatalog:
    def test_k20_paper_numbers(self):
        """The constants the paper quotes: 208 GB/s, 225 W TDP, Hyper-Q
        32 queues, 20 W idle, ~50 W on first kernel launch."""
        k20 = get_gpu("K20")
        assert k20.mem_bandwidth_gbs == 208.0
        assert k20.tdp_w == 225.0
        assert k20.hyperq_queues == 32
        assert k20.idle_w == 20.0
        assert k20.active_base_w == 50.0

    def test_kepler_doubles_fermi_registers(self):
        """'Kepler ... doubles the number of physical registers per SMX'."""
        assert get_gpu("K20").registers_per_sm == 2 * get_gpu("C2050").registers_per_sm

    def test_fermi_has_single_queue(self):
        assert get_gpu("C2050").hyperq_queues == 1

    def test_lookup_case_insensitive(self):
        assert get_gpu("k20m").name == "K20m"

    def test_unknown_device(self):
        with pytest.raises(KeyError):
            get_gpu("H100")

    def test_perf_per_watt_improves_by_generation(self):
        """The Figure 1 trend: each DP-capable generation improves."""
        seq = ["C1060", "C2050", "K20"]
        ppw = [GPU_CATALOG[n].peak_dp_per_watt for n in seq]
        assert ppw[0] < ppw[1] < ppw[2]


class TestOccupancy:
    def test_full_occupancy(self):
        k20 = get_gpu("K20")
        r = occupancy(k20, threads_per_block=256, regs_per_thread=32, shared_per_block_bytes=0)
        assert r.occupancy == pytest.approx(1.0)

    def test_paper_98_percent_case(self):
        """Kernel 5/6 tuned at 32 matrices/block: ~98% occupancy."""
        k20 = get_gpu("K20")
        # 32 3x3 matrices -> 288 threads, 3 tiles of 9 doubles each
        r = occupancy(k20, threads_per_block=288, regs_per_thread=24,
                      shared_per_block_bytes=32 * 3 * 9 * 8)
        assert r.occupancy > 0.95

    def test_shared_memory_limits(self):
        k20 = get_gpu("K20")
        r = occupancy(k20, 256, 32, 40 * 1024)  # one block fits
        assert r.active_blocks == 1
        assert r.limiter == "shared"
        assert r.occupancy == pytest.approx(8 / 64)

    def test_register_limits(self):
        c2050 = get_gpu("C2050")
        r = occupancy(c2050, 256, 63, 0)
        assert r.limiter == "registers"
        assert r.occupancy < 1.0

    def test_impossible_config_zero(self):
        k20 = get_gpu("K20")
        r = occupancy(k20, 32, 0, 100 * 1024)
        assert r.occupancy == 0.0

    def test_block_slot_limit(self):
        k20 = get_gpu("K20")
        # Tiny blocks: block-slot limited (16 blocks of 1 warp = 16 warps).
        r = occupancy(k20, 32, 8, 0)
        assert r.limiter in ("blocks",)
        assert r.occupancy == pytest.approx(16 / 64)

    def test_validation(self):
        k20 = get_gpu("K20")
        with pytest.raises(ValueError):
            occupancy(k20, 0, 32, 0)
        with pytest.raises(ValueError):
            occupancy(k20, 2048, 32, 0)
        with pytest.raises(ValueError):
            occupancy(k20, 128, -1, 0)

    def test_more_registers_never_increase_occupancy(self):
        k20 = get_gpu("K20")
        prev = 2.0
        for regs in (16, 32, 64, 128):
            r = occupancy(k20, 256, regs, 0)
            assert r.occupancy <= prev + 1e-12
            prev = r.occupancy
