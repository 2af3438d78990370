"""Tests for streams overlap and the tuning cache."""

import numpy as np
import pytest

from repro.gpu import get_gpu
from repro.gpu.execution import KernelCost
from repro.gpu.streams import overlap_phase
from repro.kernels import FEConfig
from repro.kernels.registry import corner_force_costs
from repro.tuning.cache import TuningCache

K20 = get_gpu("K20")
CFG = FEConfig(dim=3, order=2, nzones=512)


def costs():
    return corner_force_costs(CFG, "optimized")


class TestStreams:
    def test_overlap_never_slower(self):
        ph = overlap_phase(K20, costs(), h2d_bytes=50e6, d2h_bytes=20e6)
        assert ph.overlapped_s <= ph.serial_s
        assert ph.speedup >= 1.0

    def test_transfer_heavy_phase_benefits(self):
        """When transfers rival compute, chunked overlap hides most of
        them."""
        ph = overlap_phase(K20, costs(), h2d_bytes=500e6, d2h_bytes=500e6, chunks=8)
        # Full-duplex pipelining hides at most the smaller direction:
        # efficiency approaches 0.5 for symmetric traffic.
        assert ph.overlap_efficiency > 0.4
        assert ph.speedup > 1.5

    def test_compute_dominated_phase_small_gain(self):
        ph = overlap_phase(K20, costs(), h2d_bytes=1e4, d2h_bytes=1e4)
        assert ph.speedup == pytest.approx(1.0, abs=0.05)

    def test_more_chunks_hide_more(self):
        few = overlap_phase(K20, costs(), 200e6, 200e6, chunks=2)
        many = overlap_phase(K20, costs(), 200e6, 200e6, chunks=16)
        assert many.overlapped_s <= few.overlapped_s + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            overlap_phase(K20, costs(), 1e6, 1e6, chunks=0)
        with pytest.raises(ValueError):
            overlap_phase(K20, costs(), -1.0, 0.0)


class TestTuningCache:
    def test_miss_then_hit(self, tmp_path):
        cache = TuningCache(tmp_path / "tune.json")
        calls = []

        def tune():
            calls.append(1)
            return {"matrices_per_block": 32}

        p1 = cache.get_or_tune(K20, CFG, "kernel3", tune)
        p2 = cache.get_or_tune(K20, CFG, "kernel3", tune)
        assert p1 == p2 == {"matrices_per_block": 32}
        assert len(calls) == 1

    def test_architecture_port_invalidates(self, tmp_path):
        """Fermi -> Kepler changes the fingerprint: fresh tuning runs."""
        cache = TuningCache(tmp_path / "tune.json")
        cache.store(get_gpu("C2050"), CFG, "kernel3", {"m": 8})
        assert cache.lookup(K20, CFG, "kernel3") is None
        assert cache.lookup(get_gpu("C2050"), CFG, "kernel3") == {"m": 8}

    def test_order_change_misses(self, tmp_path):
        cache = TuningCache(tmp_path / "t.json")
        cache.store(K20, CFG, "kernel3", {"m": 32})
        q4 = FEConfig(dim=3, order=4, nzones=512)
        assert cache.lookup(K20, q4, "kernel3") is None

    def test_persistence_roundtrip(self, tmp_path):
        path = tmp_path / "t.json"
        TuningCache(path).store(K20, CFG, "kernel7", {"block_cols": 16})
        reloaded = TuningCache(path)
        assert reloaded.lookup(K20, CFG, "kernel7") == {"block_cols": 16}

    def test_memory_only_mode(self):
        cache = TuningCache(None)
        cache.store(K20, CFG, "k", {"m": 4})
        assert cache.lookup(K20, CFG, "k") == {"m": 4}

    def test_validation(self):
        cache = TuningCache(None)
        with pytest.raises(ValueError):
            cache.store(K20, CFG, "k", {})

    def test_integration_with_autotuner(self, tmp_path):
        """End-to-end: cache wraps a real tuning campaign."""
        from repro.gpu import execute_kernel
        from repro.kernels.k34_custom_gemm import kernel3_cost
        from repro.tuning import Autotuner, ParamSpace

        cache = TuningCache(tmp_path / "t.json")

        def campaign():
            def ev(c):
                try:
                    return execute_kernel(K20, kernel3_cost(CFG, "v3", c["m"])).time_s
                except ValueError:
                    return float("inf")

            space = ParamSpace(m=[8, 16, 32]).constrain(lambda c: np.isfinite(ev(c)))
            return Autotuner(ev, space, steps_per_period=3).tune().best

        best = cache.get_or_tune(K20, CFG, "kernel3", campaign)
        assert best["m"] == 32
        assert cache.lookup(K20, CFG, "kernel3") == best
