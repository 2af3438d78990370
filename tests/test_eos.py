"""Tests for equations of state."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hydro.eos import GammaLawEOS


class TestGammaLaw:
    def test_pressure(self):
        eos = GammaLawEOS(gamma=1.4)
        assert eos.pressure(2.0, 3.0) == pytest.approx(0.4 * 2.0 * 3.0)

    def test_sound_speed(self):
        eos = GammaLawEOS(gamma=1.4)
        assert eos.sound_speed(1.0, 1.0) == pytest.approx(np.sqrt(1.4 * 0.4))

    def test_negative_energy_floored(self):
        eos = GammaLawEOS()
        assert eos.pressure(1.0, -5.0) == 0.0
        assert eos.sound_speed(1.0, -5.0) == 0.0

    def test_roundtrip(self):
        eos = GammaLawEOS(gamma=5 / 3)
        p = eos.pressure(2.0, 0.7)
        assert eos.energy_from_pressure(2.0, p) == pytest.approx(0.7)

    def test_per_zone_gamma_broadcast(self):
        gamma = np.array([[1.4], [1.5]])  # (nzones=2, 1)
        eos = GammaLawEOS(gamma=gamma)
        rho = np.ones((2, 3))
        e = np.ones((2, 3))
        p = eos.pressure(rho, e)
        assert np.allclose(p[0], 0.4)
        assert np.allclose(p[1], 0.5)

    def test_rejects_gamma_below_one(self):
        with pytest.raises(ValueError):
            GammaLawEOS(gamma=1.0)
        with pytest.raises(ValueError):
            GammaLawEOS(gamma=np.array([1.4, 0.9]))

    @given(
        rho=st.floats(0.01, 100.0),
        e=st.floats(0.0, 1000.0),
        gamma=st.floats(1.01, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_thermodynamic_consistency(self, rho, e, gamma):
        """p >= 0, c_s^2 = gamma p / rho for the gamma law."""
        eos = GammaLawEOS(gamma=gamma)
        p = float(eos.pressure(rho, e))
        cs = float(eos.sound_speed(rho, e))
        assert p >= 0.0
        assert cs * cs == pytest.approx(gamma * p / rho, rel=1e-10, abs=1e-12)
