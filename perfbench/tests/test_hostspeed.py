import numpy as np
import pytest

from hostspeed import CONTENDED_RATIO, HostProbe, correction_factors, percentile

NOMINAL = 1e-3


def synthetic_run(speed):
    """One op and one reference sample per entry of `speed` (a slowdown)."""
    base = np.linspace(0.010, 0.020, speed.size)  # the ops' true cost
    ops = base * speed
    wall = NOMINAL * speed
    cpu = wall.copy()  # uncontended: CPU time equals wall time
    positions = np.arange(speed.size)
    return base, ops, wall, cpu, positions


def test_slow_phase_leaves_corrected_times_unchanged():
    speed = np.ones(300)
    speed[100:200] = 1.5  # a phase in which the host runs 1.5x slower
    base, ops, wall, cpu, positions = synthetic_run(speed)
    corrected = ops * correction_factors(positions, wall, cpu, NOMINAL)
    # Only ops whose window straddles a phase edge may be off.
    inside = np.r_[0:90, 110:190, 210:300]
    assert np.allclose(corrected[inside], base[inside], rtol=1e-12)
    assert not np.allclose(ops[inside], base[inside])


def test_contended_sample_is_dropped():
    speed = np.ones(50)
    base, ops, wall, cpu, positions = synthetic_run(speed)
    wall[25] = 10 * NOMINAL  # ran against another thread: wall >> CPU
    assert wall[25] > CONTENDED_RATIO * cpu[25]
    factors = correction_factors(positions, wall, cpu, NOMINAL)
    assert np.allclose(factors, 1.0)
    # Counted as a fast host if it were kept: its CPU time is what slowed.
    cpu[25] = wall[25]
    assert correction_factors(positions, wall, cpu, NOMINAL)[25] == pytest.approx(1.0)


def test_every_sample_contended_falls_back_to_raw_times():
    wall = np.full(20, 2 * NOMINAL)
    cpu = wall / 2
    assert np.array_equal(correction_factors(range(20), wall, cpu, NOMINAL), np.ones(20))


def test_p90_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError, match="needs 10 samples beyond"):
        percentile(np.arange(99.0), 90)
    value, n = percentile(np.arange(1.0, 101.0), 90)
    assert (value, n) == (90.0, 100)
    assert percentile([3.0, 1.0, 2.0], 50) == (2.0, 3)


def test_probe_records_samples_and_stops_its_thread():
    probe = HostProbe()
    try:
        probe.sample(3)
        assert len(probe.wall) == len(probe.cpu) == 3
        assert all(w > 0 for w in probe.wall)
    finally:
        probe.close()
    assert not probe._thread.is_alive()


def test_stolen_operations_are_flagged():
    from hostspeed import STOLEN_SHARE, steal_s, stolen

    wall = np.array([0.020, 0.020, 2.0, 2.0])
    steal = np.array([0.0, 0.010, 0.9 * STOLEN_SHARE * 2.0, 1.1 * STOLEN_SHARE * 2.0])
    assert stolen(steal, wall).tolist() == [False, True, False, True]
    s0 = steal_s()
    assert steal_s() >= s0 >= 0.0


def test_steal_drops_never_leave_a_p90_short_of_samples():
    import measure

    values = [float(i) for i in range(120)]
    half_stolen = [i % 2 == 0 for i in range(120)]
    assert measure.clean_or_all(values, half_stolen, measure.MIN_OPS) == values
    assert len(measure.clean_or_all(values, half_stolen)) == 60
    percentile(measure.clean_or_all(values, half_stolen, measure.MIN_OPS), 90)
