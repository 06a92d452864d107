import pytest

from calibrate import EXPONENT, Calibration, compute_sample


def test_factor_scales_to_the_reference_speed():
    readings = iter([0.2, 0.4, 0.3])
    calibration = Calibration(lambda: next(readings), reference=0.15, every_s=0.0)
    for _ in range(3):
        calibration.take()
    assert calibration.factor() == pytest.approx(0.5**EXPONENT)


def test_samples_are_spaced_in_time():
    calibration = Calibration(lambda: 1.0, reference=1.0, every_s=3600.0)
    calibration.maybe_take()
    calibration.maybe_take()
    assert calibration.samples == [1.0]


def test_compute_sample_times_real_work():
    assert compute_sample() > 0
