"""Calibration keeps imposed waiting, and rescales the rest only off the reference speed."""

import pytest

from speed import REFERENCE_PROBE_S, Segment


def test_reference_speed_keeps_wall_time():
    assert Segment(2.0, 1.5, [REFERENCE_PROBE_S] * 3).calibrated == pytest.approx(2.0)


def test_waiting_time_is_kept():
    assert Segment(2.0, 2.0, [4 * REFERENCE_PROBE_S]).calibrated == pytest.approx(2.0)


def test_slow_machine_shrinks_the_rest():
    slow = Segment(3.0, 1.0, [2 * REFERENCE_PROBE_S, 2 * REFERENCE_PROBE_S])
    assert 1.0 < slow.calibrated < 3.0


def test_add_pools_time_and_probes():
    total = Segment(1.0, 0.5, [0.01])
    total.add(Segment(2.0, 1.0, [0.02, 0.03]))
    assert (total.wall, total.wait, total.probes) == (3.0, 1.5, [0.01, 0.02, 0.03])
