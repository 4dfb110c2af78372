"""The host factor that turns wall seconds into reference seconds."""

import pytest
from hostspeed import REFERENCE_S, HostProbe, ReferenceWork


def test_factor_is_reference_over_median_sample():
    probe = HostProbe()
    probe.samples = [REFERENCE_S * 2, REFERENCE_S * 4, REFERENCE_S * 3]
    # on a host three times slower than the reference, times shrink
    assert probe.factor() == pytest.approx(1 / 3)
    probe.samples = [REFERENCE_S / 2]
    assert probe.factor() == pytest.approx(2.0)


def test_factor_needs_a_sample():
    with pytest.raises(ValueError):
        HostProbe().factor()


def test_between_ops_samples_at_most_once_per_interval():
    probe = HostProbe(interval=3600.0)
    for _ in range(5):
        probe.between_ops()
    assert len(probe.samples) == 1
    assert probe.spent == pytest.approx(probe.samples[0])
    eager = HostProbe(interval=0.0)
    for _ in range(3):
        eager.between_ops()
    assert len(eager.samples) == 3


def test_reference_work_is_fixed():
    assert ReferenceWork()() == ReferenceWork()()
