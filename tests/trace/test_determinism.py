"""Golden determinism of the span tree.

Everything in a trace except the wall-clock fields — structure, names,
kinds, attributes, counter deltas — must be bit-identical across the
serial and process backends and across repeated same-seed runs,
for all three systems.  :meth:`Span.fingerprint` is exactly that view of
the tree, so these tests compare fingerprints directly.
"""

import pytest

from repro import spatial_join
from repro.data.synthetic import census_blocks, taxi_points
from repro.trace.core import TIMING_FIELDS

SYSTEMS = ("HadoopGIS", "SpatialHadoop", "SpatialSpark")


def run_traced(system, backend="serial"):
    return spatial_join(
        taxi_points(300, seed=11),
        census_blocks(40, seed=12),
        system=system,
        cluster="WS",
        workers=1 if backend == "serial" else 3,
        backend=backend,
        seed=7,
        trace=True,
    )


@pytest.mark.parametrize("system", SYSTEMS)
class TestGoldenDeterminism:
    def test_backends_agree_bit_for_bit(self, system):
        serial = run_traced(system)
        assert serial.trace is not None
        parallel = run_traced(system, "process")
        assert parallel.trace.fingerprint() == serial.trace.fingerprint(), (
            f"{system}: process trace diverged from serial"
        )
        assert parallel.pairs == serial.pairs
        assert dict(parallel.counters) == dict(serial.counters)

    def test_repeated_runs_agree(self, system):
        first = run_traced(system)
        second = run_traced(system)
        assert first.trace.fingerprint() == second.trace.fingerprint()
        assert first.pairs == second.pairs
        assert dict(first.counters) == dict(second.counters)


class TestTimingFieldsExcluded:
    def test_timing_fields_are_the_nondeterministic_ones(self):
        # The golden comparison is meaningful only because wall-clock and
        # worker identity are excluded; pin the exclusion list.
        assert set(TIMING_FIELDS) == {"start", "seconds", "pid", "tid"}

    def test_wall_clock_differs_but_fingerprint_does_not(self):
        first = run_traced("SpatialSpark")
        second = run_traced("SpatialSpark")
        assert first.trace.fingerprint() == second.trace.fingerprint()
        # start is monotonic clock time: two runs cannot share it.
        assert first.trace.start != second.trace.start
