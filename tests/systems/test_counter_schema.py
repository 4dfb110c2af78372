"""Runtime check of the counter-key registry (CTR001's dynamic twin).

The static rule proves every *literal* charge site uses a registered
key; this proves the registry is also complete at runtime — a full run
of each system may only ever touch keys in ``COUNTER_SCHEMA``, on every
execution backend.  A key observed here but missing from the schema is
either a typo at a charge site or a schema that lagged a new substrate.
"""

import pytest

from repro.cluster.costmodel import DEFAULT_CPU_COSTS
from repro.data import census_blocks, taxi_points
from repro.metrics import COUNTER_SCHEMA
from repro.systems import ALL_SYSTEMS, RunEnvironment, make_system

SYSTEMS = sorted(ALL_SYSTEMS)


@pytest.mark.parametrize("system_name", SYSTEMS)
def test_observed_keys_are_subset_of_schema(system_name):
    env = RunEnvironment.create(block_size=1 << 14)
    report = make_system(system_name).run(
        env, taxi_points(300, seed=5), census_blocks(60, seed=6)
    )
    assert report.ok, report.failure
    observed = set(report.counters)
    unregistered = sorted(observed - set(COUNTER_SCHEMA))
    assert not unregistered, (
        f"{system_name} charged unregistered counter keys: {unregistered} — "
        "register them in repro.metrics.COUNTER_SCHEMA"
    )
    # Per-phase ledgers are drawn from the same registry.
    for phase in report.clock.phases:
        assert set(phase.counters) <= set(COUNTER_SCHEMA), phase.name


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_parallel_backends_stay_inside_schema(backend):
    env = RunEnvironment.create(block_size=1 << 14, backend=backend, workers=2)
    report = make_system("SpatialSpark").run(
        env, taxi_points(300, seed=5), census_blocks(60, seed=6)
    )
    assert report.ok, report.failure
    assert set(report.counters) <= set(COUNTER_SCHEMA)


def test_cost_model_prices_only_registered_keys():
    # Every key the cost model knows a price for must exist in the
    # ledger schema (a priced-but-never-charged key is calibration debt;
    # a charged-but-unpriced key is silently free).
    assert set(DEFAULT_CPU_COSTS) <= set(COUNTER_SCHEMA)


def test_schema_keys_are_well_formed():
    for key, description in COUNTER_SCHEMA.items():
        assert isinstance(key, str) and isinstance(description, str)
        group, _, leaf = key.partition(".")
        assert group and leaf, f"schema key {key!r} must be '<group>.<name>'"
        assert key == key.lower()
        assert description.strip()
