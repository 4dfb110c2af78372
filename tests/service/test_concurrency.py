"""Concurrency determinism of the service front-end.

The contract: a batch of queries against shared handles returns
bit-identical results — pairs, per-query counters, service-ledger
totals, trace fingerprints — at any dispatch concurrency.  These suites
run with the cache disabled so every query actually executes (with the
cache on, which request of an identical in-flight pair reports the miss
is unspecified; totals stay deterministic and are covered separately).
"""

import pytest

from repro.data.synthetic import census_blocks, taxi_points
from repro.exec import ProcessBackend
from repro.service import Query, SpatialQueryService

SEED = 7
CONCURRENCIES = (8, 64)
BOXES = (
    (-74.00, 40.70, -73.95, 40.75),
    (-73.99, 40.72, -73.90, 40.80),
    (-74.02, 40.65, -73.97, 40.71),
)


def make_service(trace=False):
    return SpatialQueryService(
        cluster="WS", seed=SEED, cache_entries=0, trace=trace
    )


def make_queries(a, b, n=64):
    """A deterministic 64-query mix: joins (both predicates) + ranges."""
    out = []
    for i in range(n):
        kind = i % 4
        if kind == 0:
            out.append(Query("join", a, b))
        elif kind == 1:
            out.append(Query("join", a, b, predicate="within_distance:0.01"))
        elif kind == 2:
            out.append(Query("range", a, box=BOXES[i % len(BOXES)]))
        else:
            out.append(Query("join", a, b, predicate="within_distance:0.005"))
    return out


def result_view(r):
    """The comparable, timing-free view of one query result."""
    if hasattr(r, "pairs"):
        return ("join", r.status, r.pairs, tuple(sorted(r.counters.items())))
    return ("range", r.ids, tuple(sorted(r.counters.items())))


def run_batch(concurrency):
    """One fresh service: prepare both sides, run the 64-query mix.

    A fresh service per concurrency level keeps the ledger's float
    accumulation base identical across runs, so the post-batch ledger
    states — not just the per-query counters — compare bit-for-bit.
    """
    with make_service() as svc:
        a = svc.prepare(
            taxi_points(300, seed=11), system="SpatialHadoop", roles=("a",)
        )
        b = svc.prepare(
            census_blocks(40, seed=12), system="SpatialHadoop", roles=("b",)
        )
        results = svc.execute(make_queries(a, b), concurrency=concurrency)
        return [result_view(r) for r in results], dict(svc.counters)


class TestInterleavedDeterminism:
    @pytest.fixture(scope="class")
    def serial(self):
        return run_batch(concurrency=1)

    @pytest.mark.parametrize("concurrency", CONCURRENCIES)
    def test_results_bit_identical_to_serial(self, serial, concurrency):
        serial_views, serial_ledger = serial
        views, ledger = run_batch(concurrency)
        assert views == serial_views
        assert ledger == serial_ledger

    def test_ledger_counts_queries(self, serial):
        _, serial_ledger = serial
        assert serial_ledger["service.queries"] == 64


class TestTraceDeterminism:
    def run_traced(self, concurrency):
        svc = make_service(trace=True)
        a = svc.prepare(
            taxi_points(200, seed=11), system="SpatialHadoop", roles=("a",)
        )
        b = svc.prepare(
            census_blocks(30, seed=12), system="SpatialHadoop", roles=("b",)
        )
        svc.execute(make_queries(a, b, n=16), concurrency=concurrency)
        svc.close()
        return svc.trace_root

    def test_span_tree_identical_across_concurrency(self):
        roots = [self.run_traced(c) for c in (1, 8)]
        fingerprints = {root.fingerprint() for root in roots}
        assert len(fingerprints) == 1
        root = roots[0]
        assert root.name == "service"
        names = [c.name for c in root.children]
        # Submission-order grafting: prepares first, then the queries
        # exactly as submitted.
        assert names[:2] == ["prepare:a", "prepare:b"]
        assert len(names) == 2 + 16


class TestCacheTotalsUnderConcurrency:
    def test_single_flight_tallies(self):
        """Identical in-flight queries: 1 miss + N-1 hits at any
        concurrency, and every report carries the same pairs."""
        for concurrency in (1, 8):
            with SpatialQueryService(cluster="WS", seed=SEED) as svc:
                a = svc.prepare(taxi_points(200, seed=11), system="SpatialSpark")
                b = svc.prepare(census_blocks(30, seed=12), system="SpatialSpark")
                queries = [Query("join", a, b)] * 16
                reports = svc.execute(queries, concurrency=concurrency)
                assert svc.counters["service.cache.misses"] == 1
                assert svc.counters["service.cache.hits"] == 15
                assert len({r.pairs for r in reports}) == 1


@pytest.mark.skipif(not ProcessBackend.available(), reason="requires fork")
class TestProcessBackendUnderConcurrency:
    """Concurrent queries each fork their own stage children.

    Every stage hands its task bodies to its children as process
    arguments; state shared through a module global would be overwritten
    by whichever query forked last.  Fresh radii keep every query a
    distinct execution, so 18 of them at concurrency 8 put several
    stages in flight at once.
    """

    SYSTEMS = ("HadoopGIS", "SpatialHadoop", "SpatialSpark")

    def run_served(self, workers, concurrency):
        svc = SpatialQueryService(
            cluster="WS", seed=SEED, cache_entries=0,
            workers=workers, backend="process" if workers > 1 else None,
        )
        with svc:
            queries = []
            for s, system in enumerate(self.SYSTEMS):
                a = svc.prepare(
                    taxi_points(300, seed=11), system=system, roles=("a",)
                )
                b = svc.prepare(
                    census_blocks(40, seed=12), system=system, roles=("b",)
                )
                for i in range(6):
                    radius = 0.002 + 0.001 * (6 * s + i)
                    queries.append(
                        Query("join", a, b, predicate=f"within_distance:{radius}")
                    )
            results = svc.execute(queries, concurrency=concurrency)
            return [result_view(r) for r in results], dict(svc.counters)

    def test_pairs_and_ledger_match_serial(self):
        serial_views, serial_ledger = self.run_served(workers=1, concurrency=1)
        views, ledger = self.run_served(workers=2, concurrency=8)
        assert len(views) == 18
        assert all(view[1] == "ok" for view in views)
        assert views == serial_views
        assert ledger == serial_ledger
