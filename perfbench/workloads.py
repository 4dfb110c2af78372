"""The benchmark's three workloads.

Each workload makes its inputs from the seed (``generate``), computes
the expected answers (``build_oracle``), sets up what a user would set
up before the first query (``setup_once``, timed and repeated), then
either measures untraced operations for a fixed time (``measure``) or
alternates untraced and traced rounds (``traced``).  Why each workload
exists is written up in README.md next to this file.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import resource
import sys
import time
import traceback

import numpy as np

import repro
from layers import SYSTEMS, RoundLedger
from oracle import DistanceOracle, intersect_pairs, range_ids
from repro.data import synthetic
from repro.geometry.mbr import MBR
from stats import median

#: Dense 0.35-degree square for the polyline join: the US-wide default
#: domain yields about one intersecting pair at these sizes.
EDGES_DOMAIN = MBR(-74.25, 40.5, -73.9, 40.85)
#: Manhattan, where the served workload's road network lies.
MANHATTAN = MBR(-74.02, 40.70, -73.93, 40.80)

#: Served distance-join radii (degrees); every join draws a fresh one.
R_MIN, R_MAX = 0.0005, 0.003
#: Radius of the set-up warm-up joins, outside the client range.
R_WARM = 0.0004
#: Golden-ratio step of the low-discrepancy radius sequence.
_PHI = 0.6180339887498949


def derive_seed(seed: int, name: str) -> int:
    """A 32-bit input seed for *name*, stable across interpreters."""
    digest = hashlib.sha256(f"{seed}/{name}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, int(round(n * scale)))


class Outcome:
    """One executed operation: what ran, how long, and whether it was right."""

    __slots__ = ("kind", "system", "seconds", "cache_hit", "ok", "end")

    def __init__(self, kind, system, seconds, cache_hit=False, ok=True, end=0.0):
        self.kind = kind
        self.system = system
        self.seconds = seconds
        self.cache_hit = cache_hit
        self.ok = ok
        self.end = end


def _report_failure(what: str) -> None:
    print(f"perfbench: {what} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# ---------------------------------------------------------------- one-shot
class OneShot:
    """One-shot ``repro.spatial_join`` of two inputs, once per system per round.

    A run holds ``SETS`` input pairs drawn from its seed, and round *i*
    joins pair ``i % SETS``.  At these sizes one pair's join time
    depends on its draw (how many candidates and pairs it has) by up to
    a third; cycling through several pairs averages that out within a
    run instead of leaving it to the seed.
    """

    name = ""
    SETS = 4

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale

    def generate(self) -> None:
        self.inputs = [self.make_pair(f"{k}") for k in range(self.SETS)]
        self.warm = self.make_pair("warm", shrink=10)

    def build_oracle(self) -> None:
        self.expected = [intersect_pairs(left, right) for left, right in self.inputs]

    def setup_once(self) -> float:
        """Warm-up: one small join per system (lazy imports, first calls)."""
        start = time.perf_counter()
        for system in SYSTEMS:
            report = repro.spatial_join(*self.warm, system=system)
            if not report.ok:
                raise RuntimeError(f"warm-up join failed on {system}: {report.failure}")
        return time.perf_counter() - start

    def close(self) -> None:
        pass

    def _join(self, system: str, k: int, tracer=None, ledger=None) -> Outcome:
        left, right = self.inputs[k]
        gc.collect()
        start = time.perf_counter()
        try:
            if tracer is None:
                report = repro.spatial_join(left, right, system=system)
            else:
                with tracer.op(system):
                    report = repro.spatial_join(left, right, system=system)
        except Exception:
            _report_failure(f"{self.name} join on {system}")
            return Outcome("join", system, time.perf_counter() - start, ok=False)
        seconds = time.perf_counter() - start
        ok = report.ok and report.pairs == self.expected[k]
        if not ok:
            print(f"perfbench: wrong answer from {system} on {self.name}",
                  file=sys.stderr)
        if ledger is not None:
            ledger.add_report(system, report)
        return Outcome("join", system, seconds, ok=ok)

    def _round(self, index: int, tracer=None, ledger=None, probe=None) -> list:
        shift = index % len(SYSTEMS)
        order = SYSTEMS[shift:] + SYSTEMS[:shift]
        outcomes = []
        for system in order:
            if probe is not None:
                probe.between_ops()
            outcomes.append(self._join(system, index % self.SETS, tracer, ledger))
        return outcomes

    def measure(self, seconds: float, probe) -> dict:
        """Rounds until *seconds* have passed.

        ``qps`` is the joins of a round over the median round time: one
        slow join, of which a run of about 30 rounds holds a varying
        number, moves a mean rate by a tenth but not the median.
        """
        outcomes, rounds, rss = [], [], None
        start = time.perf_counter()
        index = 0
        while time.perf_counter() - start < seconds:
            done = self._round(index, probe=probe)
            outcomes += done
            rounds.append(sum(o.seconds for o in done))
            index += 1
            if index == self.SETS:  # every pair joined once on every system
                rss = peak_rss_mb()
        return summarize(outcomes, len(SYSTEMS) / median(rounds), rss or peak_rss_mb())

    def traced(self, seconds: float, tracer) -> dict:
        """Alternate untraced and traced rounds of the same joins."""
        return alternate_rounds(self, seconds, tracer)


class TaxiNycb(OneShot):
    name = "taxi-nycb"

    def make_pair(self, tag: str, shrink: int = 1):
        n_taxi = _scaled(2000, self.scale, 60) // shrink
        n_blocks = max(4, _scaled(200, self.scale, 8) // shrink)
        return (
            synthetic.taxi_points_batch(n_taxi, seed=derive_seed(self.seed, f"taxi{tag}")),
            synthetic.census_blocks_batch(n_blocks, seed=derive_seed(self.seed, f"nycb{tag}")),
        )

    def describe(self) -> str:
        left, right = self.inputs[0]
        return (f"{self.SETS} input pairs of taxi {len(left)} x nycb {len(right)}, "
                "intersects, serial")


class EdgesWater(OneShot):
    """Serial, like every workload: with ``workers=2`` on a 2-core host,
    join-time medians moved by 17-52% between runs (forked workers share
    the cores with neighbour load)."""

    name = "edges-water"

    def make_pair(self, tag: str, shrink: int = 1):
        n_edges = _scaled(600, self.scale, 60) // shrink
        n_water = max(6, _scaled(120, self.scale, 12) // shrink)
        d = EDGES_DOMAIN
        return (
            synthetic.tiger_edges_batch(
                n_edges, seed=derive_seed(self.seed, f"edges{tag}"), domain=d),
            synthetic.linear_water_batch(
                n_water, seed=derive_seed(self.seed, f"water{tag}"), domain=d),
        )

    def describe(self) -> str:
        left, right = self.inputs[0]
        return (f"{self.SETS} input pairs of edges {len(left)} x linearwater {len(right)}, "
                "intersects, serial")


# ------------------------------------------------------------------ served
class Op:
    """One client operation of the served mix."""

    __slots__ = ("kind", "system", "pair", "radius", "box", "slice_index", "expected")

    def __init__(self, kind, system, pair, radius=None, box=None, slice_index=None):
        self.kind = kind  # "join" | "range" | "ingest"
        self.system = system
        self.pair = pair  # which prepared (taxi, roads) pair it queries
        self.radius = radius
        self.box = box
        self.slice_index = slice_index
        self.expected = None


class Served:
    """One closed-loop client against one prepared ``SpatialQueryService``.

    The service holds ``PAIRS`` (taxi, roads) dataset pairs drawn from
    the seed, prepared on every system, and the client's joins and
    ranges cycle through them: one pair's join time depends on its draw
    by about 15%, which cycling averages out within a run.

    One client, not one per core: with two client threads on a 2-core
    host, per-system join latency medians moved by up to 28% between
    runs of the same seed (GIL hand-offs to the other client).
    """

    name = "taxi-roads-served"
    #: op mix per block of ten: repeats re-issue one of the client's
    #: last HISTORY queries, so they hit the result cache
    MIX = ("join",) * 5 + ("range",) * 2 + ("repeat",) * 2 + ("ingest",)
    HISTORY = 16
    PAIRS = 4
    #: ops after which ``peak_rss_mb`` is read
    RSS_OPS = 300
    SLICES = 8
    ROUND_OPS = 12

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        self.service = None

    def generate(self) -> None:
        s = self.seed
        n_taxi = _scaled(500, self.scale, 40)
        n_roads = _scaled(100, self.scale, 12)
        self.pairs = [
            (synthetic.taxi_points_batch(n_taxi, seed=derive_seed(s, f"taxi{k}")),
             synthetic.tiger_edges_batch(
                 n_roads, seed=derive_seed(s, f"roads{k}"), domain=MANHATTAN))
            for k in range(self.PAIRS)
        ]
        n_slice = _scaled(100, self.scale, 10)
        self.slices = [
            synthetic.taxi_points_batch(n_slice, seed=derive_seed(s, f"slice{k}"))
            for k in range(self.SLICES)
        ]
        self.ops = self._op_stream()

    def describe(self) -> str:
        taxi, roads = self.pairs[0]
        return (f"{self.PAIRS} pairs of taxi {len(taxi)} x roads {len(roads)} prepared "
                "on 3 systems, one closed-loop client")

    def _op_stream(self):
        """The client's endless op stream; the deadline alone ends a run.

        Kinds and join systems come from shuffled blocks with the exact
        mix, so every run gets the same shares in a random order.  Joins
        and ranges take the dataset pairs in turn; an ingest slice always
        joins the roads of the same pair.
        """
        rng = np.random.default_rng(derive_seed(self.seed, "client"))
        offsets = {key: rng.random() for key in SYSTEMS + ("ingest",)}
        drawn = dict.fromkeys(offsets, 0)

        def radius(key):
            k = drawn[key]
            drawn[key] += 1
            return R_MIN + (R_MAX - R_MIN) * ((offsets[key] + k * _PHI) % 1.0)

        def shuffled_blocks(block):
            while True:
                yield from rng.permutation(block).tolist()

        kinds = shuffled_blocks(self.MIX)
        systems = shuffled_blocks(SYSTEMS)
        join_pairs = itertools.cycle(range(self.PAIRS))
        range_pairs = itertools.cycle(range(self.PAIRS))
        xy = [taxi.points_xy(np.arange(len(taxi))) for taxi, _ in self.pairs]
        history, ingests = [], 0
        while True:
            kind = next(kinds)
            if kind == "repeat":
                if history:
                    yield history[int(rng.integers(len(history)))]
                continue
            if kind == "ingest":
                k = ingests % self.SLICES
                yield Op("ingest", "SpatialHadoop", k % self.PAIRS,
                         radius=radius("ingest"), slice_index=k)
                ingests += 1
                continue
            if kind == "range":
                pair = next(range_pairs)
                points = xy[pair]
                cx, cy = points[int(rng.integers(len(points)))] + rng.normal(0, 0.002, 2)
                hw, hh = rng.uniform(0.001, 0.003, 2)
                op = Op("range", "SpatialHadoop", pair,
                        box=(float(cx - hw), float(cy - hh), float(cx + hw), float(cy + hh)))
            else:
                system = next(systems)
                op = Op("join", system, next(join_pairs), radius=radius(system))
            yield op
            history = (history + [op])[-self.HISTORY:]

    def build_oracle(self) -> None:
        self.distances = [DistanceOracle(taxi, roads, R_MAX) for taxi, roads in self.pairs]
        self.slice_distances = [
            DistanceOracle(sl, self.pairs[k % self.PAIRS][1], R_MAX)
            for k, sl in enumerate(self.slices)
        ]

    def setup_once(self) -> float:
        """Service construction, prepare on every system, one warm-up join each.

        The service of an earlier repetition is closed first, untimed, so
        one service at most is alive and ``peak_rss_mb`` is that of one.
        """
        self.close()
        gc.collect()
        start = time.perf_counter()
        service = repro.SpatialQueryService()
        handles = {}
        for system in SYSTEMS:
            handles[system] = []
            for taxi, roads in self.pairs:
                left = service.prepare(taxi, system=system, roles=("a",))
                right = service.prepare(roads, system=system, roles=("b",))
                handles[system].append((left, right))
            left, right = handles[system][0]
            report = left.join(right, f"within_distance:{R_WARM}")
            if not report.ok:
                raise RuntimeError(f"warm-up join failed on {system}: {report.failure}")
        elapsed = time.perf_counter() - start
        self.service, self.handles = service, handles
        return elapsed

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    # ------------------------------------------------------------ running
    def _execute(self, op: Op):
        """Run *op*; returns (result, cache_hit) without checking it."""
        left, right = self.handles[op.system][op.pair]
        if op.kind == "join":
            report = left.join(right, f"within_distance:{op.radius!r}")
            return report, report.cache_hit
        if op.kind == "range":
            result = left.range(op.box)
            return result, result.cache_hit
        handle = self.service.prepare(
            self.slices[op.slice_index], system="SpatialHadoop", roles=("a",))
        try:
            report = handle.join(right, f"within_distance:{op.radius!r}")
        finally:
            handle.unload()
        return report, report.cache_hit

    def _check(self, op: Op, result) -> bool:
        if op.kind == "range":
            if op.expected is None:
                op.expected = range_ids(self.pairs[op.pair][0], op.box)
            return result.ids == op.expected
        if not result.ok:
            return False
        if op.kind == "join":
            return result.pairs == self.distances[op.pair].pairs(op.radius)
        return result.pairs == self.slice_distances[op.slice_index].pairs(op.radius)

    def _issue(self, ops, deadline=None, tracer=None, ledger=None, probe=None) -> list:
        """Issue *ops* in turn (closed loop) until *deadline*.

        Returns ``(op, result, outcome)`` per op; ``_checked`` checks the
        answers later, outside the timed loop.
        """
        done = []
        for op in ops:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            if probe is not None:
                probe.between_ops()
            start = time.perf_counter()
            try:
                if tracer is None:
                    result, hit = self._execute(op)
                else:
                    with tracer.op(op.system):
                        result, hit = self._execute(op)
            except Exception:
                _report_failure(f"{op.kind} on {op.system}")
                done.append((op, None, Outcome(op.kind, op.system,
                                               time.perf_counter() - start, ok=False)))
                continue
            end = time.perf_counter()
            done.append((op, result, Outcome(op.kind, op.system, end - start,
                                             cache_hit=hit, end=end)))
            if ledger is not None:
                if op.kind == "range":
                    if not hit:
                        ledger.add_counters(op.system, result.counters)
                elif not hit:
                    ledger.add_report(op.system, result)
                if op.kind != "ingest":
                    ledger.add_lookup(op.system, hit, end - start)
        return done

    def _checked(self, done) -> list:
        """The outcomes of issued ops, each checked against the oracle."""
        outcomes = []
        for op, result, outcome in done:
            if outcome.ok and not self._check(op, result):
                outcome.ok = False
                print(f"perfbench: wrong answer for {op.kind} on {op.system}",
                      file=sys.stderr)
            outcomes.append(outcome)
        return outcomes

    def measure(self, seconds: float, probe) -> dict:
        """Ops until *seconds* have passed; answers are checked afterwards."""
        start = time.perf_counter()
        deadline = start + seconds
        done = self._issue(itertools.islice(self.ops, self.RSS_OPS), deadline, probe=probe)
        rss = peak_rss_mb()
        done += self._issue(self.ops, deadline, probe=probe)
        wall = max((o.end for _, _, o in done), default=time.perf_counter()) - start
        outcomes = self._checked(done)
        return summarize(outcomes, len(outcomes) / (wall - probe.spent), rss)

    def _round(self, index: int, tracer=None, ledger=None) -> list:
        """The client's next ROUND_OPS ops (rounds follow one another)."""
        ops = itertools.islice(self.ops, self.ROUND_OPS)
        return self._checked(self._issue(ops, tracer=tracer, ledger=ledger))

    def traced(self, seconds: float, tracer) -> dict:
        return alternate_rounds(self, seconds, tracer)


WORKLOADS = {w.name: w for w in (TaxiNycb, EdgesWater, Served)}


# ------------------------------------------------------------------ results
def peak_rss_mb() -> float:
    """The process's peak resident set so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summarize(outcomes: list, qps: float, rss_mb: float) -> dict:
    """End-to-end figures of one measured run (untraced)."""
    joins = {s: [] for s in SYSTEMS}
    by_kind = {}
    for o in outcomes:
        if not o.ok:
            continue
        if o.kind == "join" and not o.cache_hit:
            joins[o.system].append(o.seconds)
        key = "hit" if o.cache_hit else o.kind
        by_kind.setdefault(key, []).append(o.seconds)
    return {
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if not o.ok),
        "joins": joins,
        "by_kind": by_kind,
        "qps": qps,
        "peak_rss_mb": rss_mb,
    }


def alternate_rounds(workload, seconds: float, tracer) -> dict:
    """Untraced and traced rounds in turn until *seconds* have passed.

    Counts come from the first traced round; self times are medians over
    the traced rounds; the tracing overhead compares traced and untraced
    round walls.
    """
    untraced, traced, self_rounds, wall_rounds, outcomes = [], [], [], [], []
    first, fired = None, set()
    start = time.perf_counter()
    index = 0
    while not traced or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        outcomes += workload._round(index)
        untraced.append(time.perf_counter() - t0)
        index += 1
        ledger = RoundLedger()
        tracer.reset()
        tracer.enabled = True
        t0 = time.perf_counter()
        try:
            outcomes += workload._round(index, tracer=tracer, ledger=ledger)
        finally:
            tracer.enabled = False
        traced.append(time.perf_counter() - t0)
        index += 1
        figures = tracer.snapshot()
        self_rounds.append(figures.self_s)
        wall_rounds.append(figures.op_wall)
        fired |= figures.fired()
        if first is None:
            first = (figures, ledger)

    def medians(rounds):
        keys = set().union(*rounds)
        return {k: median([r.get(k, 0.0) for r in rounds]) for k in keys}

    return {
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if not o.ok),
        "overhead": median(traced) / median(untraced) - 1.0,
        "self_s": medians(self_rounds),
        "op_wall": medians(wall_rounds),
        "fired": fired,
        "first": first,
        "rounds": len(traced),
    }
