#!/usr/bin/env python
"""Real wall-clock speedup of the task execution backends.

Unlike the ``bench_table*`` modules (which report *simulated* seconds
from the cost model), this script measures how long the reproduction
itself takes to run one join as the executor backend and worker count
change.  The simulated outputs are bit-identical across backends by
construction — wall-clock time is the only thing at stake, and the
per-stage task timings from ``RunReport.engine_profile["exec"]`` show
where it goes.

Run:  PYTHONPATH=src python benchmarks/bench_parallel.py [--out FILE]

Prints (and optionally writes) a JSON document::

    {
      "workload": {...}, "cpu_count": 8, "affinity_cores": 8,
      "undersubscribed": false,
      "runs": [{"backend": "serial", "workers": 1, "wall_seconds": ...,
                "task_seconds": ..., "speedup": 1.0, ...}, ...]
    }

Speedups are relative to the serial backend.  The process backend forks
one child per worker slice of every stage and pipes the task outcomes
back, so it pays a fork per slice per stage and wins only where stages
run long enough to amortize that; thread workers overlap only in
GIL-releasing NumPy kernels.  Rows slower than serial are reported as
measured (``slower_than_serial``).

**Environment honesty**: speedup numbers are meaningless when the
process has fewer usable cores than workers.  The document records both
``os.cpu_count()`` and ``len(os.sched_getaffinity(0))`` and flags every
row (and the whole document) ``undersubscribed`` when affinity cores <
workers; undersubscribed rows are exempt from the ``slower_than_serial``
regression flag and from the ``BENCH_PARALLEL_STRICT`` gate — a 1-core
container cannot fail a parallelism gate it cannot exercise.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

from repro import spatial_join
from repro.data import census_blocks, taxi_points

REPO_ROOT = Path(__file__).resolve().parent.parent

#: (backend, workers) grid; serial first so speedups have a baseline.
GRID = [
    ("serial", 1),
    ("thread", 4),
    ("process", 2),
    ("process", 4),
]


def _affinity_cores() -> int:
    """Cores this process may actually run on (≤ ``os.cpu_count()``)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def measure(points, blocks, *, system: str, backend: str, workers: int,
            repeats: int = 1) -> dict:
    best = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        report = spatial_join(
            points, blocks, system=system, backend=backend, workers=workers,
            block_size=1 << 15,
        )
        wall = time.perf_counter() - start
        if best is None or wall < best[0]:
            best = (wall, report)
    wall, report = best
    exec_profile = report.engine_profile["exec"]
    return {
        "backend": backend,
        "workers": workers,
        "wall_seconds": round(wall, 3),
        "status": report.status,
        "pairs": len(report.pairs or ()),
        "stages": exec_profile["stages"],
        "tasks": exec_profile["tasks"],
        # summed per-task body time; > wall_seconds means tasks overlapped
        "task_seconds": round(exec_profile["task_seconds"], 3),
        "simulated_seconds": round(report.clock.total_seconds, 3),
        "warnings": list(report.warnings),
    }


def classify_rows(runs: list[dict], affinity: int) -> list[dict]:
    """Annotate measured rows with speedup and gate eligibility.

    The first row is the serial baseline.  A parallel config counts as
    ``slower_than_serial`` only when the host actually granted it the
    cores it asked for; undersubscribed rows are recorded but exempt —
    a 1-core container cannot fail a parallelism gate it cannot
    exercise.
    """
    baseline = None
    for row in runs:
        if baseline is None:
            baseline = row["wall_seconds"]
        row["speedup"] = round(baseline / max(row["wall_seconds"], 1e-9), 2)
        row["undersubscribed"] = row["workers"] > 1 and affinity < row["workers"]
        row["slower_than_serial"] = (
            not row["undersubscribed"] and row["speedup"] < 1.0
        )
    return runs


def strict_gate(runs: list[dict], env=None) -> int:
    """Exit code for BENCH_PARALLEL_STRICT: 1 iff an *eligible* row lost.

    Rows flagged ``undersubscribed`` never trip the gate, with or
    without the environment variable.
    """
    env = os.environ if env is None else env
    if not env.get("BENCH_PARALLEL_STRICT"):
        return 0
    return 1 if any(r["slower_than_serial"] for r in runs) else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--exec-records", type=int, default=20_000,
                        help="records per dataset (default 20000)")
    parser.add_argument("--system", default="SpatialHadoop",
                        choices=("HadoopGIS", "SpatialHadoop", "SpatialSpark"))
    parser.add_argument("--repeats", type=int, default=1,
                        help="timed repetitions per config (best is kept)")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_parallel.json"),
                        help="output JSON path (default: repo root)")
    args = parser.parse_args()

    points = taxi_points(args.exec_records, seed=3)
    blocks = census_blocks(args.exec_records, seed=4)
    affinity = _affinity_cores()

    runs = []
    for backend, workers in GRID:
        runs.append(measure(points, blocks, system=args.system,
                            backend=backend, workers=workers,
                            repeats=args.repeats))
    classify_rows(runs, affinity)
    for row in runs:
        note = " [undersubscribed]" if row["undersubscribed"] else ""
        print(f"{row['backend']:>8} x{row['workers']}: "
              f"{row['wall_seconds']:7.2f}s "
              f"(speedup {row['speedup']:.2f}x, pairs {row['pairs']:,})"
              f"{note}")

    pair_sets = {r["pairs"] for r in runs}
    assert len(pair_sets) == 1, f"backends disagreed on results: {pair_sets}"

    undersubscribed = any(r["undersubscribed"] for r in runs)
    if undersubscribed:
        print(f"::warning title=bench_parallel undersubscribed::"
              f"affinity grants {affinity} core(s) but the grid asks for "
              f"up to {max(w for _, w in GRID)} workers — speedup numbers "
              f"on this host are not meaningful and the strict gate is "
              f"skipped for affected rows")

    # Parallel configurations that lose to serial *with enough cores* are
    # a regression signal, not a formatting detail: surface them loudly
    # in CI logs (GitHub annotation syntax) and, when
    # BENCH_PARALLEL_STRICT is set, fail the job instead of letting the
    # slowdown ride along in the artifact.
    slow = [r for r in runs if r["slower_than_serial"]]
    for row in slow:
        print(f"::warning title=bench_parallel slowdown::"
              f"{row['backend']} x{row['workers']} ran "
              f"{row['speedup']:.2f}x vs serial "
              f"({row['wall_seconds']:.2f}s, cpu_count={os.cpu_count()}, "
              f"affinity_cores={affinity})")

    document = {
        "workload": {
            "system": args.system,
            "exec_records": args.exec_records,
            "datasets": "taxi_points x census_blocks",
        },
        "cpu_count": os.cpu_count(),
        "affinity_cores": affinity,
        "undersubscribed": undersubscribed,
        "runs": runs,
    }
    text = json.dumps(document, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    code = strict_gate(runs)
    if code:
        print(f"BENCH_PARALLEL_STRICT: {len(slow)} configuration(s) "
              f"slower than serial — failing")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
