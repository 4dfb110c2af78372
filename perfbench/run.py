#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one run.

Run from the root of a repository checkout::

    python3 perfbench/run.py --workload taxi-nycb --seed 1 --seconds 20 --trace 0

``--trace 0`` measures untraced operations for ``--seconds`` and prints
every end-to-end metric; ``--trace 1`` alternates untraced and traced
rounds for ``--seconds`` and prints the per-layer metrics.  Every answer
is checked against an oracle.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every answer was right.  ``--scale`` shrinks the
inputs for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

from harness import LayerTracer
from hostspeed import HostProbe
from layers import ENTRIES, LAYERS, MUST_FIRE, SYSTEMS, metric_names, per_layer_metrics
from stats import median, tail_percentile

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
#: The MapReduce shuffle buckets by the salted ``hash(key)``; pinning the
#: salt makes per-layer counts repeat exactly between runs.
HASH_SEED = "0"
SETUP_REPS = 5

END_TO_END = [
    ("setup_s", "s"),
    ("join_s.HadoopGIS", "s"),
    ("join_s.SpatialHadoop", "s"),
    ("join_s.SpatialSpark", "s"),
    ("qps", "1/s"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0)
    return p.parse_args(argv)


def _metric_block(values: dict, units) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units}


def _fmt_tail(samples) -> str:
    if not samples:
        return "n=0"
    tail = tail_percentile(samples)
    text = f"p50 {median(samples):.4f} s"
    if tail is not None and tail[0] > 50:
        text += f", p{tail[0]:g} {tail[1]:.4f} s"
    return text + f" (n={len(samples)})"


def run_untraced(workload, setup_s: float, setup_probe, seconds: float):
    probe = HostProbe()
    res = workload.measure(seconds, probe)
    host = probe.factor()
    raw = {"qps": res["qps"]}
    for system, samples in res["joins"].items():
        if not samples:
            raise RuntimeError(f"no executed {system} join to report; raise --seconds")
        raw[f"join_s.{system}"] = median(samples)
    # at the reference speed: times scale with the host factor, rates against it
    values = {name: v / host if name == "qps" else v * host for name, v in raw.items()}
    raw["setup_s"] = setup_s
    values["setup_s"] = setup_s * setup_probe.factor()
    values["peak_rss_mb"] = res["peak_rss_mb"]
    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {workload.name}: {workload.describe()}")
    for phase, p in (("set-up", setup_probe), ("run", probe)):
        print(f"  host factor ({phase}) {p.factor():.4f}: reference work median "
              f"{median(p.samples) * 1e3:.3f} ms, n={len(p.samples)}")
    print(f"  {'metric':<22} {'reported':>12} {'raw wall':>12}")
    for name, unit in END_TO_END:
        n = len(res["joins"][name[7:]]) if name.startswith("join_s.") else None
        suffix = f"   (n={n})" if n is not None else ""
        raw_text = f"{raw[name]:>12.4f}" if name in raw else " " * 12
        print(f"  {name:<22} {values[name]:>12.4f} {raw_text} {unit}{suffix}")
    for kind, samples in sorted(res["by_kind"].items()):
        print(f"  latency[{kind}] {_fmt_tail(samples)} (raw wall)")
    print(f"  error_rate {failed / attempted if attempted else 0.0:.4f} "
          f"({failed} of {attempted} ops)")
    return attempted, failed, _metric_block(values, END_TO_END)


def run_traced(workload, seconds: float):
    tracer = LayerTracer()
    tracer.install(ENTRIES)
    try:
        res = workload.traced(seconds, tracer)
    finally:
        tracer.uninstall()
    first, ledger = res["first"]
    missing = sorted(
        target for target, names in MUST_FIRE.items()
        if workload.name in names and target not in res["fired"]
    )
    if missing:
        print("perfbench: wrapped entry points never fired on "
              f"{workload.name}: {', '.join(missing)}", file=sys.stderr)
        raise SystemExit(3)
    values = per_layer_metrics(first, ledger, res["overhead"], res["self_s"])
    print(f"workload {workload.name}: {workload.describe()}; "
          f"{res['rounds']} traced rounds")
    layer_of = {e.target: e.layer for e in ENTRIES}
    for system in SYSTEMS:
        wall = res["op_wall"].get(system, 0.0)
        if not wall:
            continue
        print(f"  {system}: traced wall {wall:.4f} s per round")
        print(f"    {'layer':<13}{'self s':>10}{'calls':>10}{'share':>8}")
        for layer in LAYERS:
            self_s = res["self_s"].get((system, layer), 0.0)
            calls = sum(n for (s, target), n in first.calls.items()
                        if s == system and layer_of[target] == layer)
            print(f"    {layer:<13}{self_s:>10.4f}{calls:>10}{self_s / wall:>8.1%}")
    print(f"  trace.overhead {res['overhead']:+.3f}")
    return res["attempted"], res["failed"], _metric_block(values, metric_names())


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run from the root "
              "of a repository checkout", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *argv], env)
    sys.path.insert(0, SRC)

    start = time.perf_counter()
    import repro
    import repro.api  # noqa: F401  (the lazy package exports load on first use)
    import repro.service  # noqa: F401
    import repro.systems  # noqa: F401
    import_s = time.perf_counter() - start

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.scale)
    workload.generate()
    workload.build_oracle()
    try:
        # set-up repetitions between host probes, so the set-up phase
        # gets a host factor of its own
        setup_probe = HostProbe()
        reps = []
        for _ in range(SETUP_REPS):
            setup_probe.sample()
            reps.append(workload.setup_once())
        setup_probe.sample()
        setup_s = import_s + median(reps)
        gc.collect()
        gc.freeze()
        if args.trace:
            attempted, failed, metrics = run_traced(workload, args.seconds)
        else:
            attempted, failed, metrics = run_untraced(workload, setup_s, setup_probe, args.seconds)
    finally:
        workload.close()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
