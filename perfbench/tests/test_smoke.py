"""Tiny-scale runs of every workload through the benchmark's command."""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("taxi-nycb", "edges-water", "taxi-roads-served")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(cwd, workload, trace, seed=7, scale="0.1"):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", scale],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_lists_what_the_command_reports():
    from layers import HIGHER_IS_BETTER, metric_names
    from run import END_TO_END

    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == metric_names()
    for m in spec["per_layer"]:
        higher = m["name"].startswith(HIGHER_IS_BETTER)
        assert m["better"] == ("higher" if higher else "lower"), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_is_correct(workload):
    out = _result(_run(ROOT, workload, 0))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    names = [m["name"] for m in _spec()["end_to_end"]]
    assert list(out["metrics"]) == names
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    # large enough that the plans, and so the fired entry points, are
    # the ones of the full-size run
    scale = "0.5" if workload == "taxi-roads-served" else "0.3"
    first, second = (_result(_run(ROOT, workload, 1, scale=scale)) for _ in range(2))
    assert first["failed"] == 0 and second["failed"] == 0
    assert list(first["metrics"]) == list(units)
    counted = [n for n, u in units.items() if u in ("count", "bytes")]
    assert {n: first["metrics"][n]["value"] for n in counted} == \
        {n: second["metrics"][n]["value"] for n in counted}


def test_fails_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(os.path.join(ROOT, "perfbench")):
        path = os.path.join(ROOT, "perfbench", name)
        if os.path.isfile(path):
            (bench / name).write_bytes(open(path, "rb").read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(_spec()))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "taxi-nycb", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_served_op_stream_does_not_run_out():
    import itertools

    from workloads import Served

    served = Served(seed=5, scale=0.1)
    served.generate()
    ops = list(itertools.islice(served.ops, 5000))
    assert len(ops) == 5000
    kinds = {op.kind for op in ops}
    assert kinds == {"join", "range", "ingest"}
    radii = [op.radius for op in ops if op.kind == "join"]
    assert len(set(radii)) > 0.5 * len(radii)  # repeats re-issue old ops only
