"""Whole-program rules: violation / noqa / clean fixture per rule.

Every rule gets three fixtures: code that violates the contract, the
same code with an explicit ``# repro: noqa[RULE]`` suppression, and a
compliant variant that must produce zero findings.  WRK001 findings
additionally pin the ``--why`` witness chain end to end.
"""

import textwrap

from repro.analysis import lint_paths
from repro.analysis.cli import main
from repro.analysis.core import LintSession

SCHEMA = frozenset({"join.pairs", "join.candidates"})


def write_tree(root, files):
    (root / "pkg").mkdir(parents=True, exist_ok=True)
    (root / "pkg" / "__init__.py").write_text("")
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return root


def run(root, *codes, schema=SCHEMA):
    session = LintSession(select=list(codes), counter_schema=schema)
    return lint_paths([root], session=session)


# --------------------------------------------------------------------- WRK001
WRK_VIOLATION = {
    "pkg/work.py": """
        import random
        import time

        _WORKER_ENTRY_POINTS = ("worker_main",)

        CACHE = {}


        def clock_helper():
            return time.time()


        def rng_helper():
            return random.random()


        def cache_helper(key):
            CACHE[key] = 1


        def middle(task):
            clock_helper()
            rng_helper()


        def worker_main(task):
            middle(task)
            cache_helper(task)
    """,
}


class TestWorkerPurity:
    def test_transitive_primitives_are_flagged(self, tmp_path):
        root = write_tree(tmp_path, WRK_VIOLATION)
        findings = run(root, "WRK001")
        kinds = {f.message.split(": ", 1)[1].split(" in ")[0] for f in findings}
        assert kinds == {
            "wall-clock read",
            "unseeded/global RNG",
            "module-global write",
        }
        assert all(f.rule == "WRK001" for f in findings)

    def test_every_finding_carries_full_chain(self, tmp_path):
        root = write_tree(tmp_path, WRK_VIOLATION)
        for f in run(root, "WRK001"):
            assert f.trace, f
            # Chain shape: entry header, -> steps, !! primitive.
            assert "pkg.work.worker_main" in f.trace[0]
            assert "_WORKER_ENTRY_POINTS" in f.trace[0]
            assert f.trace[-1].startswith("!!")
            for step in f.trace[1:-1]:
                assert step.startswith("-> ")
        clock = next(f for f in run(root, "WRK001") if "time.time" in f.message)
        # worker_main -> middle -> clock_helper, two hops exactly.
        assert [s.split(" ")[1] for s in clock.trace[1:-1]] == [
            "pkg.work.middle",
            "pkg.work.clock_helper",
        ]

    def test_why_cli_reproduces_chain(self, tmp_path, capsys):
        root = write_tree(tmp_path, WRK_VIOLATION)
        for f in run(root, "WRK001"):
            rc = main([
                str(root), "--no-baseline", "--select", "WRK001",
                "--why", "WRK001", f"work.py:{f.line}",
            ])
            out = capsys.readouterr().out
            assert rc == 0
            for step in f.trace:
                assert step in out

    def test_noqa_suppresses(self, tmp_path):
        root = write_tree(tmp_path, {
            "pkg/work.py": """
                import time

                _WORKER_ENTRY_POINTS = ("worker_main",)


                def helper():
                    return time.time()  # repro: noqa[WRK001]


                def worker_main(task):
                    return helper()
            """,
        })
        assert run(root, "WRK001") == []

    def test_clean_worker_is_clean(self, tmp_path):
        root = write_tree(tmp_path, {
            "pkg/work.py": """
                _WORKER_ENTRY_POINTS = ("worker_main",)


                def helper(xs):
                    return sorted(xs)


                def unreachable_impurity():
                    import time

                    return time.time()


                def worker_main(task):
                    return helper(task)
            """,
        })
        # The impure helper exists but is NOT reachable from the entry.
        assert run(root, "WRK001") == []


# --------------------------------------------------------------------- CTR002
class TestCounterKeyFlow:
    def test_literal_through_helper_param(self, tmp_path):
        root = write_tree(tmp_path, {
            "pkg/c.py": """
                def bump(counters, key):
                    counters.add(key)


                def caller(counters):
                    bump(counters, "join.candidats")
            """,
        })
        findings = run(root, "CTR002")
        assert len(findings) == 1
        f = findings[0]
        assert "join.candidats" in f.message and "bump" in f.message
        assert any("counters.add" in step for step in f.trace)

    def test_transitive_two_hop_flow(self, tmp_path):
        root = write_tree(tmp_path, {
            "pkg/c.py": """
                def sink(counters, key):
                    counters.add(key)


                def middle(counters, name):
                    sink(counters, name)


                def caller(counters):
                    middle(counters, "nope.key")
            """,
        })
        findings = run(root, "CTR002")
        assert len(findings) == 1
        assert "'nope.key'" in findings[0].message
        # Provenance walks caller param -> middle -> sink.
        assert any("middle" in step and "sink" in step for step in findings[0].trace)

    def test_registered_key_is_clean(self, tmp_path):
        root = write_tree(tmp_path, {
            "pkg/c.py": """
                def bump(counters, key):
                    counters.add(key)


                def caller(counters):
                    bump(counters, "join.pairs")
            """,
        })
        assert run(root, "CTR002") == []

    def test_noqa_suppresses(self, tmp_path):
        root = write_tree(tmp_path, {
            "pkg/c.py": """
                def bump(counters, key):
                    counters.add(key)


                def caller(counters):
                    bump(counters, "nope.key")  # repro: noqa[CTR002]
            """,
        })
        assert run(root, "CTR002") == []


# --------------------------------------------------------------------- DET004
class TestSetIdentityFlow:
    def test_set_return_iterated_ordered(self, tmp_path):
        root = write_tree(tmp_path, {
            "pkg/d.py": """
                def make_ids(rows):
                    return {r for r in rows}


                def emit(rows):
                    out = []
                    for x in make_ids(rows):
                        out.append(x)
                    return out
            """,
        })
        findings = run(root, "DET004")
        assert len(findings) == 1
        assert "make_ids" in findings[0].message
        assert findings[0].trace

    def test_set_arg_into_ordered_param(self, tmp_path):
        root = write_tree(tmp_path, {
            "pkg/d.py": """
                def emit(items):
                    return [x for x in items]


                def caller(rows):
                    return emit(set(rows))
            """,
        })
        findings = run(root, "DET004")
        assert len(findings) == 1
        assert "param 'items'" in findings[0].message

    def test_id_return_used_as_key(self, tmp_path):
        root = write_tree(tmp_path, {
            "pkg/d.py": """
                def token(obj):
                    return id(obj)


                def index(objs):
                    table = {}
                    for o in objs:
                        table[token(o)] = o
                    return table
            """,
        })
        findings = run(root, "DET004")
        assert len(findings) == 1
        assert "id()" in findings[0].message

    def test_sorted_wrapper_is_clean(self, tmp_path):
        root = write_tree(tmp_path, {
            "pkg/d.py": """
                def make_ids(rows):
                    return {r for r in rows}


                def emit(rows):
                    out = []
                    for x in sorted(make_ids(rows)):
                        out.append(x)
                    return out


                def total(rows):
                    return sum(x for x in make_ids(rows))
            """,
        })
        assert run(root, "DET004") == []

    def test_noqa_suppresses(self, tmp_path):
        root = write_tree(tmp_path, {
            "pkg/d.py": """
                def make_ids(rows):
                    return {r for r in rows}


                def emit(rows):
                    return [x for x in make_ids(rows)]  # repro: noqa[DET004]
            """,
        })
        assert run(root, "DET004") == []


# --------------------------------------------------------------------- API002
class TestDeadExport:
    def test_unreferenced_export_is_flagged(self, tmp_path):
        root = write_tree(tmp_path, {
            "pkg/mod.py": """
                __all__ = [
                    "used",
                    "dead",
                ]


                def used():
                    return 1


                def dead():
                    return 2
            """,
            "pkg/other.py": """
                from pkg.mod import used


                def caller():
                    return used()
            """,
        })
        findings = run(root, "API002")
        assert len(findings) == 1
        assert "'dead'" in findings[0].message
        assert '"dead",' in findings[0].snippet

    def test_package_init_is_exempt(self, tmp_path):
        root = write_tree(tmp_path, {
            "pkg/mod.py": """
                def f():
                    return 1
            """,
        })
        (root / "pkg" / "__init__.py").write_text(
            "from .mod import f\n\n__all__ = [\"f\"]\n"
        )
        assert run(root, "API002") == []

    def test_star_import_counts_as_use(self, tmp_path):
        root = write_tree(tmp_path, {
            "pkg/mod.py": """
                __all__ = ["anything"]


                def anything():
                    return 1
            """,
            "pkg/other.py": """
                from pkg.mod import *
            """,
        })
        assert run(root, "API002") == []

    def test_reexport_through_init_counts_as_use(self, tmp_path):
        root = write_tree(tmp_path, {
            "pkg/mod.py": """
                __all__ = ["f"]


                def f():
                    return 1
            """,
        })
        (root / "pkg" / "__init__.py").write_text("from .mod import f\n")
        assert run(root, "API002") == []

    def test_noqa_suppresses(self, tmp_path):
        root = write_tree(tmp_path, {
            "pkg/mod.py": """
                __all__ = [
                    "dead",  # repro: noqa[API002]
                ]


                def dead():
                    return 2
            """,
        })
        assert run(root, "API002") == []
