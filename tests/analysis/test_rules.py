"""Per-rule fixture snippets: one seeded violation per rule, a
``# repro: noqa[...]``-suppressed variant, and a clean variant."""

import textwrap

import pytest

from repro.analysis import LintSession, lint_paths, lint_source


def lint(src, **kwargs):
    return lint_source(textwrap.dedent(src), "<snippet>", **kwargs)


def codes(src, **kwargs):
    return [f.rule for f in lint(src, **kwargs)]


class TestDET001IdAsKey:
    def test_setdefault_grouping(self):
        src = """
            groups = {}
            groups.setdefault(id(phase), []).append(task)
        """
        assert codes(src) == ["DET001"]

    def test_subscript_and_dict_literal(self):
        assert codes("table[id(x)] = 1\n") == ["DET001"]
        assert codes("table = {id(x): 1}\n") == ["DET001"]

    def test_set_membership_and_add(self):
        assert codes("seen.add(id(x))\n") == ["DET001"]
        assert codes("flag = id(x) in seen\n") == ["DET001"]

    def test_key_function(self):
        assert codes("items.sort(key=id)\n") == ["DET001"]

    def test_noqa(self):
        src = "groups.setdefault(id(x), [])  # repro: noqa[DET001]\n"
        assert codes(src) == []

    def test_clean_uses_of_id(self):
        # id() not used as a key — logging an address is fine.
        assert codes("print(id(x))\n") == []
        assert codes("token = id(x) + 1\n") == []


class TestDET002UnseededRng:
    def test_stdlib_module_rng(self):
        src = """
            import random
            random.shuffle(items)
        """
        assert codes(src) == ["DET002"]

    def test_numpy_module_rng(self):
        src = """
            import numpy as np
            values = np.random.rand(10)
        """
        assert codes(src) == ["DET002"]

    def test_unseeded_default_rng(self):
        src = """
            from numpy.random import default_rng
            rng = default_rng()
        """
        assert codes(src) == ["DET002"]

    def test_noqa(self):
        src = """
            import numpy as np
            values = np.random.rand(10)  # repro: noqa[DET002]
        """
        assert codes(src) == []

    def test_seeded_default_rng_is_clean(self):
        src = """
            import numpy as np
            rng = np.random.default_rng((seed, part))
            values = rng.random(10)
        """
        assert codes(src) == []

    def test_unimported_name_is_not_flagged(self):
        # A local variable merely named ``random`` is not the module.
        assert codes("random = helper()\nrandom.shuffle(x)\n") == []


class TestDET003UnorderedIteration:
    def test_for_over_set_union(self):
        src = """
            for key in set(a) | set(b):
                out.append(key)
        """
        assert codes(src) == ["DET003"]

    def test_comprehension_over_set_variable(self):
        src = """
            seen = set()
            pairs = [f(x) for x in seen]
        """
        assert codes(src) == ["DET003"]

    def test_list_call_over_set(self):
        assert codes("order = list({3, 1, 2})\n") == ["DET003"]

    def test_noqa(self):
        src = """
            for key in set(a) | set(b):  # repro: noqa[DET003]
                out.append(key)
        """
        assert codes(src) == []

    def test_sorted_wrapping_is_clean(self):
        src = """
            for key in sorted(set(a) | set(b)):
                out.append(key)
        """
        assert codes(src) == []

    def test_order_free_reducers_are_clean(self):
        assert codes("total = sum(v for v in {1, 2, 3})\n") == []
        assert codes("n = len({1, 2})\nbig = max(set(a))\n") == []

    def test_set_comprehension_target_is_clean(self):
        # set -> set keeps order invisible.
        assert codes("out = {f(x) for x in set(a)}\n") == []

    def test_hot_cell_split_order_must_be_sorted(self):
        # The adaptive repartitioner's discipline: hot cells are
        # processed in ascending cell-id order.  Splitting in
        # set-arrival order would make the output partitioning (and
        # every downstream ledger) depend on hash seeding.
        flagged = """
            hot = {4, 0, 7}
            for cell in hot:
                rows.extend(split(cell))
        """
        assert codes(flagged) == ["DET003"]
        clean = """
            hot = {4, 0, 7}
            for cell in sorted(hot):
                rows.extend(split(cell))
        """
        assert codes(clean) == []


class TestCLK001WallClock:
    def test_perf_counter_outside_whitelist(self):
        src = """
            import time
            t0 = time.perf_counter()
        """
        assert codes(src) == ["CLK001"]

    def test_datetime_now(self):
        src = """
            import datetime
            stamp = datetime.datetime.now()
        """
        assert codes(src) == ["CLK001"]

    def test_noqa(self):
        src = """
            import time
            t0 = time.time()  # repro: noqa[CLK001]
        """
        assert codes(src) == []

    def test_whitelisted_module_is_clean(self):
        src = """
            import time
            t0 = time.perf_counter()
        """
        assert codes(src, module="repro.trace.core") == []

    def test_sleep_is_not_a_clock_read(self):
        assert codes("import time\ntime.sleep(0.1)\n") == []


class TestCTR001CounterLedger:
    def test_typo_key_flagged(self):
        src = """
            def work(counters):
                counters.add("geom.pip_test")
        """
        assert codes(src) == ["CTR001"]

    def test_non_literal_key_flagged(self):
        src = """
            def work(counters, key):
                counters.add(key, 2.0)
        """
        assert codes(src) == ["CTR001"]

    def test_unregistered_subscript_read(self):
        src = """
            def price(counters):
                return counters["geom.pip_test"]
        """
        assert codes(src) == ["CTR001"]

    def test_noqa(self):
        src = """
            def work(counters, key):
                counters.add(key, 2.0)  # repro: noqa[CTR001]
        """
        assert codes(src) == []

    def test_registered_key_is_clean(self):
        src = """
            def work(counters):
                counters.add("geom.pip_tests")
                counters.add("join.candidates", 12)
                return counters["cpu.ops"]
        """
        assert codes(src) == []

    def test_alias_of_counters_attribute_is_tracked(self):
        src = """
            def work(self):
                c = self.counters
                c.add("not.a.key")
        """
        assert codes(src) == ["CTR001"]

    def test_planner_keys_are_registered(self):
        # The planner/calibrator ledger keys ride the same schema gate as
        # every other subsystem: charging them is clean, typos are not.
        src = """
            def work(counters):
                counters.add("plan.candidates", 27)
                counters.add("plan.cached")
                counters.add("plan.observations", 4)
        """
        assert codes(src) == []
        src_typo = """
            def work(counters):
                counters.add("plan.candidate")
        """
        assert codes(src_typo) == ["CTR001"]

    def test_shuffle_skew_keys_are_registered(self):
        # The skew-aware shuffle ledger keys (repro.shuffle) ride the
        # same schema gate: charging them is clean, typos are not.
        src = """
            def work(counters):
                counters.add("shuffle.records_pruned", 74)
                counters.add("shuffle.bytes_pruned", 18640)
                counters.add("shuffle.sfilter_builds", 2)
                counters.add("skew.cells_split")
                counters.add("skew.cells_added", 7)
        """
        assert codes(src) == []
        src_typo = """
            def work(counters):
                counters.add("shuffle.records_prunedd")
        """
        assert codes(src_typo) == ["CTR001"]

    def test_schema_override(self):
        session = LintSession(counter_schema=["custom.key"])
        src = """
            def work(counters):
                counters.add("custom.key")
        """
        assert codes(src, session=session) == []

    def test_plain_set_add_is_not_a_counter(self):
        src = """
            seen = set()
            seen.add("anything")
        """
        assert codes(src) == []


class TestAPI001ExportIntegrity:
    def _write_package(self, tmp_path, init_source, runner_source="run = 1\n"):
        pkg = tmp_path / "pkg"
        (pkg / "sub").mkdir(parents=True)
        (pkg / "__init__.py").write_text(textwrap.dedent(init_source))
        (pkg / "sub" / "__init__.py").write_text("")
        (pkg / "sub" / "runner.py").write_text(runner_source)
        return pkg

    def test_dangling_all_entry(self, tmp_path):
        pkg = self._write_package(
            tmp_path,
            """
            __all__ = ["present", "missing"]
            present = 1
            """,
        )
        findings = lint_paths([pkg])
        assert [f.rule for f in findings] == ["API001"]
        assert "missing" in findings[0].message

    def test_dangling_lazy_export(self, tmp_path):
        pkg = self._write_package(
            tmp_path,
            """
            __all__ = ["run"]
            _EXPORTS = {"run": ("pkg.sub.runner", "gone")}

            def __getattr__(name):
                raise AttributeError(name)
            """,
        )
        findings = lint_paths([pkg])
        assert [f.rule for f in findings] == ["API001"]
        assert "gone" in findings[0].message

    def test_unresolvable_module(self, tmp_path):
        pkg = self._write_package(
            tmp_path,
            """
            _EXPORTS = {"run": ("pkg.sub.nosuch", "run")}
            """,
        )
        findings = lint_paths([pkg])
        assert [f.rule for f in findings] == ["API001"]

    def test_resolving_exports_are_clean(self, tmp_path):
        pkg = self._write_package(
            tmp_path,
            """
            __all__ = ["run", "present"]
            present = 1
            _EXPORTS = {"run": ("pkg.sub.runner", "run")}

            def __getattr__(name):
                raise AttributeError(name)
            """,
        )
        assert lint_paths([pkg]) == []

    def test_lazy_export_missing_from_all(self, tmp_path):
        pkg = self._write_package(
            tmp_path,
            """
            __all__ = ["present"]
            present = 1
            _EXPORTS = {"run": ("pkg.sub.runner", "run")}

            def __getattr__(name):
                raise AttributeError(name)
            """,
        )
        findings = lint_paths([pkg])
        assert [f.rule for f in findings] == ["API001"]
        assert "missing from __all__" in findings[0].message

    def test_exports_without_all_are_not_flagged(self, tmp_path):
        pkg = self._write_package(
            tmp_path,
            """
            _EXPORTS = {"run": ("pkg.sub.runner", "run")}

            def __getattr__(name):
                raise AttributeError(name)
            """,
        )
        assert lint_paths([pkg]) == []

    def test_third_party_modules_are_skipped(self, tmp_path):
        pkg = self._write_package(
            tmp_path,
            """
            _EXPORTS = {"array": ("numpy", "array")}
            """,
        )
        assert lint_paths([pkg]) == []

    def test_noqa(self, tmp_path):
        pkg = self._write_package(
            tmp_path,
            """
            __all__ = [
                "missing",  # repro: noqa[API001]
            ]
            """,
        )
        assert lint_paths([pkg]) == []


class TestFrameworkMechanics:
    def test_bare_noqa_suppresses_all_rules(self):
        src = "table[id(x)] = list({1, 2})  # repro: noqa\n"
        assert codes(src) == []

    def test_noqa_only_suppresses_named_rule(self):
        src = "table[id(x)] = list({1, 2})  # repro: noqa[DET001]\n"
        assert codes(src) == ["DET003"]

    def test_select_and_ignore(self):
        src = "import time\nt = time.time()\ntable[id(x)] = t\n"
        assert codes(src, session=LintSession(select=["CLK001"])) == ["CLK001"]
        assert codes(src, session=LintSession(ignore=["CLK001"])) == ["DET001"]
        with pytest.raises(ValueError):
            LintSession(select=["NOPE999"])

    def test_syntax_error_becomes_finding(self):
        assert codes("def broken(:\n") == ["E999"]

    def test_findings_are_sorted_and_fingerprinted(self):
        src = "b[id(y)] = 1\na[id(x)] = 1\n"
        findings = lint(src)
        assert [f.line for f in findings] == [1, 2]
        assert len({f.fingerprint for f in findings}) == 2
