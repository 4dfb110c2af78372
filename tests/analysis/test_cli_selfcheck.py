"""The lint CLI (exit codes, formats, baseline workflow) and the
self-check: ``src/repro`` must lint clean — the repo's own contracts,
machine-enforced on the repo itself."""

import json
from pathlib import Path

import pytest

import repro
from repro.analysis import RULES, lint_paths
from repro.analysis.cli import main

SRC_REPRO = Path(repro.__file__).parent


@pytest.fixture()
def violating_tree(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import time\n"
        "def f(counters):\n"
        "    t0 = time.perf_counter()\n"
        "    counters.add('join.candidats')\n"
    )
    return tmp_path


class TestSelfCheck:
    def test_src_repro_lints_clean(self):
        findings = lint_paths([SRC_REPRO])
        assert findings == [], "\n".join(
            f"{f.path}:{f.line} {f.rule} {f.message}" for f in findings
        )

    def test_committed_baseline_is_empty(self):
        doc = json.loads((SRC_REPRO.parent.parent / "lint-baseline.json").read_text())
        assert doc == {"version": 1, "findings": []}

    def test_cli_acceptance_invocation(self, capsys):
        # The CI gate invocation: exit 0 over src/repro.
        assert main([str(SRC_REPRO)]) == 0
        assert "All checks passed" in capsys.readouterr().out


class TestCli:
    def test_exit_one_on_findings(self, violating_tree, capsys):
        assert main([str(violating_tree), "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "CLK001" in out and "CTR001" in out
        assert "2 findings." in out

    def test_json_format(self, violating_tree, capsys):
        assert (
            main([str(violating_tree), "--no-baseline",
                  "--format", "json"])
            == 1
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"] == {"findings": 2, "stale": 0, "ok": False}
        assert {f["rule"] for f in doc["findings"]} == {"CLK001", "CTR001"}
        for f in doc["findings"]:
            assert set(f) >= {"rule", "path", "line", "col", "message", "fingerprint"}

    def test_github_format(self, violating_tree, capsys):
        assert (
            main([str(violating_tree), "--no-baseline",
                  "--format", "github"])
            == 1
        )
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l]
        assert len(lines) == 2
        for line in lines:
            assert line.startswith("::error file=")
            assert ",line=" in line and ",col=" in line and ",title=" in line
        assert any("title=CLK001" in l for l in lines)
        # Clean tree: no workflow commands at all.
        (violating_tree / "mod.py").write_text("x = 1\n")
        assert (
            main([str(violating_tree), "--no-baseline",
                  "--format", "github"])
            == 0
        )
        assert capsys.readouterr().out == ""

    def test_graph_dump(self, violating_tree, capsys):
        out_path = violating_tree / "graph.json"
        assert (
            main([str(violating_tree), "--no-baseline",
                  "--graph-dump", str(out_path)])
            == 1
        )
        doc = json.loads(out_path.read_text())
        assert set(doc) == {"version", "modules", "functions", "entry_points"}
        assert "mod.f" in doc["functions"]

    def test_why_usage_error(self, violating_tree):
        with pytest.raises(SystemExit) as exc:
            main([str(violating_tree), "--why", "CLK001", "mod.py"])
        assert exc.value.code == 2

    def test_why_per_file_rule(self, violating_tree, capsys):
        rc = main([str(violating_tree), "--no-baseline",
                   "--why", "CLK001", "mod.py:3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "CLK001" in out and "per-file rule" in out

    def test_baseline_workflow(self, violating_tree, capsys, monkeypatch):
        monkeypatch.chdir(violating_tree)
        baseline = violating_tree / "baseline.json"
        # Adopt the debt, then the same tree gates clean …
        assert main(["mod.py", "--baseline", str(baseline), "--write-baseline"]) == 0
        assert main(["mod.py", "--baseline", str(baseline)]) == 0
        assert "(2 baselined)" in capsys.readouterr().out
        # … a new violation fails …
        (violating_tree / "mod.py").write_text(
            (violating_tree / "mod.py").read_text() + "    d[id(t0)] = 1\n"
        )
        assert main(["mod.py", "--baseline", str(baseline)]) == 1
        assert "DET001" in capsys.readouterr().out
        # … and fixing everything makes the baseline itself stale.
        (violating_tree / "mod.py").write_text("x = 1\n")
        assert main(["mod.py", "--baseline", str(baseline)]) == 1
        assert "stale baseline entry" in capsys.readouterr().out

    def test_writes_no_file_it_was_not_asked_for(
        self, violating_tree, monkeypatch, capsys
    ):
        monkeypatch.chdir(violating_tree)
        before = sorted(violating_tree.rglob("*"))
        assert main(["mod.py"]) == 1
        assert main(["."]) == 1
        assert main(["mod.py", "--no-baseline", "--format", "json"]) == 1
        assert sorted(violating_tree.rglob("*")) == before

    def test_select_and_ignore_flags(self, violating_tree):
        assert main([str(violating_tree), "--no-baseline", "--select", "CLK001"]) == 1
        assert (
            main([str(violating_tree), "--no-baseline", "--ignore", "CLK001,CTR001"])
            == 0
        )

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in (
            "DET001",
            "DET002",
            "DET003",
            "CLK001",
            "CTR001",
            "API001",
            "WRK001",
            "CTR002",
            "DET004",
            "API002",
        ):
            assert code in out

    def test_unknown_rule_code_is_usage_error(self, violating_tree):
        with pytest.raises(SystemExit) as exc:
            main([str(violating_tree), "--select", "NOPE999"])
        assert exc.value.code == 2

    def test_missing_path_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["definitely/not/a/path.py"])
        assert exc.value.code == 2


class TestRegistry:
    def test_rule_pack_is_complete(self):
        assert set(RULES) == {
            "DET001",
            "DET002",
            "DET003",
            "CLK001",
            "CTR001",
            "API001",
            "WRK001",
            "CTR002",
            "DET004",
            "API002",
        }
        for code, rule in RULES.items():
            assert rule.code == code
            assert rule.name and rule.description

    def test_whole_program_split(self):
        whole = {c for c, r in RULES.items() if getattr(r, "whole_program", False)}
        assert whole == {"WRK001", "CTR002", "DET004", "API002"}
