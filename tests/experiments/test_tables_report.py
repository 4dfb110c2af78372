"""Table regeneration and report generator tests.

Uses a reduced execution scale to keep runtime reasonable; the shape
assertions here are the coarse ones that hold at any scale (fine-grained
shape checks live in the benchmarks, which run at the calibrated scale).
"""

import importlib

import pytest

from repro.experiments import (
    fig1,
    generate_report,
    headline_comparisons,
    table1,
    table2,
    table3,
)

SMALL = {
    "taxi-nycb": 900,
    "edges-linearwater": 2500,
    "taxi1m-nycb": 900,
    "edges0.1-linearwater0.1": 2500,
}


@pytest.fixture(scope="module")
def t2():
    return table2(exec_records=SMALL, seed=2)


@pytest.fixture(scope="module")
def t3():
    return table3(exec_records=SMALL, seed=2)


class TestTable1:
    def test_text(self):
        text = table1()
        assert "169,720,892" in text
        assert "23.8 GB" in text


class TestFig1:
    def test_render(self):
        text = fig1()
        for fragment in ("HadoopGIS", "SpatialHadoop", "SpatialSpark",
                         "streaming", "random", "functional",
                         "HDFS touch points"):
            assert fragment in text


class TestTable2:
    def test_all_cells_present(self, t2):
        assert len(t2.cells) == 2 * 3 * 4

    def test_failure_matrix(self, t2):
        matrix = t2.failure_matrix()
        for exp in ("taxi-nycb", "edges-linearwater"):
            for config in ("WS", "EC2-10", "EC2-8", "EC2-6"):
                assert matrix[(exp, "HadoopGIS", config)] == "broken_pipe"
                assert matrix[(exp, "SpatialHadoop", config)] is None
            assert matrix[(exp, "SpatialSpark", "WS")] is None
            assert matrix[(exp, "SpatialSpark", "EC2-8")] == "oom"

    def test_render_contains_dashes_and_numbers(self, t2):
        text = t2.render()
        assert "-" in text
        assert "SpatialHadoop" in text

    def test_spatialspark_wins_on_ec2(self, t2):
        for exp in ("taxi-nycb", "edges-linearwater"):
            assert t2.seconds(exp, "SpatialSpark", "EC2-10") < t2.seconds(
                exp, "SpatialHadoop", "EC2-10"
            )


class TestTable3:
    def test_all_cells_present(self, t3):
        assert len(t3.cells) == 2 * 3 * 2

    def test_hadoopgis_pattern(self, t3):
        for exp in ("taxi1m-nycb", "edges0.1-linearwater0.1"):
            assert t3.cells[(exp, "HadoopGIS", "WS")] is not None
            assert t3.cells[(exp, "HadoopGIS", "EC2-10")] is None

    def test_render_spatialspark_tot_only(self, t3):
        text = t3.render()
        assert "TOT" in text and "SpatialSpark" in text


class TestHeadlines:
    def test_rows_computed(self, t2, t3):
        rows = headline_comparisons(t2, t3)
        assert len(rows) == 10
        for label, paper, ours in rows:
            assert paper > 0
            assert ours is None or ours > 0

    def test_ec2_speedup_direction(self, t2, t3):
        rows = dict(
            (label, ours) for label, _p, ours in headline_comparisons(t2, t3)
        )
        key = "SpatialSpark over SpatialHadoop, taxi-nycb, EC2-10 (full)"
        assert rows[key] > 1.0  # SpatialSpark wins on EC2-10


class TestReport:
    def test_markdown_structure(self, t2, t3, monkeypatch):
        # The report renders the same tables the module fixtures already
        # built with the same arguments; hand those over instead of
        # rebuilding both.
        report_module = importlib.import_module("repro.experiments.report")

        def reuse(built):
            def stand_in(*, exec_records, seed):
                assert exec_records == SMALL and seed == 2
                return built
            return stand_in

        monkeypatch.setattr(report_module, "table2", reuse(t2))
        monkeypatch.setattr(report_module, "table3", reuse(t3))
        text = generate_report(exec_records=SMALL, seed=2)
        assert text.startswith("# Reproduction report")
        for section in ("## Table 1", "## Table 2", "## Table 3",
                        "## Headline claims", "## Failure matrix"):
            assert section in text
        assert "broken_pipe" in text and "oom" in text
        assert "| taxi-nycb | SpatialHadoop | WS | 3,327 |" in text
