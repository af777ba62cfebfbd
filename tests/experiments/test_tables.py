"""Tests for the table experiment drivers (Tables 1-5)."""

import pytest

from repro.core.features import DYNAMIC_FEATURE_NAMES
from repro.core.ga import GAConfig
from repro.experiments import (run_table1, run_table2, run_table3,
                               run_table4, run_table5)


class TestTable1:
    def test_matches_paper(self):
        result = run_table1()
        assert result.matches_paper()

    def test_format_mentions_all_machines(self):
        text = run_table1().format()
        for name in ("Nehalem", "Atom", "Core 2", "Sandy Bridge"):
            assert name in text


class TestTable2:
    # The committed report's run: each test checks a Table 2 claim of
    # EXPERIMENTS.md.
    @pytest.fixture(scope="class")
    def result(self, ctx):
        return run_table2(ctx, GAConfig())

    def test_ga_improves_over_all_features(self, result):
        assert result.fitness <= result.all_features_fitness

    def test_ga_improves_over_paper_set(self, result):
        assert result.fitness <= result.paper_set_fitness

    def test_selected_nonempty_and_small(self, result):
        assert 1 <= result.n_selected <= 40

    def test_selected_mixes_static_and_dynamic(self, result):
        dynamic = set(result.selected) & set(DYNAMIC_FEATURE_NAMES)
        assert 0 < len(dynamic) < result.n_selected

    def test_format(self, result):
        text = result.format()
        assert "GA fitness" in text
        assert "paper" in text


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self, ctx):
        return run_table3(ctx, k=14)

    def test_28_rows(self, result):
        assert len(result.rows) == 28

    def test_groupings_agree_with_paper(self, result):
        """Pairwise same-cluster agreement with Table 3 must be high."""
        assert result.pair_agreement() > 0.80

    def test_divide_codelets_clustered_together(self, result):
        """The paper's cluster 10 (vector divides) must survive."""
        by_name = {r.codelet: r for r in result.rows}
        assert by_name["svdcmp_13"].cluster == \
            by_name["svdcmp_14"].cluster

    def test_recurrences_clustered_together(self, result):
        by_name = {r.codelet: r for r in result.rows}
        assert by_name["tridag_1"].cluster == by_name["tridag_2"].cluster

    def test_matrix_sums_clustered_together(self, result):
        by_name = {r.codelet: r for r in result.rows}
        assert by_name["hqr_12"].cluster == by_name["jacobi_5"].cluster

    def test_representatives_count_equals_k(self, result):
        assert sum(r.is_representative for r in result.rows) == result.k

    def test_atom_speedups_below_one(self, result):
        assert all(r.atom_speedup < 1.0 for r in result.rows)


class TestTable4:
    @pytest.fixture(scope="class")
    def result(self, ctx):
        return run_table4(ctx)

    def test_four_cells(self, result):
        assert len(result.cells) == 4

    def test_errors_in_plausible_band(self, result):
        for cell in result.cells:
            assert cell.median < 10.0
            assert cell.average < 30.0

    def test_average_at_least_median(self, result):
        for cell in result.cells:
            assert cell.average >= cell.median


class TestTable5:
    @pytest.fixture(scope="class")
    def result(self, ctx):
        return run_table5(ctx)

    def test_three_targets(self, result):
        assert {r.arch_name for r in result.rows} == \
            {"Atom", "Core 2", "Sandy Bridge"}

    def test_decomposition(self, result):
        for r in result.rows:
            assert r.total == pytest.approx(
                r.invocations * r.clustering)

    def test_atom_highest_reduction(self, result):
        """The paper's ordering: Atom gains most (x44 > x25 > x23)."""
        atom = result.row("Atom").total
        assert atom > result.row("Core 2").total
        assert atom > result.row("Sandy Bridge").total

    def test_reduction_double_digit(self, result):
        for r in result.rows:
            assert r.total > 10.0
