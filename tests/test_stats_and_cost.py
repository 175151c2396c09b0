"""Statistics manager and cost model tests."""

import pytest

from repro.optimizer.cost import CostModel
from repro.qgm.builder import QGMBuilder
from repro.sql.parser import parse_expression, parse_statement
from repro.storage.stats import StatisticsManager, analyze_table


class TestAnalyzeTable:
    def test_cardinality_and_distinct(self, simple_db):
        stats = analyze_table(simple_db.table("DEPT"))
        assert stats.cardinality == 3
        assert stats.column("LOC").distinct == 2
        assert stats.column("DNO").distinct == 3

    def test_min_max(self, simple_db):
        stats = analyze_table(simple_db.table("EMP"))
        assert stats.column("SAL").minimum == 90
        assert stats.column("SAL").maximum == 200

    def test_null_fraction(self, simple_db):
        stats = analyze_table(simple_db.table("EMP"))
        assert stats.column("EDNO").null_fraction == pytest.approx(0.2)

    def test_empty_table(self, empty_org_db):
        stats = analyze_table(empty_org_db.table("DEPT"))
        assert stats.cardinality == 0
        assert stats.column("DNO").distinct == 0

    def test_unknown_column_defaults(self, simple_db):
        stats = analyze_table(simple_db.table("DEPT"))
        assert stats.column("GHOST").distinct == 1

    def test_equality_selectivity(self, simple_db):
        stats = analyze_table(simple_db.table("DEPT"))
        assert stats.column("LOC").selectivity_equals(3) == \
            pytest.approx(0.5)


class TestStatisticsManager:
    def test_snapshot_cached(self, simple_db):
        manager = StatisticsManager(simple_db.engine.catalog)
        first = manager.stats_for("DEPT")
        assert manager.stats_for("DEPT") is first

    def test_invalidate_refreshes(self, simple_db):
        manager = StatisticsManager(simple_db.engine.catalog)
        first = manager.stats_for("DEPT")
        manager.invalidate("DEPT")
        assert manager.stats_for("DEPT") is not first

    def test_large_drift_triggers_refresh(self, simple_db):
        manager = StatisticsManager(simple_db.engine.catalog)
        before = manager.stats_for("DEPT")
        table = simple_db.table("DEPT")
        for i in range(100, 150):
            table.insert((i, f"d{i}", "X"))
        after = manager.stats_for("DEPT")
        assert after is not before
        assert after.cardinality == 53

    def test_small_drift_tolerated(self, simple_db):
        manager = StatisticsManager(simple_db.engine.catalog)
        before = manager.stats_for("DEPT")
        simple_db.table("DEPT").insert((99, "tiny", "X"))
        assert manager.stats_for("DEPT") is before

    def test_value_only_updates_are_not_drift(self):
        from repro.api.engine import Engine
        db = Engine().connect()
        db.execute("CREATE TABLE T (K INT PRIMARY KEY, V INT)")
        table = db.table("T")
        for k in range(4000):
            table.insert((k, 0))
        db.analyze()
        epoch = db.engine.stats.table_epoch("T")
        for k in range(0, 4000, 4):
            db.execute(f"UPDATE T SET v = v + 1 WHERE k = {k}")
        # 1,000 rows changed value, none came or went.
        assert db.engine.stats.table_epoch("T") == epoch
        assert db.query("SELECT COUNT(*) FROM T WHERE v = 1").rows == \
            [(1000,)]
        db.execute("INSERT INTO T VALUES "
                   + ", ".join(f"({k}, 0)" for k in range(4000, 5000)))
        assert db.engine.stats.table_epoch("T") > epoch


class TestCostModel:
    def make_model(self, db):
        return CostModel(StatisticsManager(db.engine.catalog))

    def box_for(self, db, sql):
        graph = QGMBuilder(db.engine.catalog).build_select(parse_statement(sql))
        return graph.top.single_output().box

    def test_base_cardinality(self, simple_db):
        model = self.make_model(simple_db)
        box = self.box_for(simple_db, "SELECT * FROM EMP")
        base = box.body_quantifiers[0].box
        assert model.box_rows(base) == 5

    def test_selection_reduces_estimate(self, simple_db):
        model = self.make_model(simple_db)
        filtered = self.box_for(simple_db,
                                "SELECT * FROM DEPT WHERE loc = 'ARC'")
        unfiltered = self.box_for(simple_db, "SELECT * FROM DEPT")
        assert model.box_rows(filtered) < model.box_rows(unfiltered)

    def test_equality_uses_distinct_counts(self, simple_db):
        model = self.make_model(simple_db)
        box = self.box_for(simple_db,
                           "SELECT * FROM DEPT WHERE dno = 1")
        # 3 rows / 3 distinct keys ~ 1 row.
        assert model.box_rows(box) == pytest.approx(1.0, abs=0.2)

    def test_and_multiplies_selectivities(self, simple_db):
        model = self.make_model(simple_db)
        one = model.selectivity(parse_expression("1 = 1"))
        assert model.selectivity(parse_expression("1 = 1 AND 2 = 2")) \
            == pytest.approx(one * one)

    def test_or_adds_and_caps(self, simple_db):
        model = self.make_model(simple_db)
        assert model.selectivity(parse_expression(
            "1 < 2 OR 3 < 4 OR 5 < 6")) <= 1.0

    def test_literal_predicates(self, simple_db):
        model = self.make_model(simple_db)
        from repro.sql import ast
        assert model.selectivity(ast.Literal(True)) == 1.0
        assert model.selectivity(ast.Literal(False)) == 0.0

    def test_join_estimate_grows_with_inputs(self, simple_db):
        model = self.make_model(simple_db)
        small = model.join_rows(10, 10, [])
        large = model.join_rows(100, 100, [])
        assert large > small

    def test_estimates_cached_per_box(self, simple_db):
        model = self.make_model(simple_db)
        box = self.box_for(simple_db, "SELECT * FROM EMP")
        assert model.box_rows(box) == model.box_rows(box)
        model.invalidate()
        assert model.box_rows(box) == 5


class TestHistogram:
    def test_equi_depth_buckets(self):
        from repro.storage.stats import Histogram
        histogram = Histogram.build(sorted(range(100)), buckets=4)
        assert histogram.counts == (25, 25, 25, 25)
        assert histogram.lows[0] == 0 and histogram.highs[-1] == 99

    def test_fraction_below_boundaries(self):
        from repro.storage.stats import Histogram
        histogram = Histogram.build(sorted(range(100)), buckets=4)
        assert histogram.fraction_below(-1, inclusive=True) == 0.0
        assert histogram.fraction_below(99, inclusive=True) == 1.0
        assert histogram.fraction_below(49, inclusive=True) == \
            pytest.approx(0.5, abs=0.05)

    def test_string_buckets_use_midpoint(self):
        from repro.storage.stats import Histogram
        histogram = Histogram.build(sorted(["a", "b", "c", "d"] * 10),
                                    buckets=2)
        assert not histogram.numeric
        below = histogram.fraction_below("b", inclusive=True)
        assert 0.0 < below < 1.0

    def test_incomparable_value_raises(self):
        from repro.storage.stats import Histogram
        histogram = Histogram.build([1, 2, 3])
        with pytest.raises(TypeError):
            histogram.fraction_below("x", inclusive=True)


class TestMcvAndNdv:
    def test_skewed_column_keeps_heavy_hitter(self, simple_db):
        table = simple_db.table("DEPT")
        stats = analyze_table(table)
        mcv = dict(stats.column("LOC").mcv)
        assert mcv.get("ARC") == pytest.approx(2 / 3)

    def test_uniform_column_has_no_mcvs(self, simple_db):
        stats = analyze_table(simple_db.table("DEPT"))
        assert stats.column("DNO").mcv == ()

    def test_primary_key_ndv_exact(self, simple_db):
        stats = analyze_table(simple_db.table("EMP"))
        column = stats.column("ENO")
        assert column.distinct == 5 and column.ndv_exact


class TestConjunctDedup:
    def test_duplicate_conjunct_not_double_counted(self, simple_db):
        model = CostModel(StatisticsManager(simple_db.engine.catalog))
        builder = QGMBuilder(simple_db.engine.catalog)
        single = builder.build_select(parse_statement(
            "SELECT * FROM DEPT WHERE loc = 'ARC'"
        )).top.single_output().box
        doubled = QGMBuilder(simple_db.engine.catalog).build_select(
            parse_statement(
                "SELECT * FROM DEPT WHERE loc = 'ARC' AND loc = 'ARC'"
            )).top.single_output().box
        assert model.box_rows(doubled) == \
            pytest.approx(model.box_rows(single))

    def test_peeked_duplicate_parameters_dedup(self, simple_db):
        from repro.sql import ast
        model = CostModel(StatisticsManager(simple_db.engine.catalog),
                          peek={0: 3, 1: 3})
        first = ast.BinaryOp("=", ast.Literal(5), ast.Parameter(index=0))
        second = ast.BinaryOp("=", ast.Literal(5), ast.Parameter(index=1))
        assert model.conjunct_selectivity([first, second]) == \
            pytest.approx(model.selectivity(first))

    def test_distinct_parameters_still_multiply(self, simple_db):
        from repro.sql import ast
        model = CostModel(StatisticsManager(simple_db.engine.catalog),
                          peek={0: 3, 1: 4})
        first = ast.BinaryOp("=", ast.Literal(5), ast.Parameter(index=0))
        second = ast.BinaryOp("=", ast.Literal(5), ast.Parameter(index=1))
        combined = model.conjunct_selectivity([first, second])
        assert combined == pytest.approx(
            model.selectivity(first) * model.selectivity(second))


class TestValueAwareEstimates:
    def make_model(self, db):
        return CostModel(StatisticsManager(db.engine.catalog))

    def box_for(self, db, sql):
        graph = QGMBuilder(db.engine.catalog).build_select(parse_statement(sql))
        return graph.top.single_output().box

    def test_range_uses_histogram(self, simple_db):
        model = self.make_model(simple_db)
        narrow = self.box_for(simple_db,
                              "SELECT * FROM EMP WHERE sal < 95")
        wide = self.box_for(simple_db,
                            "SELECT * FROM EMP WHERE sal < 1000")
        # 1 of 5 salaries below 95; all below 1000.
        assert model.box_rows(narrow) == pytest.approx(1.0, abs=0.3)
        assert model.box_rows(wide) == pytest.approx(5.0, abs=0.3)

    def test_equality_out_of_range_estimates_empty(self, simple_db):
        model = self.make_model(simple_db)
        box = self.box_for(simple_db,
                           "SELECT * FROM EMP WHERE sal = 9999")
        assert model.box_rows(box) < 0.5

    def test_mcv_equality_sees_skew(self, simple_db):
        model = self.make_model(simple_db)
        hot = self.box_for(simple_db,
                           "SELECT * FROM DEPT WHERE loc = 'ARC'")
        # 2 of 3 departments are in ARC; the uniform guess would say
        # 1.5 — the MCV list must see the skew.
        assert model.box_rows(hot) == pytest.approx(2.0, abs=0.2)
