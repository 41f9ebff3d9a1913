"""Tests for the SQL front-end."""

import random

import pytest

from repro.core.query import _INTERNED, SliceQuery
from repro.cube.generator import generate_fact_table
from repro.cube.schema import CubeSchema, Dimension
from repro.sql import ParsedQuery, SqlError, parse_query, run_sql, to_sql


#: the attributes the parsing tests name
SCHEMA = CubeSchema([Dimension(name, 100) for name in ("p", "s", "c", "d", "e")])


@pytest.fixture
def schema():
    return CubeSchema(
        [Dimension("p", 20), Dimension("s", 10), Dimension("c", 8)],
        measure="sales",
    )


class TestParsing:
    def test_paper_example_query(self):
        """Section 3.1's SQL form of the pc subcube."""
        tpcd = CubeSchema(
            [
                Dimension("Part", 200_000),
                Dimension("Supplier", 10_000),
                Dimension("Customer", 100_000),
            ]
        )
        parsed = parse_query(
            "SELECT Part, Customer, SUM(sales) AS TotalSales FROM R "
            "GROUP BY Part, Customer;",
            tpcd,
        )
        assert parsed.query == SliceQuery(groupby=["Part", "Customer"])
        assert parsed.agg == "sum"

    def test_slice_query_with_where(self):
        parsed = parse_query(
            "SELECT c, SUM(sales) FROM cube WHERE p = 3 AND s = 4 GROUP BY c", SCHEMA
        )
        assert parsed.query == SliceQuery(groupby=["c"], selection=["p", "s"])
        assert parsed.values == {"p": 3, "s": 4}
        assert parsed.is_executable

    def test_grand_total(self):
        parsed = parse_query("SELECT SUM(sales) FROM cube", SCHEMA)
        assert parsed.query == SliceQuery()
        assert parsed.query.is_subcube_query

    def test_pure_selection_query(self):
        parsed = parse_query("SELECT SUM(sales) FROM cube WHERE p = 1", SCHEMA)
        assert parsed.query == SliceQuery(selection=["p"])

    def test_case_insensitive_keywords(self):
        parsed = parse_query("select p, sum(sales) from cube group by p", SCHEMA)
        assert parsed.query == SliceQuery(groupby=["p"])

    def test_count_star(self):
        parsed = parse_query("SELECT COUNT(*) FROM cube", SCHEMA)
        assert parsed.agg == "count"
        assert parsed.measure == "*"

    def test_table_name_captured(self):
        parsed = parse_query(
            "SELECT SUM(x) FROM warehouse.sales", SCHEMA, extra_measures=("x",)
        )
        assert parsed.table == "warehouse.sales"

    def test_semicolon_optional(self):
        a = parse_query("SELECT SUM(sales) FROM cube;", SCHEMA)
        b = parse_query("SELECT SUM(sales) FROM cube", SCHEMA)
        assert a.query == b.query


class TestErrors:
    def test_not_a_select(self):
        with pytest.raises(SqlError, match="expected"):
            parse_query("DELETE FROM cube", SCHEMA)

    def test_missing_aggregate(self):
        with pytest.raises(SqlError, match="aggregate"):
            parse_query("SELECT p FROM cube GROUP BY p", SCHEMA)

    def test_two_aggregates(self):
        with pytest.raises(SqlError, match="one aggregate"):
            parse_query("SELECT SUM(a), SUM(b) FROM cube", SCHEMA)

    def test_unsupported_aggregate(self):
        with pytest.raises(SqlError, match="unsupported aggregate"):
            parse_query("SELECT AVG(sales) FROM cube", SCHEMA)

    def test_groupby_select_mismatch(self):
        with pytest.raises(SqlError, match="must match"):
            parse_query("SELECT p, SUM(sales) FROM cube GROUP BY s", SCHEMA)

    def test_missing_groupby_for_selected_attr(self):
        with pytest.raises(SqlError, match="must match"):
            parse_query("SELECT p, SUM(sales) FROM cube", SCHEMA)

    def test_non_equality_predicate(self):
        with pytest.raises(SqlError, match="predicate"):
            parse_query("SELECT SUM(sales) FROM cube WHERE p > 3", SCHEMA)

    def test_attr_constrained_twice(self):
        with pytest.raises(SqlError, match="twice"):
            parse_query("SELECT SUM(sales) FROM cube WHERE p = 1 AND p = 2", SCHEMA)

    def test_attr_in_both_clauses(self):
        with pytest.raises(SqlError, match="both"):
            parse_query(
                "SELECT p, SUM(sales) FROM cube WHERE p = 1 GROUP BY p", SCHEMA
            )

    def test_schema_validation_unknown_attr(self, schema):
        with pytest.raises(SqlError, match="unknown attributes"):
            parse_query("SELECT z, SUM(sales) FROM cube GROUP BY z", schema)

    def test_unknown_attribute_interns_no_query(self, schema):
        """Interned queries live as long as the process, so a statement
        the schema rejects must build none."""
        interned = len(_INTERNED)
        for i in range(50):
            text = f"SELECT attr{i}, SUM(sales) FROM cube GROUP BY attr{i}"
            with pytest.raises(SqlError, match="unknown attributes"):
                parse_query(text, schema)
        assert len(_INTERNED) == interned

    def test_schema_validation_unknown_measure(self, schema):
        with pytest.raises(SqlError, match="unknown measure"):
            parse_query("SELECT SUM(profit) FROM cube", schema)

    def test_unbalanced_parentheses(self):
        with pytest.raises(SqlError, match="parentheses"):
            parse_query("SELECT SUM(sales)) FROM cube", SCHEMA)

    def test_duplicate_select_attr(self):
        with pytest.raises(SqlError, match="duplicate"):
            parse_query("SELECT p, p, SUM(sales) FROM cube GROUP BY p", SCHEMA)

    def test_duplicate_groupby_attr(self):
        with pytest.raises(SqlError, match="duplicate"):
            parse_query("SELECT p, SUM(sales) FROM cube GROUP BY p, p", SCHEMA)

    def test_duplicate_groupby_and_select_attr(self):
        # both lists repeat the attribute, so the set comparison the
        # validator used to rely on would have let this through silently
        with pytest.raises(SqlError, match="duplicate"):
            parse_query(
                "SELECT p, s, p, SUM(sales) FROM cube GROUP BY p, s, p", SCHEMA
            )


class TestEmit:
    def test_paper_example(self):
        query = SliceQuery(groupby=["p"], selection=["s"])
        assert to_sql(query, {"s": 17}) == (
            "SELECT p, SUM(sales) FROM cube WHERE s = 17 GROUP BY p"
        )

    def test_aggregate_only(self):
        assert to_sql(SliceQuery()) == "SELECT SUM(sales) FROM cube"

    def test_no_where(self):
        assert to_sql(SliceQuery(groupby=["s", "p"])) == (
            "SELECT p, s, SUM(sales) FROM cube GROUP BY p, s"
        )

    def test_custom_agg_measure_table(self):
        text = to_sql(
            SliceQuery(groupby=["c"]), agg="max", measure="units", table="f"
        )
        assert text == "SELECT c, MAX(units) FROM f GROUP BY c"

    def test_deterministic_attribute_order(self):
        query = SliceQuery(groupby=["c", "p"], selection=["s", "d"])
        values = {"s": 1, "d": 2}
        assert to_sql(query, values) == (
            "SELECT c, p, SUM(sales) FROM cube WHERE d = 2 AND s = 1 "
            "GROUP BY c, p"
        )

    def test_missing_binding_rejected(self):
        with pytest.raises(SqlError, match="no bound value"):
            to_sql(SliceQuery(selection=["p", "s"]), {"p": 1})

    def test_extraneous_binding_rejected(self):
        with pytest.raises(SqlError, match="not selection attributes"):
            to_sql(SliceQuery(selection=["p"]), {"p": 1, "s": 2})

    def test_bad_aggregate_rejected(self):
        with pytest.raises(SqlError, match="unsupported aggregate"):
            to_sql(SliceQuery(), agg="avg")

    def test_bad_identifier_rejected(self):
        with pytest.raises(SqlError, match="identifier"):
            to_sql(SliceQuery(groupby=["two words"]))

    def test_parsed_query_method_round_trips(self):
        text = "SELECT c, SUM(sales) FROM cube WHERE p = 3 AND s = 4 GROUP BY c"
        parsed = parse_query(text, SCHEMA)
        assert parse_query(parsed.to_sql(), SCHEMA) == parsed


class TestRoundTrip:
    """Property-style emit → parse → equal over seeded random queries."""

    ATTRS = ("p", "s", "c", "d", "e")

    def _random_query(self, rng):
        names = list(self.ATTRS)
        rng.shuffle(names)
        n_group = rng.randint(0, 3)
        n_select = rng.randint(0, len(names) - n_group)
        groupby = names[:n_group]
        selection = names[n_group : n_group + n_select]
        values = {attr: rng.randint(-5, 99) for attr in selection}
        return SliceQuery(groupby=groupby, selection=selection), values

    def test_random_queries_round_trip(self):
        rng = random.Random(20260808)
        for trial in range(200):
            query, values = self._random_query(rng)
            agg = rng.choice(["sum", "count", "min", "max"])
            text = to_sql(query, values, agg=agg)
            parsed = parse_query(text, SCHEMA)
            assert parsed.query == query, text
            assert parsed.values == values, text
            assert parsed.agg == agg, text
            assert parsed.to_sql() == text, text

    def test_aggregate_only_round_trips(self):
        parsed = parse_query(to_sql(SliceQuery()), SCHEMA)
        assert parsed.query == SliceQuery()
        assert parsed.values == {}

    def test_no_where_round_trips(self):
        query = SliceQuery(groupby=["p", "c"])
        parsed = parse_query(to_sql(query), SCHEMA)
        assert parsed.query == query
        assert parsed.values == {}

    def test_selection_only_round_trips(self):
        query = SliceQuery(selection=["p", "s"])
        parsed = parse_query(to_sql(query, {"p": 0, "s": -3}), SCHEMA)
        assert parsed.query == query
        assert parsed.values == {"p": 0, "s": -3}


class TestExecution:
    @pytest.fixture
    def executor(self, schema):
        from repro.core.view import View
        from repro.engine.catalog import Catalog
        from repro.engine.executor import Executor

        fact = generate_fact_table(schema, 400, rng=0)
        catalog = Catalog(fact)
        for attrs in ((), ("p",), ("p", "s"), ("p", "s", "c")):
            catalog.materialize(View(attrs))
        return Executor(catalog)

    def test_run_sql_end_to_end(self, executor, schema):
        fact = executor.catalog.fact
        p_value = int(fact.column("p")[0])
        result = run_sql(
            executor, f"SELECT s, SUM(sales) FROM cube WHERE p = {p_value} GROUP BY s"
        )
        assert result.rows_processed > 0
        # verify against brute force on the raw data
        import numpy as np

        mask = fact.column("p") == p_value
        expected_total = float(fact.measures[mask].sum())
        assert sum(result.groups.values()) == pytest.approx(expected_total)

    def test_run_sql_grand_total(self, executor):
        result = run_sql(executor, "SELECT SUM(sales) FROM cube")
        assert result.rows_processed == 1
        total = float(executor.catalog.fact.measures.sum())
        assert result.groups[()] == pytest.approx(total)

    def test_run_sql_validates_against_engine_schema(self, executor):
        with pytest.raises(SqlError, match="unknown attributes"):
            run_sql(executor, "SELECT z, SUM(sales) FROM cube GROUP BY z")
