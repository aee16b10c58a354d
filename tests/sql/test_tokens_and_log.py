"""Tests for token-set extraction, query logs and the visitor machinery."""

from __future__ import annotations

import pytest

from repro.exceptions import SqlError
from repro.sql.ast import ColumnRef, Literal, Query
from repro.sql.log import LogEntry, QueryLog
from repro.sql.parser import parse_query
from repro.sql.tokens import query_token_set
from repro.sql.visitor import (
    AstTransformer,
    AstVisitor,
    column_refs,
    contains_aggregate,
    literals,
    walk,
)


class TestTokenSets:
    def test_tokens_are_kind_value_pairs(self):
        tokens = query_token_set("SELECT a FROM t WHERE a > 5")
        assert ("keyword", "SELECT") in tokens
        assert ("identifier", "a") in tokens
        assert ("number", "5") in tokens

    def test_definition3_distance_inputs_are_sets(self):
        # duplicated tokens collapse: 'a' appears twice but once in the set
        tokens = query_token_set("SELECT a FROM t WHERE a > 5")
        assert len([t for t in tokens if t == ("identifier", "a")]) == 1

    def test_identical_queries_same_token_set(self):
        assert query_token_set("SELECT a FROM t") == query_token_set("select a from t")

    def test_string_and_identifier_do_not_collide(self):
        tokens = query_token_set("SELECT a FROM t WHERE b = 'a'")
        assert ("identifier", "a") in tokens and ("string", "a") in tokens

    @pytest.mark.parametrize("name", ["a", "é"])  # scanner and reference-loop paths
    def test_only_the_number_after_limit_has_the_limit_kind(self, name):
        tokens = query_token_set(f"SELECT {name} FROM t WHERE {name} = 5 LIMIT 5")
        assert ("limit", "5") in tokens and ("number", "5") in tokens
        tokens = query_token_set(f"SELECT {name} FROM t WHERE {name} = 3 LIMIT 5")
        assert ("number", "3") in tokens and ("number", "5") not in tokens

    def test_accepts_parsed_query(self):
        query = parse_query("SELECT a FROM t")
        assert query_token_set(query) == query_token_set("SELECT a FROM t")


class TestQueryLog:
    def test_from_sql_and_statements(self, sample_statements):
        log = QueryLog.from_sql(sample_statements)
        assert len(log) == len(sample_statements)
        assert all(isinstance(entry, LogEntry) for entry in log)

    def test_accessed_tables_and_columns(self, sample_log):
        assert "users" in sample_log.accessed_tables()
        assert "age" in sample_log.accessed_columns()

    def test_map_queries_preserves_metadata(self):
        entry = LogEntry(parse_query("SELECT a FROM t"), user="alice", timestamp=12.0)
        log = QueryLog([entry])
        mapped = log.map_queries(lambda q: q)
        assert mapped[0].user == "alice"
        assert mapped[0].timestamp == 12.0

    def test_slicing_returns_log(self, sample_log):
        sliced = sample_log[:3]
        assert isinstance(sliced, QueryLog)
        assert len(sliced) == 3

    def test_equality(self, sample_statements):
        assert QueryLog.from_sql(sample_statements) == QueryLog.from_sql(sample_statements)
        assert QueryLog.from_sql(sample_statements[:2]) != QueryLog.from_sql(sample_statements[:3])

    def test_json_round_trip(self, sample_log, tmp_path):
        path = tmp_path / "log.json"
        sample_log.save(str(path))
        loaded = QueryLog.load(str(path))
        assert loaded.statements == sample_log.statements

    def test_json_round_trip_with_metadata(self):
        entry = LogEntry(
            parse_query("SELECT a FROM t"),
            user="bob",
            timestamp=1.5,
            metadata=(("session", "42"),),
        )
        loaded = QueryLog.from_json(QueryLog([entry]).to_json())
        assert loaded[0].user == "bob"
        assert dict(loaded[0].metadata)["session"] == "42"

    def test_invalid_json_raises(self):
        with pytest.raises(SqlError):
            QueryLog.from_json("not json at all {")

    def test_from_queries(self):
        queries = [parse_query("SELECT a FROM t"), parse_query("SELECT b FROM s")]
        log = QueryLog.from_queries(queries)
        assert log.queries == queries


class TestVisitors:
    def test_walk_yields_all_column_refs(self):
        query = parse_query("SELECT a, b FROM t WHERE c > 1 AND d = 2 ORDER BY a ASC")
        names = {ref.name for ref in column_refs(query)}
        assert names == {"a", "b", "c", "d"}

    def test_literals_collected(self):
        query = parse_query("SELECT a FROM t WHERE c > 1 AND name = 'x'")
        values = {literal.value for literal in literals(query)}
        assert values == {1, "x"}

    def test_contains_aggregate(self):
        assert contains_aggregate(parse_query("SELECT SUM(a) FROM t").select_items[0].expression)
        assert not contains_aggregate(parse_query("SELECT a FROM t").select_items[0].expression)

    def test_walk_includes_join_condition(self):
        query = parse_query("SELECT a FROM t JOIN s ON t.x = s.y")
        names = {ref.name for ref in column_refs(query)}
        assert {"x", "y"} <= names

    def test_visitor_dispatch(self):
        class CountColumns(AstVisitor):
            def __init__(self):
                self.count = 0

            def visit_ColumnRef(self, node):
                self.count += 1

        visitor = CountColumns()
        visitor.visit(parse_query("SELECT a, b FROM t WHERE c = 1"))
        assert visitor.count == 3

    def test_identity_transformer_returns_equal_query(self, sample_statements):
        transformer = AstTransformer()
        for sql in sample_statements:
            query = parse_query(sql)
            assert transformer.transform_query(query) == query

    def test_literal_transformer_rewrites_constants(self):
        class Doubler(AstTransformer):
            def transform_literal(self, literal, context):
                if isinstance(literal.value, int):
                    return Literal(literal.value * 2)
                return literal

        query = parse_query("SELECT a FROM t WHERE b > 5 AND c IN (1, 2)")
        transformed = Doubler().transform_query(query)
        values = {literal.value for literal in literals(transformed)}
        assert values == {10, 2, 4}

    def test_column_transformer_sees_context_clause(self):
        seen_clauses = []

        class Recorder(AstTransformer):
            def transform_column_ref(self, ref, context):
                seen_clauses.append(context.clause)
                return ref

        Recorder().transform_query(
            parse_query("SELECT a FROM t WHERE b = 1 GROUP BY a ORDER BY a ASC")
        )
        assert {"SELECT", "WHERE", "GROUP BY", "ORDER BY"} <= set(seen_clauses)

    def test_compared_column_in_context(self):
        captured = []

        class Recorder(AstTransformer):
            def transform_literal(self, literal, context):
                compared = context.compared_column()
                captured.append(None if compared is None else compared.name)
                return literal

        Recorder().transform_query(parse_query("SELECT a FROM t WHERE age > 30 AND city = 'B'"))
        assert set(captured) == {"age", "city"}

    def test_aggregate_context_flag(self):
        captured = []

        class Recorder(AstTransformer):
            def transform_column_ref(self, ref, context):
                captured.append((ref.name, context.aggregate))
                return ref

        Recorder().transform_query(parse_query("SELECT SUM(price), name FROM t"))
        assert ("price", "SUM") in captured
        assert ("name", None) in captured
