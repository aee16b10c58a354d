"""Tests for the SQL lexer."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import EncryptedMiningService, QueryRejected, ServiceConfig
from repro.core.schemes.token_scheme import TokenDpeScheme
from repro.crypto.keys import KeyChain, MasterKey
from repro.exceptions import SqlSyntaxError
from repro.sql.lexer import KEYWORDS, Token, TokenType, scan, tokenize, tokenize_reference
from repro.sql.parser import parse_query
from repro.sql.render import render_query
from repro.sql.tokens import query_token_set, token_stream_to_set
from repro.workloads.generator import QueryLogGenerator, WorkloadMix
from repro.workloads.schemas import webshop_profile


def kinds(sql: str) -> list[TokenType]:
    return [token.type for token in tokenize(sql)]


def values(sql: str) -> list[str]:
    return [token.value for token in tokenize(sql) if token.type is not TokenType.EOF]


class TestBasicTokens:
    def test_keywords_are_upper_cased(self):
        assert values("select from where")[:3] == ["SELECT", "FROM", "WHERE"]

    def test_identifiers_keep_case(self):
        assert values("SELECT Name FROM Users")[1] == "Name"

    def test_star_token(self):
        tokens = tokenize("SELECT * FROM t")
        assert tokens[1].type is TokenType.STAR

    def test_integer_literal(self):
        token = tokenize("42")[0]
        assert token.type is TokenType.NUMBER
        assert token.value == "42"

    def test_decimal_literal(self):
        token = tokenize("3.14")[0]
        assert token.type is TokenType.NUMBER
        assert token.value == "3.14"

    def test_string_literal(self):
        token = tokenize("'hello world'")[0]
        assert token.type is TokenType.STRING
        assert token.value == "hello world"

    def test_string_literal_with_escaped_quote(self):
        token = tokenize("'it''s'")[0]
        assert token.value == "it's"

    def test_quoted_identifier(self):
        token = tokenize('"weird name"')[0]
        assert token.type is TokenType.IDENTIFIER
        assert token.value == "weird name"

    def test_eof_always_present(self):
        assert tokenize("")[-1].type is TokenType.EOF
        assert tokenize("SELECT")[-1].type is TokenType.EOF


class TestOperatorsAndPunctuation:
    @pytest.mark.parametrize("op", ["=", "<", ">", "<=", ">=", "<>", "!="])
    def test_comparison_operators(self, op):
        token = tokenize(f"a {op} b")[1]
        assert token.type is TokenType.OPERATOR
        assert token.value == op

    def test_multi_char_operator_not_split(self):
        assert values("a <= 5") == ["a", "<=", "5"]

    def test_punctuation(self):
        vals = values("f(a, b.c)")
        assert "(" in vals and ")" in vals and "," in vals and "." in vals

    def test_arithmetic_operators(self):
        assert values("a + b - c / d % e") == ["a", "+", "b", "-", "c", "/", "d", "%", "e"]

    def test_trailing_semicolon_is_dropped(self):
        assert values("SELECT a FROM t;") == ["SELECT", "a", "FROM", "t"]


class TestPositions:
    def test_positions_point_into_source(self):
        sql = "SELECT a FROM t"
        for token in tokenize(sql):
            if token.type in (TokenType.KEYWORD, TokenType.IDENTIFIER):
                assert sql[token.position : token.position + len(token.value)].upper() == (
                    token.value.upper()
                )

    def test_whitespace_is_skipped(self):
        assert values("SELECT\n\ta  FROM\tt") == ["SELECT", "a", "FROM", "t"]


class TestErrors:
    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("SELECT 'oops FROM t")

    def test_unterminated_quoted_identifier(self):
        with pytest.raises(SqlSyntaxError):
            tokenize('SELECT "oops FROM t')

    def test_unexpected_character(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("SELECT a FROM t WHERE a ?? 5")

    def test_malformed_number(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("SELECT 5. FROM t")

    def test_error_carries_position(self):
        with pytest.raises(SqlSyntaxError) as excinfo:
            tokenize("SELECT @ FROM t")
        assert excinfo.value.position == 7


class TestKeywordTable:
    def test_aggregates_are_keywords(self):
        for name in ("COUNT", "SUM", "AVG", "MIN", "MAX"):
            assert name in KEYWORDS

    def test_token_helper_is_keyword(self):
        token = Token(TokenType.KEYWORD, "SELECT", 0)
        assert token.is_keyword("SELECT")
        assert token.is_keyword("SELECT", "FROM")
        assert not token.is_keyword("FROM")

    def test_identifier_is_not_keyword_match(self):
        token = Token(TokenType.IDENTIFIER, "SELECTED", 0)
        assert not token.is_keyword("SELECT")


class TestUnicodeDigits:
    """Numbers are lexed from decimal digits only; ``²`` is a digit but not decimal."""

    SQL = "SELECT a FROM t WHERE x = \u00b2"

    def test_superscript_digit_is_a_syntax_error(self):
        with pytest.raises(SqlSyntaxError) as excinfo:
            parse_query(self.SQL)
        assert excinfo.value.position == len(self.SQL) - 1

    def test_service_rejects_the_query(self):
        service = EncryptedMiningService(ServiceConfig())
        with pytest.raises(QueryRejected):
            service.mine([self.SQL, "SELECT a FROM t"])

    def test_non_ascii_decimal_digits_lex_as_a_number(self):
        assert values("SELECT \u0663\u0664") == ["SELECT", "\u0663\u0664"]


def _outcome(function, sql):
    """``function(sql)``, or the class, message and position of its syntax error."""
    try:
        return function(sql)
    except SqlSyntaxError as error:
        return (type(error), str(error), error.position)


def _reference_token_set(sql):
    return token_stream_to_set(tokenize_reference(sql))


#: Pieces of SQL-ish text: quotes (single, doubled, double), dots, ASCII and
#: non-ASCII digits and letters, operators, ``;`` and ASCII and non-ASCII
#: whitespace, plus whole keywords (``LIMIT`` included) and identifiers.
SQL_FRAGMENTS = (
    list("'\".0123456789<>!=;*(),+-/%@?_aZq \t\n\x0c\x1c")
    + ["''", "1.5", ".5", "5.", "SELECT", "select", "FROM", "WHERE", "LIMIT", "limit "]
    + ["enc_3fa0", "det:9c", "x1", "\u00e9", "\u00df", "\u00b2", "\u0663", "\u00a0", "\u2003"]
)


class TestScannerMatchesReference:
    """The compiled scanner equals the character loop on every input."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(SQL_FRAGMENTS), max_size=40).map("".join))
    @example("SELECT a FROM t WHERE s = 'it''s' LIMIT 5;")
    @example("SELECT 'a''")
    @example("SELECT 12. FROM t")
    @example("SELECT 1.2.3, ..5 FROM t")
    @example('SELECT "q\'d" FROM t  \x1c')
    @example("SELECT na\u00efve FROM t")
    def test_tokens_and_errors_agree(self, sql):
        expected = _outcome(tokenize_reference, sql)
        assert _outcome(tokenize, sql) == expected
        assert _outcome(query_token_set, sql) == _outcome(_reference_token_set, sql)
        if sql.isascii() and isinstance(expected, list):
            # Valid ASCII input never falls back to the reference loop.
            assert scan(sql) is not None

    def test_plain_and_encrypted_webshop_log(self):
        log = QueryLogGenerator(webshop_profile(), WorkloadMix(), seed=300).generate(300)
        keychain = KeyChain(MasterKey.from_passphrase("scanner-differential"))
        encrypted = TokenDpeScheme(keychain).encrypt_log(log)
        sqls = [render_query(query) for query in log.queries + encrypted.queries]
        for sql in sqls:
            assert scan(sql) is not None
            assert tokenize(sql) == tokenize_reference(sql)
            assert query_token_set(sql) == _reference_token_set(sql)
