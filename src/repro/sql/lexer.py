"""SQL lexer.

The lexer turns a query string into a stream of :class:`Token` objects.  It
supports the SQL subset required by the paper's case study: SELECT queries
with projections, aggregates, joins, WHERE predicates (comparisons, BETWEEN,
IN, LIKE, IS NULL), GROUP BY / HAVING, ORDER BY and LIMIT.

The lexer is deliberately independent of the parser so that the *token-based
query-string distance* (Definition 3 in the paper) can be computed on raw
token streams, exactly as the measure prescribes.

Two lexers agree token for token.  :func:`tokenize` runs one precompiled
regular expression over ASCII input (every encrypted query is ASCII: DET
ciphertexts are hex); :func:`tokenize_reference` is the original
character-by-character loop, kept as the oracle.  The fast path hands any
input it cannot decide to the oracle: non-ASCII text (whose Unicode
``isalpha``/``isalnum``/``isspace`` classes only the loop implements) and
every malformed input, so errors carry the oracle's message and position.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from repro.exceptions import SqlSyntaxError


class TokenType(enum.Enum):
    """Lexical category of a :class:`Token`."""

    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCTUATION = "punctuation"
    STAR = "star"
    EOF = "eof"


#: Reserved words recognised as keywords (upper-cased).
KEYWORDS: frozenset[str] = frozenset(
    {
        "SELECT",
        "DISTINCT",
        "FROM",
        "WHERE",
        "GROUP",
        "BY",
        "HAVING",
        "ORDER",
        "ASC",
        "DESC",
        "LIMIT",
        "AND",
        "OR",
        "NOT",
        "IN",
        "BETWEEN",
        "LIKE",
        "IS",
        "NULL",
        "AS",
        "JOIN",
        "INNER",
        "LEFT",
        "RIGHT",
        "OUTER",
        "CROSS",
        "ON",
        "COUNT",
        "SUM",
        "AVG",
        "MIN",
        "MAX",
        "HOMSUM",
        "TRUE",
        "FALSE",
    }
)

#: Names treated as aggregate functions by the parser.  HOMSUM is the
#: homomorphic summation aggregate emitted by the CryptDB-style rewriter
#: (it never appears in plaintext queries, but encrypted query strings must
#: remain parseable SQL).
AGGREGATE_FUNCTIONS: frozenset[str] = frozenset(
    {"COUNT", "SUM", "AVG", "MIN", "MAX", "HOMSUM"}
)

_MULTI_CHAR_OPERATORS = ("<>", "!=", "<=", ">=")
_SINGLE_CHAR_OPERATORS = "=<>+-/%"
_PUNCTUATION = "(),."


@dataclass(frozen=True)
class Token:
    """A single lexical token.

    Attributes
    ----------
    type:
        Lexical category.
    value:
        Canonical token text.  Keywords are upper-cased, identifiers keep
        their original spelling, string literals keep their quoted content
        (without the surrounding quotes).
    position:
        Character offset of the token's first character in the source string.
    """

    type: TokenType
    value: str
    position: int

    def is_keyword(self, *names: str) -> bool:
        """Return True if this token is a keyword with one of ``names``."""
        return self.type is TokenType.KEYWORD and self.value in names

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.type.value}:{self.value}"


#: The scanner: optional whitespace and semicolons, then one token.  Each
#: alternative is named after the :class:`TokenType` value it produces
#: (``word`` is a keyword or identifier, ``quoted`` a quoted identifier);
#: ``error`` catches any character no token can start with, and ``\Z`` the
#: trailing whitespace.  The closing quote of a string must not be followed
#: by another quote, and an integer by a dot or digit, so a literal that the
#: reference loop rejects never matches a shorter token here.
_SCANNER = re.compile(
    r"""
    [\t\n\x0b\x0c\r\x1c-\x1f ;]*
    (?:
        '(?P<string>(?:[^']|'')*)'(?!')
      | (?P<number>[0-9]+(?:\.[0-9]+|(?![.0-9]))|\.[0-9]+)
      | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
      | "(?P<quoted>[^"]*)"
      | (?P<operator><>|!=|<=|>=|[=<>+\-/%])
      | (?P<star>\*)
      | (?P<punctuation>[(),.])
      | (?P<error>.)
      | \Z
    )
    """,
    re.VERBOSE | re.DOTALL,
)

_TYPES_BY_VALUE = {member.value: member for member in TokenType}

#: A scanned token: (TokenType value, canonical text, position).
ScannedToken = tuple[str, str, int]


def scan(sql: str) -> list[ScannedToken] | None:
    """The tokens of ``sql`` as plain tuples, or None if the scanner cannot decide.

    None means "ask :func:`tokenize_reference`": the input is not ASCII or
    is malformed somewhere.  No EOF token is produced.
    """
    if not sql.isascii():
        return None
    tokens: list[ScannedToken] = []
    append = tokens.append
    for match in _SCANNER.finditer(sql):
        kind = match.lastgroup
        if kind is None:
            continue
        text = match[kind]
        if kind == "word":
            upper = text.upper()
            if upper in KEYWORDS:
                append(("keyword", upper, match.start(kind)))
            else:
                append(("identifier", text, match.start(kind)))
        elif kind == "string":
            append(("string", text.replace("''", "'"), match.start(kind) - 1))
        elif kind == "quoted":
            append(("identifier", text, match.start(kind) - 1))
        elif kind == "error":
            return None
        else:
            append((kind, text, match.start(kind)))
    return tokens


def tokenize(sql: str) -> list[Token]:
    """Tokenize ``sql`` into a list of tokens terminated by an EOF token.

    Equal to :func:`tokenize_reference`, errors included.

    Raises
    ------
    SqlSyntaxError
        If an unexpected character or an unterminated string literal is
        encountered.
    """
    scanned = scan(sql)
    if scanned is None:
        return tokenize_reference(sql)
    tokens = [Token(_TYPES_BY_VALUE[kind], text, position) for kind, text, position in scanned]
    tokens.append(Token(TokenType.EOF, "", len(sql)))
    return tokens


def tokenize_reference(sql: str) -> list[Token]:
    """Tokenize ``sql`` one character at a time (the oracle of :func:`tokenize`).

    Raises
    ------
    SqlSyntaxError
        If an unexpected character or an unterminated string literal is
        encountered.
    """
    tokens: list[Token] = []
    pos = 0
    length = len(sql)

    while pos < length:
        char = sql[pos]

        if char.isspace():
            pos += 1
            continue

        if char == "'":
            tokens.append(_lex_string(sql, pos))
            pos += len(tokens[-1].value) + 2 + tokens[-1].value.count("'")
            continue

        if char.isdecimal() or (char == "." and pos + 1 < length and sql[pos + 1].isdecimal()):
            token = _lex_number(sql, pos)
            tokens.append(token)
            pos += len(token.value)
            continue

        if char.isalpha() or char == "_":
            token = _lex_word(sql, pos)
            tokens.append(token)
            pos += len(token.value) if token.type is not TokenType.KEYWORD else _word_length(sql, pos)
            continue

        if char == '"':
            token = _lex_quoted_identifier(sql, pos)
            tokens.append(token)
            pos += len(token.value) + 2
            continue

        if sql[pos : pos + 2] in _MULTI_CHAR_OPERATORS:
            tokens.append(Token(TokenType.OPERATOR, sql[pos : pos + 2], pos))
            pos += 2
            continue

        if char == "*":
            tokens.append(Token(TokenType.STAR, "*", pos))
            pos += 1
            continue

        if char in _SINGLE_CHAR_OPERATORS:
            tokens.append(Token(TokenType.OPERATOR, char, pos))
            pos += 1
            continue

        if char in _PUNCTUATION:
            tokens.append(Token(TokenType.PUNCTUATION, char, pos))
            pos += 1
            continue

        if char == ";":
            # A trailing semicolon terminates the statement.
            pos += 1
            continue

        raise SqlSyntaxError(f"unexpected character {char!r}", position=pos)

    tokens.append(Token(TokenType.EOF, "", length))
    return tokens


def _lex_string(sql: str, start: int) -> Token:
    """Lex a single-quoted string literal starting at ``start``.

    Doubled quotes (``''``) inside the literal escape a single quote, as in
    standard SQL.
    """
    pos = start + 1
    parts: list[str] = []
    while pos < len(sql):
        char = sql[pos]
        if char == "'":
            if pos + 1 < len(sql) and sql[pos + 1] == "'":
                parts.append("'")
                pos += 2
                continue
            return Token(TokenType.STRING, "".join(parts), start)
        parts.append(char)
        pos += 1
    raise SqlSyntaxError("unterminated string literal", position=start)


def _lex_quoted_identifier(sql: str, start: int) -> Token:
    """Lex a double-quoted identifier starting at ``start``."""
    end = sql.find('"', start + 1)
    if end == -1:
        raise SqlSyntaxError("unterminated quoted identifier", position=start)
    return Token(TokenType.IDENTIFIER, sql[start + 1 : end], start)


def _lex_number(sql: str, start: int) -> Token:
    """Lex an integer or decimal literal starting at ``start``."""
    pos = start
    seen_dot = False
    while pos < len(sql):
        char = sql[pos]
        if char.isdecimal():
            pos += 1
        elif char == "." and not seen_dot:
            seen_dot = True
            pos += 1
        else:
            break
    text = sql[start:pos]
    if text.endswith("."):
        raise SqlSyntaxError(f"malformed number {text!r}", position=start)
    return Token(TokenType.NUMBER, text, start)


def _word_length(sql: str, start: int) -> int:
    pos = start
    while pos < len(sql) and (sql[pos].isalnum() or sql[pos] == "_"):
        pos += 1
    return pos - start


def _lex_word(sql: str, start: int) -> Token:
    """Lex an identifier or keyword starting at ``start``."""
    length = _word_length(sql, start)
    word = sql[start : start + length]
    upper = word.upper()
    if upper in KEYWORDS:
        return Token(TokenType.KEYWORD, upper, start)
    return Token(TokenType.IDENTIFIER, word, start)
