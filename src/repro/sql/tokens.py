"""Token-set extraction for the token-based query-string distance.

Definition 3 of the paper interprets an SQL query as a *set of tokens* and
measures distance with the Jaccard measure over these sets.  This module
defines exactly which token representation is used, because the
distance-preservation argument hinges on encryption mapping plain-text tokens
to cipher-text tokens *bijectively per token kind*.

Tokens are represented as ``(kind, text)`` pairs so that an identifier ``x``
and a string literal ``'x'`` never collide.

:func:`query_token_set` builds the set straight from the lexer's compiled
scanner, without :class:`~repro.sql.lexer.Token` objects; it equals
``token_stream_to_set(tokenize_reference(sql))``.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.sql.ast import Query
from repro.sql.lexer import Token, TokenType, scan, tokenize_reference
from repro.sql.render import render_query

#: A token as used by the token-based distance: (kind, canonical text).
QueryToken = tuple[str, str]


def token_stream_to_set(tokens: list[Token]) -> frozenset[QueryToken]:
    """Convert a lexer token stream into the token set of Definition 3.

    EOF tokens are dropped; keywords are case-normalized by the lexer;
    identifiers keep their spelling (the paper treats ``R`` and ``r`` as
    different names, and so do real DBMSs for quoted identifiers).

    The number following a ``LIMIT`` keyword is emitted with the dedicated
    kind ``"limit"``: it is part of the query *structure* (how many rows to
    fetch), not database content, so the DPE schemes leave it in the clear —
    giving it its own kind keeps it from ever colliding with a constant of
    the same spelling.
    """
    return _token_set(
        (token.type.value, token.value) for token in tokens if token.type is not TokenType.EOF
    )


def query_token_set(query: Query | str) -> frozenset[QueryToken]:
    """Return the token set of a query (given as AST or SQL text)."""
    sql = query if isinstance(query, str) else render_query(query)
    scanned = scan(sql)
    if scanned is None:
        return token_stream_to_set(tokenize_reference(sql))
    return _token_set((kind, text) for kind, text, _ in scanned)


def _token_set(pairs: Iterable[QueryToken]) -> frozenset[QueryToken]:
    """The set of ``(kind, text)`` pairs, a number right after ``LIMIT`` re-kinded."""
    result = set()
    after_limit = False
    for kind, text in pairs:
        result.add(("limit", text) if after_limit and kind == "number" else (kind, text))
        after_limit = kind == "keyword" and text == "LIMIT"
    return frozenset(result)
