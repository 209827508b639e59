"""A SQL front-end for the GPSJ dialect used in the paper.

Parses ``CREATE VIEW name AS SELECT ... FROM ... WHERE ... GROUP BY ...
[HAVING ...]`` statements into :class:`~repro.core.view.ViewDefinition`
objects, classifying WHERE conjuncts into local conditions and key
joins against a catalog.
"""

from repro.sql.lexer import SqlLexError, Token, tokenize
from repro.sql.parser import SqlParseError, parse_view

__all__ = [
    "tokenize",
    "Token",
    "SqlLexError",
    "parse_view",
    "SqlParseError",
]
