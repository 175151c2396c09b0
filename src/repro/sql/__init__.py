"""SQL + XNF language frontend: lexer, AST, parser."""

from repro.sql.lexer import Token, TokenType, skeleton, tokenize
from repro.sql.parser import (Parser, parse_expression, parse_script,
                              parse_statement)

__all__ = [
    "Token", "TokenType", "skeleton", "tokenize",
    "Parser", "parse_expression", "parse_script", "parse_statement",
]
