"""Text DSL: the one-pass session parser, command dispatch, emitters."""

from .commands import COMMANDS, UsageError, run_command, run_session_command
from .lexer import ParseError, tokenize
from .printer import expr_latex, expr_text, print_session_source
from .report import SCHEMA_VERSION, Report, emit
from .session import Session, load_session, parse_expression

__all__ = [
    "COMMANDS", "UsageError", "run_command", "run_session_command",
    "ParseError", "tokenize", "expr_latex", "expr_text",
    "print_session_source", "SCHEMA_VERSION", "Report", "emit",
    "Session", "load_session", "parse_expression",
]
