"""Text DSL: parser, semantic sessions, command dispatch, emitters."""

from .commands import COMMANDS, UsageError, run_command, run_session_command
from .lexer import ParseError, tokenize
from .parser import parse_expression, parse_session
from .printer import expr_latex, expr_text, print_session_source
from .report import SCHEMA_VERSION, Report, emit
from .session import Session, load_session, resolve_session

__all__ = [
    "COMMANDS", "UsageError", "run_command", "run_session_command",
    "ParseError", "tokenize", "parse_expression",
    "parse_session", "expr_latex", "expr_text", "print_session_source",
    "SCHEMA_VERSION", "Report", "emit", "Session", "load_session",
    "resolve_session",
]
