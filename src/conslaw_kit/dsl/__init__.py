"""Text DSL: the one-pass session parser and its printer, command
dispatch, emitters.

`expr_text` and `expr_latex` are the expression kernel's one notation
(`conslaw_kit.expr.printer`), exported here beside the parser that reads
`expr_text` back; `print_session_source` writes a whole session.
"""

from ..expr.printer import expr_latex, expr_text
from .commands import COMMANDS, UsageError, run_command, run_session_command
from .lexer import ParseError, tokenize
from .report import SCHEMA_VERSION, Report, emit
from .session import (Session, load_session, parse_expression,
                      print_session_source)

__all__ = [
    "COMMANDS", "UsageError", "run_command", "run_session_command",
    "ParseError", "tokenize", "expr_latex", "expr_text",
    "print_session_source", "SCHEMA_VERSION", "Report", "emit",
    "Session", "load_session", "parse_expression",
]
