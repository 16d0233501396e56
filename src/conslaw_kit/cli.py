"""conslaw-kit command line.

    conslaw-kit <command> [args...] --session FILE [--format text|json|latex]
                [--timeout SECONDS]
    conslaw-kit run --session FILE            # execute the file's commands

Exit codes: 0 mathematical success (zero residual / verification passed,
or, for `run`, every command matching its expectation), 1 mathematical
failure, 2 usage, parse or timeout errors, or a reader of standard
output that went away (a closed pipe).
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import suppress

from .cancel import deadline
from .dsl.commands import COMMANDS, UsageError, run_command, run_session_command
from .dsl.report import Report, emit
from .dsl.session import Session, load_session, parse_expression
from .expr.errors import ConslawError

__all__ = ["main"]


def _build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="conslaw-kit",
        description="Symbolic verification and construction of conservation "
                    "laws for PDE systems (local generalized symmetries only).")
    ap.add_argument("command",
                    help="run | " + " | ".join(sorted(COMMANDS)))
    ap.add_argument("args", nargs="*",
                    help="command arguments: declared names or name=expression")
    ap.add_argument("--session", metavar="FILE", required=False,
                    help="session file with declarations (and, for `run`, commands)")
    ap.add_argument("--format", choices=("text", "json", "latex"),
                    default="text")
    ap.add_argument("--timeout", type=seconds, metavar="SECONDS", default=None)
    return ap


def seconds(text: str) -> float:
    """A finite number of seconds >= 0 (a NaN deadline never expires)."""
    value = float(text)
    if not 0 <= value < float("inf"):
        raise ValueError(text)
    return value


def _parse_cli_args(raw: list[str], session: Session):
    """Split CLI argument tokens into (label, name-or-Expr) pairs."""
    out = []
    for tok in raw:
        if "=" in tok:
            label, _, text = tok.partition("=")
            out.append((label, parse_expression(text, session)))
        else:
            out.append((None, tok))
    return out


def _emit_error(message: str, fmt: str) -> None:
    rep = Report("error", "error", message)
    sys.stdout.write(emit(rep, fmt))


def run_file(session: Session, fmt: str) -> int:
    """Execute every command in the session; exit 0 iff each command's
    status matches its declared expectation (default: zero).  JSON output
    is a stream of one document per command."""
    ok = True
    for cmd in session.commands:
        rep = run_session_command(session, cmd)
        matched = rep.status == cmd.expect
        ok &= matched
        if cmd.expect != "zero" and fmt == "text":
            rep.extra["expected"] = (
                f"{cmd.expect} ({'satisfied' if matched else 'NOT satisfied'})")
        sys.stdout.write(emit(rep, fmt))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = _build_argparser()
    ns = ap.parse_args(argv)
    try:
        code = _run(ns)
        sys.stdout.flush()   # so a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader has gone: write nothing more, and send the
        # interpreter's flush of stdout at exit to the null device
        null = os.open(os.devnull, os.O_WRONLY)
        with suppress(OSError, ValueError):   # a stdout with no descriptor
            os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return 2


def _run(ns: argparse.Namespace) -> int:
    fmt = ns.format
    try:
        with deadline(ns.timeout):
            session = Session()
            if ns.session:
                with open(ns.session, "r", encoding="utf-8") as fh:
                    session = load_session(fh.read())
            if ns.command == "run":
                if ns.args:
                    raise UsageError("run takes no arguments")
                if not ns.session:
                    raise UsageError("run requires --session FILE")
                return run_file(session, fmt)
            if not ns.session:
                raise UsageError(f"{ns.command} requires --session FILE "
                                 "for the declarations")
            args = _parse_cli_args(ns.args, session)
            rep = run_command(session, ns.command, args)
            sys.stdout.write(emit(rep, fmt))
            return rep.exit_code
    except BrokenPipeError:
        raise
    except (ConslawError, OSError, UnicodeDecodeError) as ex:
        # parse, usage, timeout, wrong-argument and unreadable-file errors
        _emit_error(str(ex), fmt)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
