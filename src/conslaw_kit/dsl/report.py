"""Structured command reports and the text / JSON / LaTeX emitters.

The JSON layout is stable and versioned (see schema/report-v1.json); text
output is the canonical pretty-print, and LaTeX renders expressions in
journal notation.  One rendering of a report keeps one printer memo per
notation (`printer._terms`), so an expression, an atom or a power that
recurs across its residuals, vectors and identity is rendered once.
"""

from __future__ import annotations

import json
import os
import sys
from ..expr.printer import expr_latex, expr_text
from ..record import MutableRecord

__all__ = ["SCHEMA_VERSION", "Report", "emit"]

SCHEMA_VERSION = 1


class Report(MutableRecord):
    __slots__ = ("command",
                 "status",           # 'zero' | 'nonzero' | 'error'
                 "detail",
                 "residuals",        # [(name, Expr)]
                 "vectors",          # component -> kind -> Expr
                 "identity",         # {'terms': [(eq, deriv, Expr)], 'remainder': Expr}
                 "side_conditions",  # [str]
                 "extra")
    _defaults = {"detail": "", "residuals": [], "vectors": {},
                 "identity": None, "side_conditions": [], "extra": {}}

    @property
    def exit_code(self) -> int:
        return {"zero": 0, "nonzero": 1}.get(self.status, 2)

    # -- json ----------------------------------------------------------------

    def to_dict(self) -> dict:
        text, latex = {}, {}
        doc: dict = {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "status": self.status,
            "residuals": [
                {"name": n, "expr": expr_text(e, text),
                 "latex": expr_latex(e, latex)}
                for n, e in self.residuals
            ],
            "vectors": {
                comp: {k: expr_text(v, text) for k, v in parts.items()}
                for comp, parts in self.vectors.items()
            },
            "identity": None,
            "side_conditions": list(self.side_conditions),
        }
        if self.identity is not None:
            doc["identity"] = {
                "terms": [
                    {"equation": eq, "derivative": deriv,
                     "coefficient": expr_text(c, text)}
                    for eq, deriv, c in self.identity["terms"]
                ],
                "remainder": expr_text(self.identity["remainder"], text),
            }
        if self.detail:
            doc["detail"] = self.detail
        if self.extra:
            doc["extra"] = self.extra
        return doc


def _color_enabled() -> bool:
    env = os.environ.get("CONSLAW_COLOR")
    if env == "1":
        return True
    if env == "0":
        return False
    return sys.stdout.isatty()


def _paint(text: str, code: str) -> str:
    if _color_enabled():
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _framed(rep: Report, status: str, body: list[str], note) -> str:
    """Command, status and detail, `body`, then side conditions and sorted
    extra entries (one line per list item, one `key.field` line per sorted
    dict field); all but `body` through `note`."""
    head = [f"command: {rep.command}", f"status: {status}"]
    if rep.detail:
        head.append(f"detail: {rep.detail}")
    tail = [f"side condition (assumed nonzero): {cond}"
            for cond in rep.side_conditions]
    for key, val in sorted(rep.extra.items()):
        if isinstance(val, dict):
            tail += (f"{key}.{k}: {v}" for k, v in sorted(val.items()))
        else:
            tail += (f"{key}: {v}"
                     for v in (val if isinstance(val, list) else [val]))
    return "\n".join([*note(head), *body, *note(tail)]) + "\n"


def _render_text(rep: Report) -> str:
    lines, memo = [], {}
    for name, e in rep.residuals:
        lines.append(f"residual[{name}]: {expr_text(e, memo)}")
    for comp, parts in rep.vectors.items():
        for kind, e in parts.items():
            tag = f"C[{comp}]" if kind == "reduced" else f"C[{comp}].{kind}"
            lines.append(f"{tag}: {expr_text(e, memo)}")
    if rep.identity is not None:
        rem = rep.identity["remainder"]
        lines.append("identity: div(C) =" + (
            "" if rep.identity["terms"] or not rem.is_zero
            else " 0 (on solutions)"))
        for eq, deriv, c in rep.identity["terms"]:
            dtag = f"D[{deriv}]" if deriv else ""
            lines.append(f"  + ({expr_text(c, memo)}) * {dtag}{eq}")
        lines.append(f"  + remainder: {expr_text(rem, memo)}")
    color = {"zero": "32", "nonzero": "31", "error": "33"}[rep.status]
    return _framed(rep, _paint(rep.status, color), lines, list)


def _comments(lines: list[str]) -> list[str]:
    """Every line as a comment, split where TeX ends one (at \\r too)."""
    return [f"% {part}" for line in lines for part in line.splitlines()]


def _render_latex(rep: Report) -> str:
    lines, memo = [], {}
    for name, e in rep.residuals:
        lines.append(
            f"\\mathrm{{residual}}[{name}] = {expr_latex(e, memo)} \\\\")
    for comp, parts in rep.vectors.items():
        if "reduced" in parts:
            lines.append(
                f"C^{{{comp}}} = {expr_latex(parts['reduced'], memo)} \\\\")
    if rep.identity is not None:
        rem = rep.identity["remainder"]
        pieces = [f"\\big({expr_latex(c, memo)}\\big) D_{{{deriv}}} {eq}"
                  if deriv else f"\\big({expr_latex(c, memo)}\\big) {eq}"
                  for eq, deriv, c in rep.identity["terms"]]
        rhs = " + ".join(pieces) if pieces else "0"
        if not rem.is_zero:
            rhs += f" + {expr_latex(rem, memo)}"
        lines.append(f"D_i C^i = {rhs} \\\\")
    return _framed(rep, rep.status, lines, _comments)


def emit(rep: Report, fmt: str = "text") -> str:
    """Render a report; JSON output is deterministic byte-for-byte."""
    if fmt == "json":
        return json.dumps(rep.to_dict(), sort_keys=True, indent=2,
                          ensure_ascii=False) + "\n"
    if fmt == "latex":
        return _render_latex(rep)
    if fmt == "text":
        return _render_text(rep)
    raise ValueError(f"unknown format {fmt!r}")
