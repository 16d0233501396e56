"""Command dispatcher: named engine operations over a resolved session.

Each command returns a Report; mathematical failure (nonzero residual,
failed verification) is a report state, while unknown names, wrong
argument classes and parse problems raise (the CLI maps those to usage
errors).
"""

from __future__ import annotations

from ..ansatz import AnsatzProblem, entry_exprs, solve_ansatz
from ..conslaw import Generator, ibragimov_vector, verify_divergence
from ..determining import (TARGETS, adjoint_invariance_conditions,
                           characteristic_residual, selfadjoint_lambda)
from ..expr.errors import ConslawError
from ..expr.expression import Expr
from ..expr.printer import expr_latex, expr_text
from ..variational import _names_used, adjoint_variables, is_variational
from .report import Report
from .session import CommandStmt, Session

__all__ = ["run_command", "run_session_command", "UsageError", "COMMANDS"]


class UsageError(ConslawError):
    pass


def _characteristic(session: Session, val, kind: str = "characteristic"
                    ) -> tuple[Expr, ...]:
    """A declared characteristic by name, or an inline expression (an
    `Expr`, see `parse_expression`) as a one-component characteristic; an
    undeclared name is reported as an unknown `kind`."""
    if not isinstance(val, str):
        return (val,)
    if val not in session.chars:
        raise UsageError(f"unknown {kind} {val!r}")
    return session.chars[val]


def _char_arg(session: Session, args, what: str = "characteristic"
              ) -> tuple[Expr, ...]:
    if len(args) != 1:
        raise UsageError(f"expected exactly one {what} argument")
    return _characteristic(session, args[0][1])


def _residual_report(name: str, sysm, residuals, detail_zero: str,
                     detail_nonzero: str) -> Report:
    nonzero = [r for r in residuals if not r.is_zero]
    return Report(
        command=name,
        status="zero" if not nonzero else "nonzero",
        detail=detail_zero if not nonzero else detail_nonzero,
        residuals=[(d, r) for d, r in zip(sysm.dep, residuals)],
    )


def cmd_variational_check(session: Session, args) -> Report:
    if args:
        raise UsageError("variational-check takes no arguments")
    sysm = session.require_system()
    verdict = is_variational(sysm)
    if verdict.ok:
        return Report("variational-check", "zero",
                      "the linearization is self-adjoint: the system has a "
                      "variational principle")
    a, r, J, diff = verdict.witness
    deriv = ",".join(J.to_seq())
    return Report(
        "variational-check", "nonzero",
        f"not variational: operator entry (eq {sysm.eq_names[a]}, "
        f"{sysm.dep[r]}, D[{deriv or '1'}]) differs",
        residuals=[(f"{sysm.eq_names[a]}/{sysm.dep[r]}/{deriv or '0'}", diff)],
        extra={"witness": {
            "equation": sysm.eq_names[a], "dependent": sysm.dep[r],
            "derivative": deriv, "difference": expr_text(diff),
            "latex": expr_latex(diff)}},
    )


# command -> (`TARGETS` key of its residual, zero detail, nonzero detail)
_RESIDUAL_CHECKS = {
    "symmetry-check": ("symmetry", "symmetry characteristic",
                       "not a symmetry"),
    "adjoint-check": ("adjoint-symmetry",
                      "adjoint symmetry (= differential substitution)",
                      "not an adjoint symmetry"),
    "substitution-check": ("differential-substitution",
                           "differential substitution of nonlinear "
                           "self-adjointness",
                           "not a differential substitution"),
}


def _residual_check(name: str):
    target, detail_zero, detail_nonzero = _RESIDUAL_CHECKS[name]

    def cmd(session: Session, args) -> Report:
        sysm = session.require_system()
        res = characteristic_residual(sysm, target, _char_arg(session, args))
        return _residual_report(name, sysm, res, detail_zero, detail_nonzero)
    return cmd


def cmd_selfadjoint_check(session: Session, args) -> Report:
    sysm = session.require_system()
    ch = _char_arg(session, args, "point substitution")
    lam = selfadjoint_lambda(sysm, ch)
    if lam is None:
        return Report("selfadjoint-check", "nonzero",
                      "not nonlinearly self-adjoint with point substitution")
    factors = []
    for a, row in enumerate(lam):
        for b, val in enumerate(row):
            factors.append((f"lambda[{sysm.eq_names[a]}][{sysm.eq_names[b]}]",
                            expr_text(val)))
    return Report("selfadjoint-check", "zero",
                  "nonlinearly self-adjoint with the given point substitution",
                  extra={"lambda": [f"{n} = {v}" for n, v in factors]})


def cmd_multiplier_check(session: Session, args) -> Report:
    sysm = session.require_system()
    ch = _char_arg(session, args)
    res, adjoint_parts, extras = adjoint_invariance_conditions(sysm, ch)
    rep = _residual_report("multiplier-check", sysm, res,
                           "conservation-law multiplier", "not a multiplier")
    rep.extra["adjoint_parts"] = [
        f"{d}: {expr_text(p)}" for d, p in zip(sysm.dep, adjoint_parts)]
    failing = []
    for (sigma, beta, J), coeff in extras:
        deriv = ",".join(J.to_seq())
        failing.append(
            f"extra condition [{sysm.dep[sigma]}; D[{deriv or '1'}]"
            f"{sysm.eq_names[beta]}]: {expr_text(coeff)}")
    rep.extra["extra_conditions"] = failing
    if rep.status == "nonzero":
        if all(p.is_zero for p in adjoint_parts) and failing:
            rep.detail = ("adjoint symmetry but not a multiplier: the "
                          "adjoint invariance condition fails")
    return rep


def _generator_arg(session: Session, val) -> Generator:
    """A declared generator, or the evolutionary generator of a
    characteristic (declared or inline)."""
    if isinstance(val, str) and val in session.gens:
        return session.gens[val]
    ch = _characteristic(session, val, "generator")
    return Generator.evolutionary(session.require_system(), *ch)


def cmd_conslaw(session: Session, args) -> Report:
    sysm = session.require_system()
    if not args:
        raise UsageError("conslaw needs a generator (and usually a "
                         "substitution): conslaw <generator> [<substitution>]")
    if len(args) > 2:
        raise UsageError("conslaw takes at most two arguments")
    gen = _generator_arg(session, args[0][1])
    phi = _characteristic(session, args[1][1]) if len(args) > 1 else None
    # without a substitution the adjoint variables stay in the components
    clash = sorted(set(adjoint_variables(sysm))
                   & _names_used((*gen.xi, *gen.eta))) if phi is None else []
    if clash:
        raise UsageError(
            f"the generator uses {', '.join(clash)}, the name of an adjoint "
            "variable; give a substitution or rename it")

    vec = ibragimov_vector(sysm, gen, phi)
    rep_v = verify_divergence(sysm, vec)
    report = Report(
        "conslaw",
        "zero" if rep_v.ok else "nonzero",
        ("conservation law verified on the solution manifold"
         if rep_v.ok else "divergence does not vanish on solutions"),
        vectors={
            comp: {"reduced": red, "raw": raw}
            for comp, red, raw in zip(sysm.indep, vec.components,
                                      vec.raw_components)
        },
        identity=_identity(sysm, rep_v),
        extra={"nontrivial": rep_v.nontrivial},
    )
    if phi is None:
        report.extra["note"] = (
            "no substitution given: components keep the symbolic "
            f"multiplier variable(s) {', '.join(adjoint_variables(sysm))}")
    elif vec.substitution_ok is False:
        report.extra["warning"] = (
            "the substitution does not satisfy its determining system; "
            "the result is generally not conserved")
    return report


def _identity(sysm, rep_v) -> dict:
    """The conservation-law identity sum M * D_J(E) + S of a divergence
    report, in the order `e_decompose` gives it."""
    return {
        "terms": [(sysm.eq_names[b], ",".join(J.to_seq()), c)
                  for (b, J), c in rep_v.decomposition.coeffs.items()],
        "remainder": rep_v.decomposition.remainder,
    }


def cmd_verify(session: Session, args) -> Report:
    sysm = session.require_system()
    if len(args) != 1 or not isinstance(args[0][1], str):
        raise UsageError("verify takes one declared vector name")
    name = args[0][1]
    if name not in session.vectors:
        raise UsageError(f"unknown vector {name!r}")
    comps = session.vectors[name]
    rep_v = verify_divergence(sysm, comps)
    return Report(
        "verify",
        "zero" if rep_v.ok else "nonzero",
        ("divergence vanishes on the solution manifold" if rep_v.ok
         else "divergence does not vanish on solutions"),
        residuals=[("remainder", rep_v.decomposition.remainder)],
        identity=_identity(sysm, rep_v),
        extra={"nontrivial": rep_v.nontrivial},
    )


def cmd_ansatz(session: Session, args) -> Report:
    sysm = session.require_system()
    if not args:
        raise UsageError("ansatz needs a target and basis names: "
                         "ansatz <target> <basis...>")
    label, target = args[0]
    if not isinstance(target, str) or target not in TARGETS:
        raise UsageError(
            f"unknown ansatz target; expected one of {', '.join(sorted(TARGETS))}")
    basis = tuple(_characteristic(session, val) for _, val in args[1:])
    problem = AnsatzProblem(sysm, target, basis)
    result = solve_ansatz(problem)
    vec_lines = []
    for v in result.vectors:
        entries = ", ".join(expr_text(x) for x in entry_exprs(v))
        vec_lines.append(f"({entries})")
    return Report(
        "ansatz", "zero",
        f"nullspace dimension {result.dimension}",
        side_conditions=list(result.side_conditions),
        extra={
            "dimension": result.dimension,
            "unknowns": [p.name for p in result.unknowns],
            "nullspace": vec_lines,
            "rows": len(result.rows),
        },
    )


COMMANDS = {
    "variational-check": cmd_variational_check,
    **{name: _residual_check(name) for name in _RESIDUAL_CHECKS},
    "selfadjoint-check": cmd_selfadjoint_check,
    "multiplier-check": cmd_multiplier_check,
    "conslaw": cmd_conslaw,
    "verify": cmd_verify,
    "ansatz": cmd_ansatz,
}


def run_command(session: Session, name: str, args) -> Report:
    handler = COMMANDS.get(name)
    if handler is None:
        raise UsageError(
            f"unknown command {name!r}; expected one of "
            f"{', '.join(sorted(COMMANDS))}")
    return handler(session, tuple(args))


def run_session_command(session: Session, cmd: CommandStmt) -> Report:
    return run_command(session, cmd.name, cmd.args)
