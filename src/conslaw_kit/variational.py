"""Variational operator calculus.

Euler operator, formal Lagrangian with adjoined multiplier variables, the
adjoint system, linearization of a PDE system and its formal adjoint
applied to characteristics, and the self-adjointness test that decides
whether a system is variational.  A characteristic is a tuple of
expressions, one per dependent variable, whether it is a symmetry, an
adjoint symmetry, a substitution or a multiplier; `_as_characteristic`
also takes a lone expression for a scalar system.  One reader,
`_operator_table`, turns expressions into differential-operator
coefficients: it gives the linearization from the equations and the
formal adjoint from the adjoint system, which is linear in the adjoined
variables.

Four values depend on the system alone and are built once per system, in
its `PdeSystem.memo`: the adjoint variables, the formal Lagrangian, the
adjoint system (a tuple) and the linearization table.  Everything else
here is computed afresh on each call.
"""

from __future__ import annotations

from .expr.atoms import JetVar, OpaqueDeriv
from .expr.errors import ExprError
from .expr.expression import Expr, atom_expr, jet_gradient, sum_exprs
from .jet import PdeSystem, alternating_sum, derivatives
from .record import Record

__all__ = [
    "euler", "adjoint_variables",
    "formal_lagrangian", "adjoint_system", "linearize_table", "linearize",
    "adjoint_linearize", "is_variational", "VariationalVerdict",
]


def _as_characteristic(c, m: int) -> tuple[Expr, ...]:
    ch = (c,) if isinstance(c, Expr) else tuple(c)
    if len(ch) != m:
        raise ExprError(f"characteristic has {len(ch)} components, system has {m}")
    return ch


def euler(e: Expr, dep: str) -> Expr:
    """Variational derivative delta e / delta dep.

    sum over the derivative indices J on which e depends of
    (-1)^|J| D_J (d e / d dep_J), evaluated nested by `alternating_sum`,
    so each index costs one total derivative.  Every d e / d dep_J comes
    from one `jet_gradient` of e, so the sum truncates at the orders
    actually present, and opaque functions of dep contribute through the
    chain rule.
    """
    return alternating_sum((a.index, d) for a, d in jet_gradient(e).items()
                           if a.__class__ is JetVar and a.dep == dep)


def adjoint_variables(sys: PdeSystem) -> tuple[str, ...]:
    """Deterministic fresh names for the adjoined multiplier variables,
    built once per system."""
    return sys.memo("adjoint_variables", lambda: _fresh_names(sys, "v"))


def _fresh_stem_names(stem: str, n: int, used: set[str],
                      bare: bool = False) -> tuple[str, ...]:
    """stem1..stemN, or the stem alone if `bare`, with the stem repeated
    until neither it nor any numbered form is a name in `used`."""
    base = stem
    while base in used or any(f"{base}{i}" in used for i in range(1, n + 1)):
        base += stem
    return (base,) if bare else tuple(f"{base}{i}" for i in range(1, n + 1))


def _fresh_names(sys: PdeSystem, stem: str) -> tuple[str, ...]:
    """One name per dependent variable, clashing with no name the system
    uses, in its equations or its rules; a scalar system's is the stem
    alone."""
    used = set(sys.indep) | set(sys.dep)
    used.update(r.lhs.func for r in sys.rules)
    for e in (*sys.equations, *(r.rhs for r in sys.rules)):
        for a in e.atoms():
            if isinstance(a, JetVar):
                used.add(a.dep)
            elif isinstance(a, OpaqueDeriv):
                used.add(a.func)
        used.update(p.name for p in e.parameters())
    return _fresh_stem_names(stem, len(sys.dep), used, len(sys.dep) == 1)


def formal_lagrangian(sys: PdeSystem) -> Expr:
    """sum_beta v^beta * E^beta with fresh dependent variables v.

    Mixed-derivative atoms need no textual symmetrization here because
    u_{xt} and u_{tx} are the same atom; the symmetric split of mixed
    slots is applied where the Lagrangian is differentiated with respect
    to an ordered derivative slot (conserved-vector assembly).  Built once
    per system.
    """
    return sys.memo("formal_lagrangian", lambda: sum_exprs(
        atom_expr(JetVar(name)) * eq
        for name, eq in zip(adjoint_variables(sys), sys.equations)))


def adjoint_system(sys: PdeSystem) -> tuple[Expr, ...]:
    """Euler derivatives of the formal Lagrangian: one expression per
    dependent variable, in the adjoined v variables, not reduced.  Built
    once per system; a tuple, so the shared value cannot change."""
    def build():
        lagr = formal_lagrangian(sys)
        return tuple(euler(lagr, d) for d in sys.dep)
    return sys.memo("adjoint_system", build)


def _operator_table(exprs, deps) -> tuple:
    """The operators sum_J de/dw_J * D_J read off one `jet_gradient` per
    expression e: `table[a][r]` holds the (J, coefficient) pairs of the
    a-th expression and the r-th variable w of `deps`, in `MultiIndex`
    order, nonzero coefficients only."""
    column = {d: r for r, d in enumerate(deps)}
    table = []
    for e in exprs:
        row = [[] for _ in deps]
        for atom, c in jet_gradient(e).items():
            if atom.__class__ is JetVar and atom.dep in column:
                row[column[atom.dep]].append((atom.index, c))
        table.append(tuple(tuple(sorted(pairs)) for pairs in row))
    return tuple(table)


def linearize_table(sys: PdeSystem) -> tuple:
    """The linearization sum_J dE^a/du^r_J * D_J as an `_operator_table`
    over the equations and the dependent variables.  Built once per
    system."""
    return sys.memo("linearize_table",
                    lambda: _operator_table(sys.equations, sys.dep))


def linearize(sys: PdeSystem, eta) -> list[Expr]:
    """Linearization applied to a characteristic; expressions are not
    reduced on solutions (reduction is the caller's choice)."""
    ch = _as_characteristic(eta, len(sys.dep))
    tables = [derivatives(c) for c in ch]
    return [sum_exprs(c * tables[r](J)
                      for r, pairs in enumerate(row) for J, c in pairs)
            for row in linearize_table(sys)]


def adjoint_linearize(sys: PdeSystem, omega) -> list[Expr]:
    """Adjoint linearization applied to a characteristic.

    The expressions follow the defining alternating-sign sum
    sum_J (-1)^|J| D_J(omega * dE/du_J), evaluated nested by
    `alternating_sum` over the pieces of every equation at once, so each
    index costs one total derivative.  The formal adjoint that
    `is_variational` reads off the adjoint system is an independent code
    path the expressions are checked against in tests.
    """
    ch = _as_characteristic(omega, len(sys.dep))
    table = linearize_table(sys)
    return [alternating_sum((J, ch[r] * c)
                            for r, row in enumerate(table)
                            for J, c in row[a])
            for a in range(len(sys.dep))]


class VariationalVerdict(Record):
    """`witness`: (target, source, index, adjoint-minus-direct
    coefficient) for the first differing operator entry, reduced on
    solutions; None when `ok`."""

    __slots__ = ("ok", "witness")
    _defaults = {"witness": None}

    def __bool__(self) -> bool:
        return self.ok


def is_variational(sys: PdeSystem) -> VariationalVerdict:
    """Whether the linearization is formally self-adjoint on solutions
    (under the system's rules).

    The adjoint system is linear in the adjoined variables v, so the
    coefficient of v^r_K in its a-th expression is the (a, r, K) entry of
    the formal adjoint L*.  That `_operator_table` is compared with the
    linearization's entry by entry, in (a, r, J) order; a variational
    system admits a Lagrangian and its adjoint symmetries are symmetries.
    """
    direct = linearize_table(sys)
    adj = _operator_table(adjoint_system(sys), adjoint_variables(sys))
    zero = Expr.zero()
    for a, (direct_row, adj_row) in enumerate(zip(direct, adj)):
        for r, (d, s) in enumerate(zip(direct_row, adj_row)):
            d, s = dict(d), dict(s)
            for J in sorted(d.keys() | s.keys()):
                diff = sys.reduce(s.get(J, zero) - d.get(J, zero))
                if not diff.is_zero:
                    return VariationalVerdict(False, (a, r, J, diff))
    return VariationalVerdict(True)
