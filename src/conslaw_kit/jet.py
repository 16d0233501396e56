"""Jet-space calculus and PDE systems in leading-derivative form.

Total derivative operators act on the jet coordinates through the chain
rule; a `PdeSystem` designates one solved ("leading") derivative per
equation, which defines reduction onto the solution manifold: every
occurrence of a leading derivative, or of any of its differential
consequences, is replaced by the total derivatives of the solved form.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Sequence

from .cancel import checkpoint
from .expr.atoms import (Atom, ExpAtom, ExpConst, IndependentVar, JetVar,
                         MultiIndex, OpaqueDeriv, Parameter)
from .expr.coeff import Coeff
from .expr.errors import LeadingSolveError
from .expr.expression import Expr, atom_expr, partial, substitute, sum_exprs

__all__ = [
    "total_derivative", "total_derivative_multi", "jet_partial",
    "jet_indices_of", "PdeSystem", "solve_leading",
]


def _d_atom(a: Atom, var: str) -> Expr:
    """Total derivative of a single atom with respect to x_var."""
    if isinstance(a, IndependentVar):
        return Expr.const(1 if a.name == var else 0)
    if isinstance(a, (Parameter, ExpConst)):
        return Expr.zero()
    if isinstance(a, JetVar):
        return atom_expr(a.bump(var))
    if isinstance(a, OpaqueDeriv):
        dargs = [_d_atom(arg, var) for arg in a.args]
        return sum_exprs(atom_expr(a.bump(k)) * darg
                         for k, darg in enumerate(dargs) if not darg.is_zero)
    if isinstance(a, ExpAtom):
        return total_derivative(a.exponent, var) * atom_expr(a)
    raise TypeError(f"unknown atom {a!r}")


def total_derivative(e: Expr, var: "str | IndependentVar") -> Expr:
    """D_var e, the total derivative on jet space."""
    if isinstance(var, IndependentVar):
        var = var.name
    pieces = []
    for t in e.terms:
        for i, (a, _) in enumerate(t.powers):
            da = _d_atom(a, var)
            if not da.is_zero:
                pieces.append(Expr((t.lowered(i),)) * da)
    return sum_exprs(pieces)


def total_derivative_multi(e: Expr, index: MultiIndex) -> Expr:
    """Iterated total derivative D_J; order-independent."""
    for var in index.to_seq():
        e = total_derivative(e, var)
    return e


def jet_partial(e: Expr, a: Atom) -> Expr:
    """Partial derivative that also chains through opaque-function
    arguments: d g(u)/du contributes g'(u), unlike the purely formal
    `partial`, which treats g(u) as an unrelated atom."""
    return sum_exprs([partial(e, a), *(
        partial(e, f) * atom_expr(f.bump(k))
        for f in e.opaque_atoms() for k, arg in enumerate(f.args) if arg == a)])


def jet_indices_of(e: Expr, dep: str) -> set[MultiIndex]:
    """Derivative multi-indices of `dep` on which e can depend: jet atoms
    present plus opaque-function argument slots."""
    out = {a.index for a in e.jet_atoms(dep)}
    for f in e.opaque_atoms():
        for arg in f.args:
            if isinstance(arg, JetVar) and arg.dep == dep:
                out.add(arg.index)
    return out


@dataclass(frozen=True)
class PdeSystem:
    """PDE system with one solved leading derivative per equation.

    Each equation factors exactly as E = c * (L - R) with c a nonzero
    rational/parameter product, L a jet atom and R free of every leading
    derivative and of their differential consequences.
    """

    indep: tuple[str, ...]
    dep: tuple[str, ...]
    equations: tuple[Expr, ...]
    leading: tuple[JetVar, ...]
    solved: tuple[Expr, ...]          # R per equation, fully reduced
    lead_coeff: tuple[Coeff, ...]     # c per equation
    eq_names: tuple[str, ...]
    _cache: dict = field(default_factory=dict, compare=False, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  compare=False, repr=False)

    @property
    def order(self) -> int:
        return max(e.jet_order() for e in self.equations)

    def equation_index(self, name: str) -> int:
        return self.eq_names.index(name)

    # -- reduction ---------------------------------------------------------

    def _leading_match(self, a: JetVar) -> tuple[int, MultiIndex] | None:
        for i, lead in enumerate(self.leading):
            if a.dep == lead.dep and a.index.contains(lead.index):
                return i, a.index - lead.index
        return None

    def replacement(self, i: int, extra: MultiIndex) -> Expr:
        """Reduced form of D_extra applied to equation i's solved RHS."""
        key = (i, extra)
        with self._lock:
            hit = self._cache.get(key)
        if hit is not None:
            return hit
        if extra.order == 0:
            val = self.solved[i]
        else:
            var = extra.names()[0]
            prev = self.replacement(i, extra - MultiIndex.of(var))
            val = self.reduce(total_derivative(prev, var))
        with self._lock:
            self._cache[key] = val
        return val

    def reduce(self, e: Expr) -> Expr:
        """Normal form of e on the solution manifold."""
        guard = 0
        while True:
            checkpoint()
            binds = {}
            for a in e.atoms():
                if isinstance(a, JetVar):
                    m = self._leading_match(a)
                    if m is not None:
                        binds[a] = self.replacement(*m)
            if not binds:
                return e
            e = substitute(e, binds)
            guard += 1
            if guard > 1000:  # unreachable: replacements are pre-reduced
                raise LeadingSolveError("reduction did not terminate")


def solve_leading(
    indep: Sequence[str],
    dep: Sequence[str],
    equations: Sequence[Expr],
    leading: Sequence[JetVar | None] | None = None,
    eq_names: Sequence[str] | None = None,
) -> PdeSystem:
    """Build a system in leading-derivative form.

    When a leading derivative is not designated, the jet atom of highest
    total order is chosen, ties broken by most derivatives in the
    earlier-listed independent variables.
    """
    indep = tuple(indep)
    dep = tuple(dep)
    equations = tuple(equations)
    if not equations:
        raise LeadingSolveError("system has no equations")
    if len(equations) != len(dep):
        raise LeadingSolveError(
            f"{len(equations)} equations for {len(dep)} dependent variables; "
            "a leading-derivative form needs one equation per unknown")
    eq_names = tuple(eq_names) if eq_names else tuple(
        f"eq{i + 1}" for i in range(len(equations)))
    chosen: list[JetVar] = []
    given = list(leading) if leading else [None] * len(equations)
    for eq, lead in zip(equations, given):
        chosen.append(lead if lead is not None else _default_leading(eq, indep))
    if len(set(chosen)) != len(chosen):
        raise LeadingSolveError("duplicate leading atoms")

    solved: list[Expr] = []
    coeffs: list[Coeff] = []
    for eq, lead in zip(equations, chosen):
        if lead.dep not in dep:
            raise LeadingSolveError(
                f"leading derivative {lead} is not a derivative of a "
                "declared dependent variable")
        c_expr = partial(eq, lead)
        c = c_expr.as_coeff()
        if c is None or c.is_zero:
            raise LeadingSolveError(
                f"leading derivative {lead} occurs nonlinearly")
        try:
            c.invert_unit()
        except Exception:
            raise LeadingSolveError(
                f"coefficient of {lead} is not an invertible "
                "rational/parameter product") from None
        r = -(eq - Expr.from_coeff(c) * atom_expr(lead)) / Expr.from_coeff(c)
        for a in r.atoms():
            if isinstance(a, JetVar) and a.dep == lead.dep and a.index.contains(lead.index):
                raise LeadingSolveError(
                    "leading derivative appears in remainder after solving")
        solved.append(r)
        coeffs.append(c)

    sys = PdeSystem(indep, dep, equations, tuple(chosen), tuple(solved),
                    tuple(coeffs), eq_names)
    # Cross-equation references in the solved forms must reduce out; a
    # cyclic reference would loop, so pre-reduce each RHS with a depth cap.
    reduced = tuple(sys.reduce(r) for r in solved)
    return PdeSystem(indep, dep, equations, tuple(chosen), reduced,
                     tuple(coeffs), eq_names)


def _default_leading(eq: Expr, indep: tuple[str, ...]) -> JetVar:
    jets = [a for a in eq.jet_atoms() if a.order > 0]
    if not jets:
        raise LeadingSolveError("equation contains no derivative to solve for")
    def key(a: JetVar):
        return (a.order, tuple(a.index.get(v) for v in indep), a.dep)
    return max(jets, key=key)
