"""Jet-space calculus and PDE systems in leading-derivative form.

The total derivative D_i = d/dx^i + sum u^a_{J,i} d/du^a_J is the
contraction of the jet gradient.  The chain rule lives in one place, the
term walk behind `expression.jet_gradient`; `total_derivative` takes that
walk's unsummed terms of de/da, raises each term of a jet coordinate's
entry by its bump, keeps the entry of x_i and merges all of them in one
`_gather`.  `PdeSystem.reduced_divergence` takes the same walk on the
solution manifold: a coordinate whose bump the system rewrites has its
terms multiplied by that image instead, so a replacement table and a
conserved vector's divergence are reduced while they are formed.

The engine's sums of iterated derivatives compute each total derivative
once per multi-index in a call.  `derivatives(e)` is the table J -> D_J e,
each entry one derivative of its parent (J without its last variable).
`alternating_sum` evaluates sum (-1)^|J| D_J f_J nested, Horner-style:
each input is signed once, as (-1)^|J| f_J, and the pieces at J fold
into the parent J - v before it is differentiated, so each index costs
one D however many pieces share it, and no derivative is negated.  Both
live only as long as their caller holds them; the one `derivatives`
table kept across calls is a `conslaw` substitution's D_J phi table,
which `conslaw.ibragimov_vector` keeps in its system's `PdeSystem.memo`
beside the residuals of each characteristic a command names (see
`determining`).
The memo and the image table are all a system keeps across calls.

A `PdeSystem` designates one solved ("leading") derivative per equation
and carries the rewrite rules that constrain its opaque functions.
Together they define the normal form on the solution manifold under the
rules: every occurrence of a leading derivative, or of any of its
differential consequences, is replaced by the total derivatives of the
solved form, and every rule-matched opaque derivative by its rule.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable, Sequence

from .expr.atoms import Atom, JetVar, MultiIndex, OpaqueDeriv, mono_mul
from .expr.coeff import Poly
from .expr.errors import ExprError, LeadingSolveError
from .expr.expression import (Expr, _gather, _gradient_terms, _products,
                              atom_expr, partial, sum_exprs)
from .expr.printer import atom_text
from .expr.rules import RewriteRule, RuleSet, fixpoint
from .record import Record

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover
    from typing import Any

__all__ = [
    "total_derivative", "derivatives", "alternating_sum", "PdeSystem",
    "solve_leading", "solve_equation",
]


def total_derivative(e: Expr, var: str) -> Expr:
    """D_var e = de/dx_var + sum over the jet coordinates a of
    de/da * D_var a, the contraction of the jet-gradient walk."""
    return _gather(_derivative_terms(e, var))


def _derivative_terms(e: Expr, var: str, image=None) -> list:
    """The terms of D_var e from one `_gradient_terms` walk: the entry of
    x_var as it is (D_var discards the other variables'), each term of a
    coordinate a's entry raised by a.bump(var), or times its `image`."""
    terms = []
    for a, ts in _gradient_terms(e, var).items():
        if a.__class__ is not JetVar:   # the entry of x_var
            terms += ts
            continue
        da = a.bump(var)
        if image and (b := image(da)) is not None:
            terms += _products(ts, b.terms)
        else:
            da = ((da, 1),)
            terms += [(mono_mul(p, da), c) for p, c in ts]
    return terms


def derivatives(e: Expr) -> Callable[[MultiIndex], Expr]:
    """The table J -> D_J e, filled on demand; it lives as long as the
    caller holds it.

    An entry is one total derivative of its parent entry, J without its
    last variable, so each multi-index reached costs one D whatever order
    the lookups come in.
    """
    table = {MultiIndex(): e}

    def d(J: MultiIndex) -> Expr:
        hit = table.get(J)
        if hit is None:
            var = J.counts[-1][0]
            hit = table[J] = total_derivative(d(J.drop(var)), var)
        return hit
    return d


def alternating_sum(pairs: Iterable[tuple[MultiIndex, Expr]]) -> Expr:
    """sum over the (J, f) pairs of (-1)^|J| D_J f, nested Horner-style.

    The sign is applied once to each input, sum (-1)^|J| D_J f_J =
    sum D_J((-1)^|J| f_J), so no derivative is negated.  From the highest
    order down, the pieces at each index J are summed, differentiated once
    by J's last variable v and folded into the parent J - v.  Each index
    costs one D, however many pieces share it or its descendants.
    """
    levels: dict[int, dict[MultiIndex, list[Expr]]] = {}
    for J, f in pairs:
        k = J.order
        levels.setdefault(k, {}).setdefault(J, []).append(-f if k % 2 else f)
    for k in range(max(levels, default=0), 0, -1):
        for J, pieces in levels.pop(k, {}).items():
            f = sum_exprs(pieces)
            if not f.is_zero:
                var = J.counts[-1][0]
                parent = levels.setdefault(k - 1, {})
                parent.setdefault(J.drop(var), []).append(
                    total_derivative(f, var))
    return sum_exprs(levels.get(0, {}).get(MultiIndex(), ()))


_UNSEEN = object()   # an atom not yet in a system's image table


class PdeSystem(Record):
    """PDE system with one solved leading derivative per equation.

    Each equation factors exactly as E = c * (L - R) with c a nonzero
    rational/parameter product, L a jet atom and R free of every leading
    derivative and of their differential consequences.  `rules` constrain
    the opaque functions; every on-solution result is read under them.
    Each `replacement` entry is one `reduced_divergence` of its parent.
    A copy (`with_solved`, pickle, `copy`) starts with an empty `memo`
    and an empty image table (`_image`).
    """

    __slots__ = ("indep", "dep", "equations", "leading",
                 "solved",        # R per equation, fully reduced
                 "lead_coeff",    # c per equation
                 "eq_names", "rules", "_cache", "_lock", "_images")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        object.__setattr__(self, "_cache", {})
        object.__setattr__(self, "_lock", threading.Lock())
        object.__setattr__(self, "_images", {})

    def with_solved(self, solved: Iterable[Expr]) -> "PdeSystem":
        """This system with the solved forms replaced, an empty memo and
        an empty image table."""
        return PdeSystem(self.indep, self.dep, self.equations, self.leading,
                         tuple(solved), self.lead_coeff, self.eq_names,
                         self.rules)

    @property
    def order(self) -> int:
        return max(e.jet_order() for e in self.equations)

    # -- reduction ---------------------------------------------------------

    def memo(self, key, build: Callable[[], Any]) -> Any:
        """This system's cached value for `key`; a miss calls `build`
        outside the lock, so it may recurse."""
        with self._lock:
            hit = self._cache.get(key)
        if hit is None:
            hit = build()
            with self._lock:
                hit = self._cache.setdefault(key, hit)
        return hit

    def replacement(self, i: int, extra: MultiIndex) -> Expr:
        """Reduced form of D_extra applied to equation i's solved RHS."""
        def build() -> Expr:
            if extra.order == 0:
                return self.solved[i]
            var = extra.names()[0]
            prev = self.replacement(i, extra.drop(var))
            return self.reduced_divergence(((var, prev),))
        return self.memo((i, extra), build)

    def reduced_divergence(self, pairs: Iterable[tuple[str, Expr]]) -> Expr:
        """`reduce` of the sum of D_var e over the (var, e) pairs in one
        `_gather`, each coordinate's terms times the image of its bump: an
        image taken early gives the same normal form exactly."""
        return self.reduce(_gather([t for var, e in pairs for t in
                                    _derivative_terms(e, var, self._image)]))

    def _image(self, a: Atom) -> Expr | None:
        """The rewrite of one atom, or None, from the image table, filled
        on first lookup.  The table holds only values the memo and the
        rule set keep, and each is the same whoever looks it up first."""
        hit = self._images.get(a, _UNSEEN)
        if hit is _UNSEEN:
            hit = self._images[a] = self._find_image(a)
        return hit

    def _find_image(self, a: Atom) -> Expr | None:
        if not isinstance(a, JetVar):
            return self.rules.image(a)
        for i, lead in enumerate(self.leading):
            if a.dep == lead.dep and a.index.contains(lead.index):
                return self.replacement(i, a.index - lead.index)
        return None

    def reduce(self, e: Expr) -> Expr:
        """Normal form of e on the solution manifold under the rules:
        leading derivatives and their consequences, and rule-matched
        opaque derivatives, rewritten in one fixpoint."""
        return fixpoint(e, self._image)


def solve_leading(
    indep: Sequence[str],
    dep: Sequence[str],
    equations: Sequence[Expr],
    leading: Sequence[JetVar | None] | None = None,
    eq_names: Sequence[str] | None = None,
    rules: Iterable[RewriteRule] = (),
) -> PdeSystem:
    """Build a system in leading-derivative form under rewrite rules.

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
    given = list(leading) if leading else [None] * len(equations)
    chosen, solved, coeffs = zip(*(
        solve_equation(eq, lead, name, indep, dep)
        for eq, lead, name in zip(equations, given, eq_names)))
    if len(set(chosen)) != len(chosen):
        raise LeadingSolveError("duplicate leading atoms")
    sys = PdeSystem(indep, dep, equations, chosen, solved, coeffs, eq_names,
                    RuleSet(rules))
    # Cross-equation references in the solved forms must reduce out; a
    # cyclic reference would loop, so pre-reduce each RHS with a depth cap.
    return sys.with_solved(sys.reduce(r) for r in solved)


def solve_equation(eq: Expr, lead: JetVar | None, name: str,
                   indep: Sequence[str], dep: Sequence[str]
                   ) -> tuple[JetVar, Expr, Poly]:
    """One equation solved for its leading derivative `lead` (the default
    one of `solve_leading` when None): the leading derivative, the
    remainder it equals and its coefficient."""
    if lead is None:
        lead = _default_leading(eq, tuple(indep))
    if lead.dep not in dep:
        raise LeadingSolveError(
            f"leading derivative {atom_text(lead)} is not a derivative "
            "of a declared dependent variable")
    c_expr = partial(eq, lead)
    if c_expr.is_zero:
        raise LeadingSolveError(
            f"leading derivative {atom_text(lead)} does not occur in "
            f"equation {name}")
    c = c_expr.as_coeff()
    if c is None:
        raise LeadingSolveError(
            f"leading derivative {atom_text(lead)} occurs nonlinearly")
    try:
        c.invert_unit()
    except ExprError:
        raise LeadingSolveError(
            f"coefficient of {atom_text(lead)} is not an invertible "
            "rational/parameter product") from None
    r = -(eq - Expr.from_coeff(c) * atom_expr(lead)) / Expr.from_coeff(c)
    # an opaque function's arguments count: f(u_t) holds u_t
    for a in r.atoms():
        for b in a.args if isinstance(a, OpaqueDeriv) else (a,):
            if (isinstance(b, JetVar) and b.dep == lead.dep
                    and b.index.contains(lead.index)):
                raise LeadingSolveError(
                    "leading derivative appears in remainder after solving")
    return lead, r, c


def _default_leading(eq: Expr, indep: tuple[str, ...]) -> JetVar:
    jets = [a for a in eq.atoms() if isinstance(a, JetVar) and a.order > 0]
    if not jets:
        raise LeadingSolveError("equation contains no derivative to solve for")
    def key(a: JetVar):
        return (a.order, tuple(a.index.get(v) for v in indep), a.dep)
    return max(jets, key=key)
