"""Conserved vectors from the formal Lagrangian.

Assembles the components C^i from a symmetry generator and a differential
substitution, verifies D_i C^i = 0 on the solution manifold with an
explicit equation-proportional identity as evidence, and compares vectors
up to the equivalences that leave a conservation law unchanged (overall
sign, on-solution rewriting, divergence-free shifts).

The weighted brackets of the formal Lagrangian are built once per
system, in its `PdeSystem.memo`, as are a substitution's residual and
D_J phi tables, which a `substitution-check` of it shares.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

from .cancel import checkpoint
# `e_decompose` stays bound here, where perfbench's tracer rebinds it
from .determining import (_multiplier_substitution, _shadow, _split,
                          characteristic_residual, e_decompose)  # noqa: F401
from .expr.atoms import JetVar, MultiIndex
from .expr.coeff import as_poly
from .expr.errors import ExprError
from .expr.expression import (Expr, atom_expr, graded_key, jet_atom,
                              jet_gradient, sum_exprs)
from .jet import PdeSystem, derivatives, total_derivative
from .record import Record
from .variational import _as_characteristic, formal_lagrangian

__all__ = [
    "Generator", "ConservedVector", "VerificationReport", "characteristic_W",
    "ibragimov_vector", "verify_divergence", "compare_vectors",
    "EquivalenceResult",
]


class Generator(Record):
    """Symmetry generator: xi components over the independent variables,
    eta components over the dependent variables (xi may be all zero for
    the evolutionary form)."""

    __slots__ = ("xi", "eta")

    def __init__(self, xi: tuple[Expr, ...], eta: tuple[Expr, ...]) -> None:
        if all(c.is_zero for c in xi) and all(c.is_zero for c in eta):
            raise ExprError("generator must have a nonzero component")
        super().__init__(xi, eta)

    @staticmethod
    def evolutionary(sys: PdeSystem, *eta: Expr) -> "Generator":
        return Generator(tuple(Expr.zero() for _ in sys.indep), tuple(eta))


def characteristic_W(sys: PdeSystem, g: Generator) -> tuple[Expr, ...]:
    """W^sigma = eta^sigma - sum_j xi^j u^sigma_j."""
    if len(g.eta) != len(sys.dep):
        raise ExprError(f"generator has {len(g.eta)} eta components, "
                        f"system has {len(sys.dep)} dependent variables")
    if len(g.xi) != len(sys.indep):
        raise ExprError(f"generator has {len(g.xi)} xi components, "
                        f"system has {len(sys.indep)} independent variables")
    return tuple(
        eta - sum_exprs(xi * atom_expr(jet_atom(d, var))
                        for xi, var in zip(g.xi, sys.indep) if not xi.is_zero)
        for d, eta in zip(sys.dep, g.eta))


class VerificationReport(Record):
    __slots__ = ("decomposition", "nontrivial")

    @property
    def ok(self) -> bool:
        return self.decomposition.remainder.is_zero


class ConservedVector(Record):
    """Components per independent variable, reduced on solutions, plus the
    pre-reduction forms and whether the substitution satisfies its
    determining system (None when no substitution was given)."""

    __slots__ = ("system", "components", "raw_components", "substitution_ok")


def _bracket_table(sys: PdeSystem) -> tuple[tuple[tuple], ...]:
    """Per independent variable x^i, the (sigma, T, mult(T) * B(sigma, T+i))
    whose bracket is nonzero, with sigma the index of a dependent variable,
    T a multiset of order below the system's and

        B(sigma, S) = dL/du^sigma_S / mult(S) - sum_v D_v B(sigma, S+v).

    Each bracket is built once per system, from order r = `sys.order`
    down to 1, over one `jet_gradient` of the formal Lagrangian L."""
    def build():
        grad = jet_gradient(formal_lagrangian(sys))
        r = sys.order
        B: dict[tuple[int, MultiIndex], Expr] = {}
        for n in range(r, 0, -1):
            checkpoint()
            for S in itertools.combinations_with_replacement(sys.indep, n):
                S = MultiIndex.of(*S)
                mult = S.multiplicity()
                for s, d in enumerate(sys.dep):
                    dd = grad.get(JetVar(d, S), Expr.zero())
                    pieces = [dd if dd.is_zero or mult == 1 else dd / mult]
                    if n < r:
                        pieces.extend(-total_derivative(b, v)
                                      for v in sys.indep
                                      if not (b := B[s, S.bump(v)]).is_zero)
                    B[s, S] = sum_exprs(pieces)
        multisets = [MultiIndex.of(*T) for n in range(r) for T in
                     itertools.combinations_with_replacement(sys.indep, n)]
        return tuple(
            tuple((s, T, b if (m := T.multiplicity()) == 1 else b.scale(m))
                  for s in range(len(sys.dep)) for T in multisets
                  if not (b := B[s, T.bump(var)]).is_zero)
            for var in sys.indep)
    return sys.memo("bracket_table", build)


def ibragimov_vector(sys: PdeSystem, g: Generator, phi=None) -> ConservedVector:
    """Conserved vector of a symmetry generator via the formal Lagrangian.

    Assembles, for each independent variable x^i,

        C^i = xi^i L + sum_T D_T(W^sigma) * B(sigma, (i,)+T),
        B(sigma, S) = sum_T' (-1)^|T'| D_T'( dL/du^sigma_(S+T') / mult ),

    with T, T' ranging over ordered tuples of independent variables up to
    the system's differential order, and mult the number of orderings of
    the slot multi-index S+T' (the symmetric split that gives the 1/2 on
    mixed-derivative equations).  Both sums depend on a tuple only
    through its multiset, so they run over multisets, the outer one
    weighted by T's number of orderings; the weighted brackets depend on
    the system alone and come from `_bracket_table`.  This call forms W
    and one D_T(W) table per component.  The result then has phi
    substituted for the adjoined variables and is reduced on solutions;
    the substitution residual and every component read one table of the
    D_J phi.  With phi=None the components keep the symbolic multiplier
    variables.

    A phi that fails the substitution determining system is accepted (the
    result is then generally not conserved); the failure is flagged on the
    returned vector rather than raised, so negative probes stay cheap.
    The verdict and the substitution read phi's entries in the memo, its
    substitution residual and D_J tables, which stay there for the
    system's lifetime, one set per phi probed, the tables growing as
    they are read.
    """
    lagr = formal_lagrangian(sys)
    tables = [derivatives(w) for w in characteristic_W(sys, g)]
    raw = []
    for xi, entries in zip(g.xi, _bracket_table(sys)):
        checkpoint()
        raw.append(sum_exprs([xi * lagr,
                              *(tables[s](T) * b for s, T, b in entries)]))

    substitution_ok = None
    if phi is not None:
        phi = _as_characteristic(phi, len(sys.dep))
        substitution_ok = all(x.is_zero for x in characteristic_residual(
            sys, "differential-substitution", phi))
        sub = _multiplier_substitution(sys, sys.memo(
            ("derivatives", phi), lambda: tuple(map(derivatives, phi))))
        raw = [sub(c) for c in raw]

    reduced = tuple(sys.reduce(c) for c in raw)
    return ConservedVector(sys, reduced, tuple(raw), substitution_ok)


def verify_divergence(sys: PdeSystem, vec: "ConservedVector | Sequence[Expr]"
                      ) -> VerificationReport:
    """Check D_i C^i = 0 on solutions.

    The divergence, formed in one `reduced_divergence` in `e_decompose`'s
    shadow system, is decomposed as sum M * D_J(E) + S; success means the
    remainder S vanishes, and the M coefficients are the explicit
    conservation-law identity.  Failure is a report state, not an error.
    `nontrivial` reads the components reduced on solutions; those of a
    `ConservedVector` built on `sys` already are, and are read as they are.
    """
    comps = _components(sys, vec.components
                        if isinstance(vec, ConservedVector) else vec)
    reduced = (comps if isinstance(vec, ConservedVector) and vec.system is sys
               else [sys.reduce(c) for c in comps])
    markers, shadow = _shadow(sys)
    div = shadow.reduced_divergence(zip(sys.indep, comps))
    return VerificationReport(_split(sys, markers, div),
                              any(not c.is_zero for c in reduced))


def _components(sys: PdeSystem, vec: Sequence[Expr]) -> tuple[Expr, ...]:
    """The vector's components, one per independent variable."""
    comps = tuple(vec)
    if len(comps) != len(sys.indep):
        raise ExprError(f"vector has {len(comps)} components, "
                        f"system has {len(sys.indep)} independent variables")
    return comps


def _divergence(sys: PdeSystem, comps: Sequence[Expr]) -> Expr:
    """D_i C^i"""
    return sum_exprs(total_derivative(c, var) for var, c in zip(sys.indep, comps))


class EquivalenceResult(Record):
    """`scale`: the s for which C_ours - s*C_ref is zero (`exact`) or a
    trivial shift, whose divergence normalizes to zero identically; None
    unless `equivalent`."""

    __slots__ = ("equivalent", "scale", "exact")
    _defaults = {"scale": None, "exact": False}


def compare_vectors(sys: PdeSystem, ours: Sequence[Expr], ref: Sequence[Expr]
                    ) -> EquivalenceResult:
    """Equality of conservation laws up to a nonzero constant multiple,
    on-solution rewriting, and addition of a vector whose divergence
    vanishes identically.

    Both vectors are canonicalized by on-solution reduction.  Candidate
    scales are +-1 plus the ratio of the `graded_key`-leading coefficients
    when it is an invertible constant (a rational times nonzero
    parameters), which covers reference vectors normalized by a parameter
    multiple.  A shift that merely vanishes on solutions would make any two
    conserved vectors compare equal, so the discrepancy's divergence must
    normalize to zero under the rules alone, without using the equations.
    """
    a = [sys.reduce(c) for c in _components(sys, ours)]
    b = [sys.reduce(c) for c in _components(sys, ref)]

    scales = [Expr.const(1), Expr.const(-1)]
    for x, y in zip(a, b):
        if x.is_zero or y.is_zero:
            continue
        (px, cx), (py, cy) = (max(v.terms, key=lambda t: graded_key(t[0]))
                              for v in (x, y))
        if px == py:
            try:
                ratio = Expr.from_coeff(
                    as_poly(cx) * as_poly(cy).invert_unit())
            except ExprError:
                break
            if ratio not in scales:
                scales.append(ratio)
        break

    def diff_for(s: Expr) -> list[Expr]:
        return [x - s * y for x, y in zip(a, b)]

    for s in scales:
        if all(d.is_zero for d in diff_for(s)):
            return EquivalenceResult(True, s, True)
    for s in scales:
        if sys.rules.reduce(_divergence(sys, diff_for(s))).is_zero:
            return EquivalenceResult(True, s, False)
    return EquivalenceResult(False)
