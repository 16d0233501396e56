"""Determining-system residuals and E-decomposition.

Each operation evaluates the residual of one determining system: symmetry,
adjoint symmetry, differential substitution, multiplier, and the adjoint
invariance conditions that pick multipliers out of the adjoint symmetries.
The workhorse is `e_decompose`, which writes an expression exactly as

    original = sum M * D_J(E) + S

with S fully reduced on the solution manifold, by substituting each
leading derivative L = R + c^(-1) * <marker> and letting total derivatives
carry the marker's jet coordinates along.

The residual functions compute afresh, as the ansatz's one-off
combinations want; `characteristic_residual` keeps a named
characteristic's residuals, and a substitution's D_J phi tables, in the
system's `PdeSystem.memo`, so the commands that name it share them.
"""

from __future__ import annotations

from collections.abc import Callable

from .cancel import checkpoint
from .expr.atoms import ExpAtom, JetVar, MultiIndex
from .expr.errors import SubstitutionClassError, TrivialSubstitutionError
from .expr.expression import (Expr, atom_expr, collect, jet_gradient,
                              substitute, sum_exprs)
from .jet import PdeSystem, derivatives
from .record import Record
from .variational import (_as_characteristic, _fresh_names, adjoint_system,
                          adjoint_variables, euler, linearize,
                          adjoint_linearize)

__all__ = [
    "EDecomposition", "e_decompose", "symmetry_residual",
    "adjoint_symmetry_residual", "differential_substitution_residual",
    "selfadjoint_lambda", "multiplier_residual",
    "adjoint_invariance_conditions", "characteristic_residual", "TARGETS",
]


class EDecomposition(Record):
    """Exact split original = sum coeffs[(beta, J)] * D_J(E^beta) + S
    (+ terms of degree >= 2 in the equations, and equation content inside
    exponentials beyond its first order, reported in `quadratic` still
    carrying marker atoms).  `coeffs` (a dict keyed by (beta, J))
    is in identity order: by equation, then by `MultiIndex` order
    (total order, then counts)."""

    __slots__ = ("system", "coeffs", "remainder", "quadratic", "marker_deps")

    @property
    def is_linear(self) -> bool:
        return self.quadratic.is_zero

    def reassemble(self) -> Expr:
        """Substitute the actual equations back; must reproduce the input."""
        tables = [derivatives(eq) for eq in self.system.equations]
        return sum_exprs([
            self.remainder,
            _substitute_jets(self.quadratic, self.marker_deps, tables),
            *(m * tables[b](J) for (b, J), m in self.coeffs.items())])


def _substitute_jets(e: Expr, names: tuple[str, ...], tables) -> Expr:
    """`e` with every jet coordinate of the dependent variable names[b]
    replaced by tables[b] at its multi-index."""
    return substitute(e, {a: tables[names.index(a.dep)](a.index)
                          for a in e.atoms()
                          if isinstance(a, JetVar) and a.dep in names})


def e_decompose(e: Expr, sys: PdeSystem) -> EDecomposition:
    """Separate on-solution content from equation-proportional content.

    Substitutes L^beta -> R^beta + c^(-1) * marker^beta (so that each
    equation maps exactly to its marker), reduces, and collects on marker
    monomials.  Degree-one buckets give the M coefficients, the constant
    bucket is the remainder S, and higher-degree buckets are reported as
    quadratic content.

    A marker inside an exponential is not a factor to collect.  When an
    exponent holds one, S is the reduced expression at markers 0, each M
    its derivative by the marker there (the constant bucket's gradient
    plus the marker's own bucket), and `quadratic` holds the rest, so
    `reassemble` still reproduces the input.

    The markers and this shadow system (`_shadow`) are built once per
    system and kept by `PdeSystem.memo`, so its replacement cache is reused
    by later calls and by `verify_divergence`, which shares the split
    (`_split`); a copy made by `PdeSystem.with_solved` starts without it.
    """
    markers, shadow = _shadow(sys)
    return _split(sys, markers, shadow.reduce(e))


def _shadow(sys: PdeSystem) -> tuple[tuple[str, ...], PdeSystem]:
    """The markers and the substituted ("shadow") system of `sys`."""
    def build():
        names = _fresh_names(sys, "Emark")
        return names, sys.with_solved(
            r + Expr.from_coeff(c.invert_unit()) * atom_expr(JetVar(name))
            for r, c, name in zip(sys.solved, sys.lead_coeff, names))
    return sys.memo("e_decompose", build)


def _split(sys: PdeSystem, markers: tuple[str, ...], reduced: Expr
           ) -> EDecomposition:
    """`e_decompose` of an expression from its form `reduced` in the shadow."""
    checkpoint()
    atoms = reduced.atoms()
    marker_atoms = {a for a in atoms
                    if isinstance(a, JetVar) and a.dep in markers}
    buckets = collect(reduced, marker_atoms)
    remainder = buckets.get((), Expr.zero())
    coeffs: dict[tuple[int, MultiIndex], Expr] = {}
    quadratic = []
    if any(isinstance(a, ExpAtom)
           and not marker_atoms.isdisjoint(a.exponent.atoms())
           for a in atoms):
        at_zero = {a: Expr.zero() for a in marker_atoms}
        grad = jet_gradient(remainder)
        for a in marker_atoms:
            m = substitute(sum_exprs((grad.get(a, Expr.zero()),
                                      buckets.get(((a, 1),), Expr.zero()))),
                           at_zero)
            if not m.is_zero:
                coeffs[(markers.index(a.dep), a.index)] = m
                quadratic.append(-m * atom_expr(a))
        remainder = substitute(remainder, at_zero)
        quadratic += (reduced, -remainder)
    else:
        for key, val in buckets.items():
            degree = sum(k for _, k in key)
            if degree == 1:
                atom = key[0][0]
                coeffs[(markers.index(atom.dep), atom.index)] = val
            elif degree > 1:
                quadratic.append(Expr(((key, 1),)) * val)
    coeffs = dict(sorted(coeffs.items(), key=lambda kv: kv[0]))
    return EDecomposition(sys, coeffs, remainder, sum_exprs(quadratic),
                          markers)


def symmetry_residual(sys: PdeSystem, eta) -> tuple[Expr, ...]:
    """On-solution residual of the symmetry determining system; all
    components zero iff eta is a generalized symmetry characteristic."""
    return tuple(sys.reduce(x) for x in linearize(sys, eta))


def adjoint_symmetry_residual(sys: PdeSystem, omega) -> tuple[Expr, ...]:
    """On-solution residual of the adjoint determining system."""
    return tuple(sys.reduce(x) for x in adjoint_linearize(sys, omega))


def _multiplier_substitution(sys: PdeSystem, tables) -> Callable[[Expr], Expr]:
    """e -> e with the adjoined variables and all their jet coordinates
    replaced by phi's components and their total derivatives, read from
    `tables`, phi's D_J tables."""
    names = adjoint_variables(sys)
    return lambda e: _substitute_jets(e, names, tables)


def _require_nontrivial(sys: PdeSystem, phi: tuple[Expr, ...]) -> None:
    """Raise `TrivialSubstitutionError` if every component of phi vanishes
    on solutions."""
    if all(sys.reduce(c).is_zero for c in phi):
        raise TrivialSubstitutionError("trivial substitution")


def differential_substitution_residual(sys: PdeSystem, phi) -> tuple[Expr, ...]:
    """Residual of the determining system for substitutions that make the
    adjoint system hold on solutions.

    Computed independently of `adjoint_symmetry_residual` (adjoint system
    via the Euler operator, then substitution); the two must agree for
    every characteristic, which the test suite checks mechanically.
    Each call builds its own D_J phi tables.
    """
    phi = _as_characteristic(phi, len(sys.dep))
    _require_nontrivial(sys, phi)
    return _substitution_residual(sys, tuple(map(derivatives, phi)))


def _substitution_residual(sys: PdeSystem, tables) -> tuple[Expr, ...]:
    """The adjoint system with a nontrivial phi substituted through its
    D_J `tables`, reduced on solutions."""
    sub = _multiplier_substitution(sys, tables)
    return tuple(sys.reduce(sub(adj)) for adj in adjoint_system(sys))


def selfadjoint_lambda(sys: PdeSystem, phi):
    """Factor matrix for point substitutions: (E^alpha)*|_{v=phi} =
    lambda_alpha^beta E^beta.

    `phi` may depend on the independent and dependent variables only.
    Returns the matrix lambda[alpha][beta], or None when the substituted
    adjoint system has an on-solution remainder (the system is not
    nonlinearly self-adjoint with this point substitution); raises
    SubstitutionClassError when phi or that system has derivative or
    quadratic equation content ("requires differential substitution").
    """
    phi = _as_characteristic(phi, len(sys.dep))
    for c in phi:
        if c.jet_order() > 0:
            raise SubstitutionClassError(
                "requires differential substitution (component depends on "
                "derivatives)")
    _require_nontrivial(sys, phi)
    m = len(sys.dep)
    lam = [[Expr.zero()] * m for _ in range(m)]
    sub = _multiplier_substitution(sys, tuple(map(derivatives, phi)))
    for a, adj in enumerate(adjoint_system(sys)):
        dec = e_decompose(sub(adj), sys)
        if not dec.is_linear:
            raise SubstitutionClassError(
                "requires differential substitution (nonlinear in E)")
        if not dec.remainder.is_zero:
            return None
        for (b, J), coeff in dec.coeffs.items():
            if J.order:
                raise SubstitutionClassError(
                    "requires differential substitution (derivative of E "
                    "survives)")
            lam[a][b] = coeff
    return lam


def multiplier_residual(sys: PdeSystem, lam) -> tuple[Expr, ...]:
    """Euler derivatives of Lambda_beta E^beta, one per dependent variable,
    reduced under the system's rules but NOT on solutions (multipliers
    must work for arbitrary u)."""
    lam = _as_characteristic(lam, len(sys.dep))
    combined = sum_exprs(c * eq for c, eq in zip(lam, sys.equations))
    return tuple(sys.rules.reduce(euler(combined, d)) for d in sys.dep)


def adjoint_invariance_conditions(sys: PdeSystem, lam):
    """Split each multiplier residual into its adjoint-symmetry part and
    the extra conditions a multiplier must additionally satisfy.

    Returns (residuals, adjoint_parts, extras): residuals is the
    `multiplier_residual` it splits, adjoint_parts[sigma] is the reduced
    remainder (and provably equals the adjoint-symmetry residual), extras
    is a list of ((sigma, beta, J), coefficient) for every surviving
    equation-proportional coefficient.  The adjoint-symmetry residual of
    each lam stays in the system's memo for the system's lifetime.
    """
    lam = _as_characteristic(lam, len(sys.dep))
    residuals = multiplier_residual(sys, lam)
    reference = characteristic_residual(sys, "adjoint-symmetry", lam)
    adjoint_parts: list[Expr] = []
    extras: list[tuple[tuple[int, int, MultiIndex], Expr]] = []
    for sigma, res in enumerate(residuals):
        dec = e_decompose(res, sys)
        if dec.remainder != reference[sigma]:
            raise ArithmeticError(
                "internal inconsistency: multiplier-residual remainder does "
                "not match the adjoint-symmetry residual")
        adjoint_parts.append(dec.remainder)
        for (b, J), coeff in dec.coeffs.items():
            extras.append(((sigma, b, J), coeff))
    return residuals, tuple(adjoint_parts), extras


TARGETS: dict[str, Callable] = {
    "symmetry": symmetry_residual,
    "adjoint-symmetry": adjoint_symmetry_residual,
    "multiplier": multiplier_residual,
    "differential-substitution": differential_substitution_residual,
}


def characteristic_residual(sys: PdeSystem, target: str, phi
                            ) -> tuple[Expr, ...]:
    """The `TARGETS[target]` residual of phi, kept in the memo under
    (target, phi); a substitution's D_J tables join it under
    ("derivatives", phi).  A build that raises, as a trivial substitution
    or a deadline does, stores neither."""
    phi = _as_characteristic(phi, len(sys.dep))

    def build():
        if target != "differential-substitution":
            return TARGETS[target](sys, phi)
        _require_nontrivial(sys, phi)
        tables = tuple(map(derivatives, phi))
        residual = _substitution_residual(sys, tables)
        sys.memo(("derivatives", phi), lambda: tables)
        return residual
    return sys.memo((target, phi), build)
