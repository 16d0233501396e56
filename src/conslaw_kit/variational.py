"""Variational operator calculus.

Euler operator, formal Lagrangian with adjoined multiplier variables, the
adjoint system, linearization of a PDE system and its formal adjoint (both
as expressions and as differential-operator coefficient tables), and the
self-adjointness test that decides whether a system is variational.

Four values depend on the system alone and are built once per system, in
its `PdeSystem.memo`: the adjoint variables, the formal Lagrangian, the
adjoint system (a tuple) and the linearization table.  Everything else
here is computed afresh on each call.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from .expr.atoms import JetVar, MultiIndex, OpaqueDeriv
from .expr.errors import ExprError
from .expr.expression import Expr, atom_expr, jet_gradient, sum_exprs
from .jet import PdeSystem, alternating_sum, derivatives
from .record import Record

__all__ = [
    "Characteristic", "DiffOperator", "euler", "adjoint_variables",
    "formal_lagrangian", "adjoint_system", "linearize_table", "linearize",
    "adjoint_linearize", "is_variational", "VariationalVerdict",
]


class Characteristic(Record):
    """Evolutionary-form components, one expression per dependent variable.

    The same carrier serves symmetry characteristics, adjoint-symmetry
    solutions, substitutions and multiplier candidates.
    """

    __slots__ = ("components",)   # tuple[Expr, ...]

    @staticmethod
    def of(*components: Expr) -> "Characteristic":
        return Characteristic(tuple(components))

    @property
    def order(self) -> int:
        return max((c.jet_order() for c in self.components), default=0)

    def __iter__(self):
        return iter(self.components)

    def __len__(self) -> int:
        return len(self.components)


def _as_characteristic(c, m: int) -> Characteristic:
    if isinstance(c, Characteristic):
        ch = c
    elif isinstance(c, Expr):
        ch = Characteristic((c,))
    else:
        ch = Characteristic(tuple(c))
    if len(ch) != m:
        raise ExprError(f"characteristic has {len(ch)} components, system has {m}")
    return ch


class DiffOperator(Record):
    """Matrix differential operator sum_J coeff * D_J.

    `entries[(target, source)][J]` is the coefficient of D_J applied to the
    source component contributing to the target row; absent entries are
    zero.  `build` drops zero coefficients and empty tables, so the record
    `==` decides operator equality.
    """

    __slots__ = ("target_dim", "source_dim", "entries")

    @staticmethod
    def build(target_dim: int, source_dim: int,
              raw: Mapping[tuple[int, int], Mapping[MultiIndex, Expr]]) -> "DiffOperator":
        cleaned = {}
        for key, table in raw.items():
            kept = {J: c for J, c in table.items() if not c.is_zero}
            if kept:
                cleaned[key] = kept
        return DiffOperator(target_dim, source_dim, cleaned)

    def entry(self, target: int, source: int, J: MultiIndex) -> Expr:
        return self.entries.get((target, source), {}).get(J, Expr.zero())

    def apply(self, comp: Sequence[Expr]) -> list[Expr]:
        tables = [derivatives(c) for c in comp]
        return [sum_exprs(c * tables[r](J)
                          for r in range(self.source_dim)
                          for J, c in self.entries.get((a, r), {}).items())
                for a in range(self.target_dim)]

    def adjoint(self) -> "DiffOperator":
        """Formal adjoint re-expanded to sum_K coeff * D_K normal form.

        The (a, r) entry of the adjoint collects, from the (r, a) entries of
        the original, the Leibniz expansion of (-1)^|J| D_J(coeff * .).
        """
        acc: dict[tuple[int, int], dict[MultiIndex, list[Expr]]] = {}
        for (r, a), table in self.entries.items():
            dest = acc.setdefault((a, r), {})
            for J, c in table.items():
                sign = -1 if J.order % 2 else 1
                dc = derivatives(c)
                for K, w in J.sub_indices():
                    dest.setdefault(K, []).append(dc(J - K).scale(sign * w))
        return DiffOperator.build(self.source_dim, self.target_dim, {
            key: {K: sum_exprs(pieces) for K, pieces in dest.items()}
            for key, dest in acc.items()})


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
    uses; a scalar system's is the stem alone."""
    used = set(sys.indep) | set(sys.dep)
    for eq in sys.equations:
        for a in eq.atoms():
            if isinstance(a, JetVar):
                used.add(a.dep)
            elif isinstance(a, OpaqueDeriv):
                used.add(a.func)
        used.update(p.name for p in eq.parameters())
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


def linearize_table(sys: PdeSystem) -> DiffOperator:
    """The linearization sum_J dE^a/du^r_J * D_J, its coefficients read
    off one `jet_gradient` per equation and split by dependent variable.
    Built once per system."""
    def build():
        column = {d: r for r, d in enumerate(sys.dep)}
        raw: dict[tuple[int, int], dict[MultiIndex, Expr]] = {}
        for a, eq in enumerate(sys.equations):
            for atom, c in jet_gradient(eq).items():
                if atom.__class__ is JetVar and atom.dep in column:
                    raw.setdefault((a, column[atom.dep]), {})[atom.index] = c
        return DiffOperator.build(len(sys.equations), len(sys.dep), raw)
    return sys.memo("linearize_table", build)


def linearize(sys: PdeSystem, eta) -> list[Expr]:
    """Linearization applied to a characteristic; expressions are not
    reduced on solutions (reduction is the caller's choice)."""
    ch = _as_characteristic(eta, len(sys.dep))
    return linearize_table(sys).apply(list(ch))


def adjoint_linearize(sys: PdeSystem, omega) -> list[Expr]:
    """Adjoint linearization applied to a characteristic.

    The expressions follow the defining alternating-sign sum
    sum_J (-1)^|J| D_J(omega * dE/du_J), evaluated nested by
    `alternating_sum` over the pieces of every equation at once, so each
    index costs one total derivative.  `linearize_table(sys).adjoint()`,
    the formal adjoint in Leibniz normal form, is an independent code path
    the expressions are checked against in tests.
    """
    ch = _as_characteristic(omega, len(sys.dep))
    table = linearize_table(sys)
    return [alternating_sum((J, ch.components[r] * c)
                            for r in range(len(sys.equations))
                            for J, c in table.entries.get((r, a), {}).items())
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

    Compares the linearization table with its formal adjoint entry by
    entry; a variational system admits a Lagrangian and its adjoint
    symmetries are symmetries.
    """
    direct = linearize_table(sys)
    adj = direct.adjoint()
    m = len(sys.dep)
    for a in range(len(sys.equations)):
        for r in range(m):
            js = set(direct.entries.get((a, r), {})) | set(adj.entries.get((a, r), {}))
            for J in sorted(js):
                diff = sys.reduce(adj.entry(a, r, J) - direct.entry(a, r, J))
                if not diff.is_zero:
                    return VariationalVerdict(False, (a, r, J, diff))
    return VariationalVerdict(True)
