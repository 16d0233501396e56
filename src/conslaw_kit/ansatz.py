"""Undetermined-coefficient solving over an exact coefficient field.

Every determining residual is linear in its characteristic, so the
residual of a combination sum c_k * basis_k is sum c_k * residual(basis_k).
That residual is computed once, with each unknown c_k entering as an
inert constant tag (an opaque function of no argument, named as c_k):
each of its terms holds exactly one tag, and splitting it by tag, jet
monomial and free coordinate gives a homogeneous linear system for the
unknown constants.  A row is a tuple of its nonzero entries, (k, Poly)
pairs in ascending k.  The rows are solved by Gauss-Jordan steps over
the Laurent polynomials in the parameters while every pivot is a unit,
and otherwise by fraction-free steps on the same rows, with side
conditions.  A nullspace vector is the tuple of its cleared numerators,
one `Poly` per unknown; `entry_exprs` reads it as expressions.  Every
vector is checked apart from the tagged residual: the residual of its
combination, the numerators as the constants c_k, is computed from
scratch and must vanish (a combination that vanishes identically needs
no check).
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

from .cancel import checkpoint
from .determining import TARGETS, _require_nontrivial
from .expr.atoms import (OpaqueDeriv, Parameter, mono_div, mono_gcd,
                         mono_lcm)
from .expr.coeff import Poly, as_poly, primitive
from .expr.errors import AnsatzError, ExprError
from .expr.expression import Expr, Powers, atom_expr, graded_key, sum_exprs
from .expr.printer import poly_text
from .jet import PdeSystem
from .record import Record
from .variational import _as_characteristic, _fresh_names, _names_used

__all__ = [
    "AnsatzProblem", "LinearSolveResult", "build_and_split", "solve_linear",
    "entry_exprs", "solve_ansatz",
]

class AnsatzProblem(Record):
    """Find all c with residual(sum c_k * basis_k) = 0.

    Basis entries are characteristics, one expression per dependent
    variable (a single expression for a scalar system); `basis` holds
    them as tuples.  The rows come from the one residual of sum c_k *
    basis_k, by linearity.  The unknowns c1..cN label the solution and
    name the tags that stand for them in that residual, inert constants
    whose names no parameter, opaque function, rule or dependent
    variable of the system or the basis uses.  Parameters are treated
    generically: a coefficient vanishes only if it is identically zero
    as a rational function.  For the symmetry targets a basis element
    that vanishes on solutions is rejected: it would be a trivial
    direction.
    """

    __slots__ = ("system", "target", "basis")

    def __init__(self, system: PdeSystem, target: str,
                 basis: Sequence) -> None:
        if target not in TARGETS:
            raise AnsatzError(
                f"unknown target {target!r}; expected one of "
                f"{', '.join(sorted(TARGETS))}")
        if not basis:
            raise AnsatzError("empty ansatz basis")
        m = len(system.dep)
        basis = tuple(_as_characteristic(b, m) for b in basis)
        for k, b in enumerate(basis, 1):
            if all(c.is_zero for c in b):
                raise AnsatzError("zero basis expression")
            # the symmetry residuals vanish at such an element, so it
            # would count as a nullspace direction
            if target in ("symmetry", "adjoint-symmetry") and all(
                    system.reduce(c).is_zero for c in b):
                raise AnsatzError(
                    f"basis element {k} vanishes on solutions: a trivial "
                    f"{target} direction")
        super().__init__(system, target, basis)

    @property
    def unknowns(self) -> tuple[Parameter, ...]:
        return tuple(map(Parameter, _fresh_names(
            self.system, "c", len(self.basis),
            _names_used(itertools.chain(*self.basis)))))


def _combine(p: AnsatzProblem, coeffs: Sequence[Expr]) -> tuple[Expr, ...]:
    """sum_k coeffs[k] * basis[k], component by component."""
    return tuple(sum_exprs(c * b[i] for c, b in zip(coeffs, p.basis))
                 for i in range(len(p.system.dep)))


def build_and_split(p: AnsatzProblem, unknowns: Sequence[Parameter]
                    ) -> list[tuple[tuple[int, Poly], ...]]:
    """Rows of residual(sum c_k * basis_k), one per residual component and
    power product: the entry of c_k is that power product's coefficient
    in the residual of basis_k.  Rows come by component, then in the
    graded order (`graded_key`) of their power products.

    The residual is taken once, of sum T_k * basis_k, with T_k an opaque
    function of no argument named as the unknown c_k (`unknowns`, the
    caller's `p.unknowns`): total derivatives and gradients give it no
    entry and no rule or leading derivative rewrites it, so the residual
    is sum T_k * residual(basis_k) and each of its terms holds one T_k,
    to the first power.  A trivial element of a substitution basis is
    rejected first, since the sum is trivial only if all of them are."""
    tags = {OpaqueDeriv(c.name, ()): k for k, c in enumerate(unknowns)}
    if p.target == "differential-substitution":
        for b in p.basis:
            _require_nontrivial(p.system, b)
    comb = _combine(p, [atom_expr(t) for t in tags])
    cells: dict[tuple[int, Powers], dict[int, Poly]] = {}
    for comp, res in enumerate(TARGETS[p.target](p.system, comb)):
        checkpoint()
        for powers, c in res.terms:
            hits = [i for i, (a, _) in enumerate(powers) if a in tags]
            if len(hits) != 1 or powers[hits[0]][1] != 1:
                raise AnsatzError(
                    "internal error: residual not linear in the unknowns")
            i = hits[0]
            cells.setdefault((comp, powers[:i] + powers[i + 1:]), {})[
                tags[powers[i][0]]] = as_poly(c)
    order = sorted(cells.items(), reverse=True,
                   key=lambda kv: (-kv[0][0], graded_key(kv[0][1])))
    return [tuple(sorted(column.items())) for _, column in order]


class LinearSolveResult(Record):
    __slots__ = ("vectors", "side_conditions", "rows", "unknowns")

    @property
    def dimension(self) -> int:
        return len(self.vectors)


def _cleared(polys: Sequence[Poly]) -> Sequence[Poly]:
    """The polys times the least monomial that clears their denominators,
    divided by their rational content: polynomials."""
    split = [p.num_den() for p in polys]
    den = ()
    for _, d in split:
        den = mono_lcm(den, d)
    if den:
        # num is a polynomial, so `mul_mono` keeps its terms in order
        polys = [num.mul_mono(mono_div(den, d)) for num, d in split]
    return primitive(polys)


def solve_linear(rows: Sequence[tuple[tuple[int, Poly], ...]],
                 unknowns: Sequence[Parameter]) -> LinearSolveResult:
    """Exact nullspace of the rows over the parameters' rational functions.

    Each row is its sparse entries, (k, Poly) pairs in ascending k.  Rows
    are cleared of denominators and deduplicated, then eliminated by
    sparse Gauss-Jordan steps over `Poly` while every pivot is a unit (a
    rational times a monomial in nonzero-declared parameters).  From the
    first pivot that is not, fraction-free steps solve the cleared rows
    again and record each such pivot as a side condition (the generic
    branch is taken).  The returned basis is deterministic: each vector
    is its cleared numerators, the first nonzero one with a positive
    leading term.
    """
    n = len(unknowns)
    mat: list[dict[int, Poly]] = []
    seen: set[tuple] = set()
    kept_rows = []
    for row in rows:
        if not row:
            continue
        ks, polys = zip(*row)
        polys = _cleared(polys)
        key = (ks, tuple(p.terms for p in polys))
        if key in seen:
            continue
        seen.add(key)
        mat.append(dict(zip(ks, polys)))
        kept_rows.append(row)

    vectors, side = _nullspace(mat, n)
    return LinearSolveResult(tuple(vectors), tuple(side), tuple(kept_rows),
                             tuple(unknowns))


def _nullspace(rows: list[dict[int, Poly]], n: int
               ) -> tuple[list[tuple[Poly, ...]], list[str]]:
    """Nullspace of the rows {column: nonzero entry} over `Poly`, and the
    side conditions of the generic branch; may rewrite `rows` in place.

    Pivots are Bareiss's: in column order, in the first row at or after
    position r, swapped into place.  A pivot row drops its pivot column,
    which implicitly holds the level.  While every pivot is a unit,
    Gauss-Jordan steps on a copy of the rows scale each pivot to level -1.
    From the first that is not, fraction-free steps (Bareiss 1968) start
    again on `rows`: every other row becomes (pivot * row - f * pivot row)
    / level, exactly, and the pivot is the new level.  A pivot that is not
    a unit is a side condition unless it or its negation is recorded.  A
    free column fc's vector is -level there and row[fc] in each row's
    pivot column."""
    zero = Poly.zero()
    recorded: dict[Poly, str] = {}   # side condition -> its text
    for unit_steps in (True, False):
        work, level = ((list(map(dict, rows)), -Poly.one()) if unit_steps
                       else (rows, Poly.one()))
        pivot_cols: list[int] = []
        for col in range(n):
            checkpoint()
            r = len(pivot_cols)
            i = next((i for i in range(r, len(work)) if col in work[i]), None)
            if i is None:
                continue
            work[i], work[r] = work[r], work[i]
            pivot = work[r].pop(col)
            if unit_steps:
                try:
                    inv = -pivot.invert_unit()
                except ExprError:   # start again, fraction-free
                    break
                # scaled so the pivot is -1: x_col = sum of q_j * x_j
                work[r] = pivot_row = {j: q * inv for j, q in work[r].items()}
                for row in work:
                    f = row.pop(col, None)
                    if f is None:
                        continue
                    for j, q in pivot_row.items():
                        v = row.get(j, zero) + f * q
                        if v.is_zero:
                            del row[j]
                        else:
                            row[j] = v
            else:
                unit = pivot.as_unit()
                if ((unit is None or any(not p.nonzero for p, _ in unit[1]))
                        and pivot not in recorded and -pivot not in recorded):
                    recorded[pivot] = poly_text(pivot)
                pivot_row = work[r]
                for k, row in enumerate(work):
                    if k != r:
                        checkpoint()
                        f = row.pop(col, zero)
                        work[k] = new = {}
                        for j in row.keys() | pivot_row.keys():
                            x, y = row.get(j, zero), pivot_row.get(j, zero)
                            v = (pivot * x - f * y).exact_div(level)
                            if not v.is_zero:
                                new[j] = v
                level = pivot
            pivot_cols.append(col)
        else:
            break

    vectors = []
    for fc in sorted(set(range(n)).difference(pivot_cols)):
        entries = [zero] * n
        entries[fc] = -level
        for row, pc in zip(work, pivot_cols):
            entries[pc] = row.get(fc, zero)
        vectors.append(_normalize_vector(entries))
    return vectors, list(recorded.values())


def _normalize_vector(entries: list[Poly]) -> tuple[Poly, ...]:
    """Clear the denominators, divide out the rational and monomial
    content and make the leading term of the first nonzero entry
    positive."""
    cleared = _cleared(entries)
    nonzero = [p for p in cleared if not p.is_zero]
    mono_common = nonzero[0].mono_content()
    for p in nonzero[1:]:
        mono_common = mono_gcd(mono_common, p.mono_content())
    if mono_common:
        cleared = [p.div_mono(mono_common) for p in cleared]
    if nonzero[0].leading()[1] < 0:
        cleared = [-p for p in cleared]
    return tuple(cleared)


def entry_exprs(vector: Sequence[Poly]) -> tuple[Expr, ...]:
    """A nullspace vector's entries as expressions, divided by its first
    nonzero numerator when that is a unit, so that entry is 1; otherwise
    the cleared numerators (a harmless overall scale for homogeneous
    problems)."""
    try:
        inv = next(p for p in vector if not p.is_zero).invert_unit()
    except ExprError:
        return tuple(map(Expr.from_coeff, vector))
    return tuple(Expr.from_coeff(n * inv) for n in vector)


def solve_ansatz(p: AnsatzProblem) -> LinearSolveResult:
    """build_and_split + solve_linear + automatic soundness check."""
    unknowns = p.unknowns
    result = solve_linear(build_and_split(p, unknowns), unknowns)
    for vec in result.vectors:
        _check_solution(p, vec)
    return result


def _check_solution(p: AnsatzProblem, vec: tuple[Poly, ...]) -> None:
    comb = _combine(p, [Expr.from_coeff(n) for n in vec])
    if all(c.is_zero for c in comb):
        return
    residual = TARGETS[p.target](p.system, comb)
    if any(not x.is_zero for x in residual):
        raise AnsatzError(
            "internal error: nullspace vector does not annihilate the "
            "residual")
