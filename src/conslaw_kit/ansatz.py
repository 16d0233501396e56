"""Undetermined-coefficient solving over an exact coefficient field.

Every determining residual is linear in its characteristic, so the
residual of a combination sum c_k * basis_k is sum c_k * residual(basis_k).
Each basis element's residual is computed once; splitting it over jet
monomials and free coordinates gives column k of a homogeneous linear
system for the unknown constants.  Its sparse rows (nonzero entries only)
are solved by Gauss-Jordan steps over the Laurent polynomials in the
parameters while every pivot is a unit, and otherwise by fraction-free
steps on the same rows, with side conditions.  Every nullspace vector is
substituted back into the combined residual, which must vanish.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Sequence

from .cancel import checkpoint
from .determining import (adjoint_symmetry_residual,
                          differential_substitution_residual,
                          multiplier_residual, symmetry_residual)
from .expr.atoms import Parameter, mono_div, mono_gcd, mono_lcm
from .expr.coeff import Poly, as_poly, common_content
from .expr.errors import AnsatzError, ExprError
from .expr.expression import Expr, Powers, graded_key, sum_exprs
from .expr.printer import poly_text
from .jet import PdeSystem
from .record import Record
from .variational import _as_characteristic, _fresh_stem_names

__all__ = [
    "TARGETS", "AnsatzProblem", "Row", "NullspaceVector",
    "LinearSolveResult", "build_and_split", "solve_linear", "solve_ansatz",
]

TARGETS: dict[str, Callable] = {
    "symmetry": symmetry_residual,
    "adjoint-symmetry": adjoint_symmetry_residual,
    "multiplier": multiplier_residual,
    "differential-substitution": differential_substitution_residual,
}


class AnsatzProblem(Record):
    """Find all c with residual(sum c_k * basis_k) = 0.

    Basis entries are characteristics, one expression per dependent
    variable (a single expression for a scalar system); `basis` holds
    them as tuples.  The rows come from the residual of each basis
    element, by linearity; the unknowns c1..cN, fresh parameter names,
    only label the solution and never enter an expression.  Parameters
    are treated generically: a coefficient vanishes only if it is
    identically zero as a rational function.  For the symmetry targets a
    basis element that vanishes on solutions is rejected: it would be a
    trivial direction.
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
        taken = {p.name for e in itertools.chain(self.system.equations,
                                                 *self.basis)
                 for p in e.parameters()}
        return tuple(map(Parameter, _fresh_stem_names(
            "c", len(self.basis), taken)))


def _combine(p: AnsatzProblem, coeffs: Sequence[Expr]) -> tuple[Expr, ...]:
    """sum_k coeffs[k] * basis[k], component by component."""
    return tuple(sum_exprs(c * b[i] for c, b in zip(coeffs, p.basis))
                 for i in range(len(p.system.dep)))


class Row(Record):
    """One linear condition sum c_k * e_k = 0 over the pairs (k, e_k) in
    `entries`, keyed by the jet monomial (and residual component) that
    produced it.  The pairs are sparse: ascending k, nonzero e_k only."""

    __slots__ = ("key", "component", "entries")


def build_and_split(p: AnsatzProblem) -> list[Row]:
    """Rows of residual(sum c_k * basis_k), one per residual component and
    power product: the entry of c_k is that power product's coefficient
    in the residual of basis_k.  Rows come by component, then in the
    graded order (`graded_key`) of their power products."""
    cells: dict[tuple[int, Powers], dict[int, Poly]] = {}
    for k, b in enumerate(p.basis):
        checkpoint()
        for comp, res in enumerate(TARGETS[p.target](p.system, b)):
            for powers, c in res.terms:
                cells.setdefault((comp, powers), {})[k] = as_poly(c)
    order = sorted(cells.items(), reverse=True,
                   key=lambda kv: (-kv[0][0], graded_key(kv[0][1])))
    return [Row(powers, comp, tuple(column.items()))
            for (comp, powers), column in order]


class NullspaceVector(Record):
    """Exact solution vector: entry k is numerators[k] / denominator.

    The denominator equals the first nonzero numerator, so the first
    nonzero entry is exactly 1; the cleared polynomial form (the
    numerators) is what gets substituted back for verification.
    """

    __slots__ = ("numerators", "denominator")

    def entry_exprs(self) -> tuple[Expr, ...]:
        """Entries as expressions when the denominator is an invertible
        constant; otherwise the cleared representative (a harmless overall
        scale for homogeneous problems)."""
        try:
            inv = self.denominator.invert_unit()
        except ExprError:
            return tuple(Expr.from_coeff(n) for n in self.numerators)
        return tuple(Expr.from_coeff(n * inv) for n in self.numerators)


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
    content = common_content(polys)
    if content not in (0, 1):
        inv = 1 / content
        polys = [p.scale(inv) for p in polys]
    return polys


def solve_linear(rows: Sequence[Row], unknowns: Sequence[Parameter]
                 ) -> LinearSolveResult:
    """Exact nullspace of the rows over the parameters' rational functions.

    Rows are cleared of denominators and deduplicated, then eliminated by
    sparse Gauss-Jordan steps over `Poly` while every pivot is a unit (a
    rational times a monomial in nonzero-declared parameters).  From the
    first pivot that is not, fraction-free steps solve the cleared rows
    again and record each such pivot as a side condition (the generic
    branch is taken).  The returned basis is deterministic, normalized so
    each vector's first nonzero entry is 1.
    """
    n = len(unknowns)
    mat: list[dict[int, Poly]] = []
    seen: set[tuple] = set()
    kept_rows: list[Row] = []
    for row in rows:
        if not row.entries:
            continue
        ks, polys = zip(*row.entries)
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
               ) -> tuple[list[NullspaceVector], list[str]]:
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


def _normalize_vector(entries: list[Poly]) -> NullspaceVector:
    """Clear the denominators, divide out the rational and monomial
    content and make the leading term of the first nonzero entry
    positive; that entry is the denominator."""
    cleared = _cleared(entries)
    nonzero = [p for p in cleared if not p.is_zero]
    mono_common = nonzero[0].mono_content()
    for p in nonzero[1:]:
        mono_common = mono_gcd(mono_common, p.mono_content())
    if mono_common:
        cleared = [p.div_mono(mono_common) for p in cleared]
    first = next(p for p in cleared if not p.is_zero)
    if first.leading()[1] < 0:
        cleared = [-p for p in cleared]
        first = -first
    return NullspaceVector(tuple(cleared), first)


def solve_ansatz(p: AnsatzProblem) -> LinearSolveResult:
    """build_and_split + solve_linear + automatic soundness check."""
    rows = build_and_split(p)
    result = solve_linear(rows, p.unknowns)
    for vec in result.vectors:
        _check_solution(p, vec)
    return result


def _check_solution(p: AnsatzProblem, vec: NullspaceVector) -> None:
    comb = _combine(p, [Expr.from_coeff(n) for n in vec.numerators])
    if all(c.is_zero for c in comb):
        return
    residual = TARGETS[p.target](p.system, comb)
    if any(not x.is_zero for x in residual):
        raise AnsatzError(
            "internal error: nullspace vector does not annihilate the "
            "residual")
