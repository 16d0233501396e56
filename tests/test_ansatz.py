"""Undetermined-coefficient solver: row construction, exact nullspaces,
side conditions, determinism."""

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conslaw_kit import ansatz
from conslaw_kit.ansatz import (TARGETS, AnsatzProblem, LinearSolveResult,
                                NullspaceVector, Row, _normalize_vector,
                                _nullspace, build_and_split, solve_ansatz,
                                solve_linear)
from conslaw_kit.cancel import checkpoint, deadline
from conslaw_kit.determining import adjoint_symmetry_residual
from conslaw_kit.dsl import load_session, parse_expression, run_session_command
from conslaw_kit.expr import (Expr, IndependentVar, OpaqueDeriv, Parameter,
                              atom_expr, exp_of)
from conslaw_kit.expr.atoms import mono, mono_div, mono_lcm
from conslaw_kit.expr.coeff import (Poly, coeff_value, common_content,
                                    term_coeff)
from conslaw_kit.expr.errors import AnsatzError, CancelledComputation
from conslaw_kit.expr.expression import jet, sum_exprs
from conslaw_kit.expr.printer import poly_text
from conslaw_kit.jet import solve_leading

from conftest import Syms as S

A = Parameter("alpha", nonzero=True)
B = Parameter("beta", nonzero=True)
G = Parameter("gamma", nonzero=True)


def thomas_basis(theta):
    e2 = exp_of(2 * theta)
    return (e2, e2 * S.t * S.ut, e2 * S.ut, e2 * S.x * S.ux, e2 * S.ux,
            e2 * S.x, e2 * S.t, Expr.const(1))


class TestBuildAndSplit:
    def test_rows_are_linear_homogeneous(self, wave):
        p = AnsatzProblem(wave, "adjoint-symmetry",
                          (S.u, S.x * S.ux))
        rows = build_and_split(p)
        assert rows
        for r in rows:
            ks = [k for k, _ in r.entries]
            assert ks and ks == sorted(set(ks)) and set(ks) <= {0, 1}
            assert not any(c.is_zero for _, c in r.entries)

    def test_zero_basis_rejected(self, wave):
        with pytest.raises(AnsatzError, match="zero basis"):
            AnsatzProblem(wave, "adjoint-symmetry",
                          (Expr.zero(),))

    def test_unknown_target_rejected(self, wave):
        with pytest.raises(AnsatzError, match="unknown target"):
            AnsatzProblem(wave, "cosymmetry", (S.u,))

    def test_empty_basis_rejected(self, wave):
        with pytest.raises(AnsatzError, match="empty"):
            AnsatzProblem(wave, "symmetry", ())

    def test_fresh_unknown_names_skip_taken(self, thomas, thomas_theta):
        c2 = exp_of(2 * thomas_theta)
        basis = (c2 * atom_expr(Parameter("c1")), c2 * S.ut)
        p = AnsatzProblem(thomas, "adjoint-symmetry", basis)
        # a taken name moves every unknown to the next stem, cc
        assert [q.name for q in p.unknowns] == ["cc1", "cc2"]
        plain = AnsatzProblem(thomas, "adjoint-symmetry", basis[1:] * 2)
        assert [q.name for q in plain.unknowns] == ["c1", "c2"]


def _over(num: Poly, den) -> Poly:
    """num / den for a monomial den in nonzero parameters."""
    return num * Poly(((tuple((p, -k) for p, k in den), 1),))


def _reference_rows(p: AnsatzProblem) -> list[Row]:
    """The combined path the rows were built by before per-basis
    assembly: the residual of sum c_k * basis_k with the unknowns as
    symbolic parameters, each term's coefficient split by unknown.  Terms
    come in the graded order, (degree, powers) descending, as rows do."""
    comb = tuple(sum_exprs(atom_expr(c) * b[i]
                           for c, b in zip(p.unknowns, p.basis))
                 for i in range(len(p.system.dep)))
    unknown_set = set(p.unknowns)
    rows = []
    for comp_index, res in enumerate(TARGETS[p.target](p.system, comb)):
        for powers, coeff in sorted(
                res.terms, reverse=True,
                key=lambda t: (sum(k for _, k in t[0]), t[0])):
            num, den = coeff.num_den()
            assert not any(q in unknown_set for q, _ in den)
            per_unknown = {}
            for monomial, q in num.terms:
                hits = [(par, k) for par, k in monomial if par in unknown_set]
                assert len(hits) == 1 and hits[0][1] == 1
                par = hits[0][0]
                reduced = tuple((pp, kk) for pp, kk in monomial if pp != par)
                per_unknown.setdefault(par, {})[reduced] = q
            entries = tuple(
                (k, _over(Poly(tuple(per_unknown[c].items())), den))
                for k, c in enumerate(p.unknowns) if c in per_unknown)
            rows.append(Row(powers, comp_index, entries))
    return rows


def _two_component():
    """u_t = w_x + u u_x, w_t = u_x."""
    return solve_leading(["t", "x"], ["u", "w"],
                         [S.ut - jet("w", "x") - S.u * S.ux,
                          jet("w", "t") - S.ux],
                         eq_names=["eqU", "eqW"])


@pytest.fixture(scope="module")
def linearity_cases(wave, thomas_f, thomas_theta):
    """(system, basis pool): wave; Thomas with its parameters,
    exponentials and the rule on f; a two-component system."""
    f = atom_expr(OpaqueDeriv("f", (IndependentVar("x"), IndependentVar("t"))))
    fx = atom_expr(OpaqueDeriv("f", (IndependentVar("x"), IndependentVar("t")),
                               (1, 0)))
    e2 = exp_of(2 * thomas_theta)
    w, wx = jet("w"), jet("w", "x")
    zero = Expr.zero()
    return {
        "wave": (wave, [
            S.u, S.ux, S.ut, S.x * S.ux, S.t * S.ut, S.u * S.ux, S.x,
            Expr.const(1)]),
        "thomas": (thomas_f, [
            *thomas_basis(thomas_theta), f * exp_of(-S.gamma * S.u),
            e2 * fx, S.alpha * S.ux + S.beta * S.ut]),
        "two-component": (_two_component(), [
            (S.u, zero), (zero, w), (S.ux, wx), (w, S.u), (S.x * S.ux, zero),
            (zero, S.t * wx), (Expr.const(1), zero), (S.u * S.ux, S.u * wx)]),
    }


class TestRowsByLinearity:
    @pytest.mark.parametrize("target", sorted(TARGETS))
    @pytest.mark.parametrize("system", ("wave", "thomas", "two-component"))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_matches_combined_path(self, linearity_cases, system, target,
                                   data):
        """Rows from per-basis residuals equal, in key, component, entries
        and order, those split out of the one combined residual."""
        sys, pool = linearity_cases[system]
        picks = data.draw(st.lists(st.sampled_from(range(len(pool))),
                                   min_size=1, max_size=5, unique=True))
        p = AnsatzProblem(sys, target, tuple(pool[i] for i in picks))
        assert build_and_split(p) == _reference_rows(p)


class TestWaveAnsatz:
    def test_scaling_direction(self, wave):
        p = AnsatzProblem(wave, "adjoint-symmetry",
                          (S.u, S.x * S.ux))
        res = solve_ansatz(p)
        assert res.dimension == 1
        assert [str(e) for e in res.vectors[0].entry_exprs()] == ["1", "-1"]
        assert not res.side_conditions

    def test_multiplier_target(self, wave):
        p = AnsatzProblem(wave, "multiplier",
                          (S.ut, S.ux, S.u - S.x * S.ux))
        res = solve_ansatz(p)
        # scaling fails the multiplier conditions; u_t and u_x survive
        assert res.dimension == 2
        for v in res.vectors:
            assert v.numerators[2].is_zero


class TestThomasFamily:
    def test_dimension_exactly_four(self, thomas, thomas_theta):
        p = AnsatzProblem(thomas, "adjoint-symmetry",
                          thomas_basis(thomas_theta))
        res = solve_ansatz(p)
        assert res.dimension == 4
        assert not res.side_conditions

    def test_each_vector_annihilates_residual(self, thomas, thomas_theta):
        basis = thomas_basis(thomas_theta)
        p = AnsatzProblem(thomas, "adjoint-symmetry", basis)
        res = solve_ansatz(p)
        for v in res.vectors:
            comp = Expr.zero()
            for entry, b in zip(v.entry_exprs(), basis):
                comp = comp + entry * b
            assert adjoint_symmetry_residual(thomas, comp)[0].is_zero

    def test_paper_family_members_lie_in_nullspace(self, thomas, thomas_theta):
        """Membership check by exact linear solve: each published family
        generator must be a combination of the computed basis."""
        p = AnsatzProblem(thomas, "adjoint-symmetry",
                          thomas_basis(thomas_theta))
        res = solve_ansatz(p)
        one = Poly.one()
        a_over_g = Poly.param(A) / Poly.param(G)
        b_over_g = Poly.param(B) / Poly.param(G)
        family = {
            # c1: e2
            "c1": {0: one},
            # c3: e2*u_t + (alpha/gamma) e2
            "c3": {2: one, 0: a_over_g},
            # c4: e2*u_x + (beta/gamma) e2
            "c4": {4: one, 0: b_over_g},
            # c2: e2*(x u_x - t u_t) + (beta/gamma) e2*x - (alpha/gamma) e2*t
            "c2": {3: one, 1: -one, 5: b_over_g, 6: -a_over_g},
        }
        for name, target in family.items():
            assert _in_span(res, target), f"family member {name} not in span"

    def test_determinism_bit_for_bit(self, thomas, thomas_theta):
        basis = thomas_basis(thomas_theta)
        p = AnsatzProblem(thomas, "adjoint-symmetry", basis)
        r1 = solve_ansatz(p)
        r2 = solve_ansatz(AnsatzProblem(thomas, "adjoint-symmetry", basis))
        assert r1.vectors == r2.vectors
        assert r1.side_conditions == r2.side_conditions


def _sparse(entries) -> tuple[tuple[int, Poly], ...]:
    """The (k, entry) pairs of a dense entry list, zeros dropped."""
    return tuple((k, c) for k, c in enumerate(entries) if not c.is_zero)


def _in_span(res: LinearSolveResult, target: dict[int, Poly]) -> bool:
    """Is the target coefficient vector a combination of res.vectors?
    Solved as a homogeneous system in (lambda_1..lambda_r, mu) and
    checking for a nullspace vector with mu != 0."""
    n = len(res.unknowns)
    unknowns = tuple(Parameter(f"q{i}") for i in range(len(res.vectors))) + (
        Parameter("mu"),)
    rows = []
    for k in range(n):
        entries = [v.numerators[k] for v in res.vectors]
        entries.append(-(target.get(k, Poly.zero())))
        rows.append(Row((), k, _sparse(entries)))
    sol = solve_linear(rows, unknowns)
    return any(not v.numerators[-1].is_zero for v in sol.vectors)


fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def rational_matrices(draw):
    """Small rational matrices, padded with zero rows, copies of rows and
    combinations of two rows (so rank-deficient as well as full-rank)."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.just(Fraction(0)), fractions)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=6))
    extra = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("zero", "copy", "combination")))
        if kind == "zero" or not rows:
            extra.append([Fraction(0)] * n)
        elif kind == "copy":
            extra.append(list(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s = draw(fractions)
            extra.append([x + s * y for x, y in zip(a, b)])
    return n, draw(st.permutations(rows + extra))


P = Parameter("a")
DENOMINATORS = (mono(), mono((A, 1)), mono((B, 1)), mono((A, 1), (B, 1)))
MONOMIALS = (*DENOMINATORS, mono((P, 1)), mono((A, 2)), mono((A, 1), (P, 1)))


@st.composite
def dense_coeff_rows(draw):
    """Dense rows of coefficients, every one rational or with parameters in
    numerators and nonzero-flagged parameter denominators, padded with
    zero rows, copies of rows and copies scaled by a nonzero coefficient
    (which may carry a denominator)."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        cell = st.builds(Poly.const, fractions)
    else:
        cell = st.builds(
            lambda terms, den: _over(Poly(tuple(terms)), den),
            st.lists(st.tuples(st.sampled_from(MONOMIALS), fractions),
                     max_size=2),
            st.sampled_from(DENOMINATORS))
    entry = st.one_of(st.just(Poly.zero()), cell)
    scalar = st.one_of(
        st.builds(lambda q, den: _over(Poly.const(q), den),
                  fractions.filter(bool), st.sampled_from(DENOMINATORS)),
        st.sampled_from((Poly.param(A), Poly.param(P))))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=5))
    extra = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("zero", "copy", "scaled")))
        if kind == "zero" or not rows:
            extra.append([Poly.zero()] * n)
        elif kind == "copy":
            extra.append(list(draw(st.sampled_from(rows))))
        else:
            s = draw(scalar)
            extra.append([c * s for c in draw(st.sampled_from(rows))])
    mixed = draw(st.permutations(rows + extra))
    return n, [Row((), i, tuple(r)) for i, r in enumerate(mixed)]


def _rational_nullspace(rows, n) -> list[NullspaceVector]:
    """The solver's sparse Gauss-Jordan elimination over Q, from before it
    ran over `Poly`, kept as a reference: rational rows {column: nonzero
    entry}, rewritten in place."""
    reduced = {}
    for col in range(n):
        i = next((i for i, row in enumerate(rows) if col in row), None)
        if i is None:
            continue
        pivot = rows.pop(i)
        inv = coeff_value(Fraction(1, pivot[col]))
        pivot = {j: q * inv for j, q in pivot.items()}
        for row in (*rows, *reduced.values()):
            factor = row.get(col)
            if factor is None:
                continue
            for j, q in pivot.items():
                v = row.get(j, 0) - factor * q
                if v:
                    row[j] = v
                else:
                    del row[j]
        reduced[col] = pivot
    vectors = []
    for fc in range(n):
        if fc in reduced:
            continue
        entries = [0] * n
        entries[fc] = 1
        for pc, pivot in reduced.items():
            entries[pc] = -pivot.get(fc, 0)
        vectors.append(_normalize_vector([Poly.const(q) for q in entries]))
    return vectors


UNITS = (mono((A, 1)), mono((A, -1)), mono((B, -1)), mono((A, 1), (B, -1)))


@st.composite
def mixed_rows(draw, columns):
    """Rows whose entries mix rationals, monomials in the nonzero
    parameters (negative exponents included), a generic parameter and
    binomials, padded with zero rows, copies of rows and combinations of
    two rows by a unit (so rank-deficient as well as full-rank)."""
    n = draw(st.integers(1, columns))
    q = fractions.filter(bool)
    rational = st.builds(Poly.const, q)
    unit = st.builds(lambda m, c: Poly(((m, c),)), st.sampled_from(UNITS), q)
    generic = st.builds(lambda c: Poly.param(P).scale(c), q)
    binomial = st.builds(Poly.__add__, st.one_of(rational, unit, generic),
                         unit)
    entry = st.one_of(st.just(Poly.zero()), rational, unit, generic,
                      binomial)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         max_size=columns + 1))
    extra = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("zero", "copy", "combination")))
        if kind == "zero" or not rows:
            extra.append([Poly.zero()] * n)
        elif kind == "copy":
            extra.append(list(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s = draw(unit)
            extra.append([x + s * y for x, y in zip(a, b)])
    mixed = draw(st.permutations(rows + extra))
    return n, [Row((), i, _sparse(r)) for i, r in enumerate(mixed)]


def _dense_solve_linear(rows, unknowns) -> LinearSolveResult:
    """The solver as it was with dense rows, kept as a reference: each
    row holds one coefficient per unknown, zeros included."""
    n = len(unknowns)
    mat, seen, kept_rows = [], set(), []
    for row in rows:
        den = ()
        split = [c.num_den() for c in row.entries]
        for _, d in split:
            den = mono_lcm(den, d)
        polys = [n.mul_mono(mono_div(den, d)) for n, d in split]
        content = common_content(polys)
        if content not in (0, 1):
            polys = [p.scale(1 / content) for p in polys]
        key = tuple(p.terms for p in polys)
        if all(p.is_zero for p in polys) or key in seen:
            continue
        seen.add(key)
        mat.append(polys)
        kept_rows.append(row)
    if not any(isinstance(term_coeff(p), Poly)
               for polys in mat for p in polys):
        vectors, side = _rational_nullspace(
            [{j: term_coeff(p) for j, p in enumerate(polys)
              if not p.is_zero} for polys in mat], n), []
    else:
        vectors, side = reference_bareiss_nullspace(mat, n)
    return LinearSolveResult(tuple(vectors), tuple(side), tuple(kept_rows),
                             tuple(unknowns))


def reference_bareiss_nullspace(mat: list[list[Poly]], n: int
                                ) -> tuple[list[NullspaceVector], list[str]]:
    """The solver's fraction-free Gauss-Jordan elimination over dense rows
    (Bareiss 1968; Nakos, Turner and Williams 1997), from before it took
    its steps on the sparse rows, kept as a reference: the nullspace with
    the side conditions of the generic branch; rewrites `mat` in place.
    Pivots are Bareiss's, and every other row, above the pivot too,
    becomes (pivot * row - f * pivot row) / previous pivot, exactly.  Each
    pivot row then holds the last pivot p in its pivot column and zero in
    the others: the vector of a free column fc is p there and -row[fc] at
    each row's pivot column.  A pivot equal to one already recorded, or to
    its negation, states no new condition and is not recorded again; a
    multiple of one is."""
    side: list[str] = []
    recorded: set[Poly] = set()
    pivot_cols: list[int] = []
    prev = Poly.one()
    for col in range(n):
        r = len(pivot_cols)
        i = next((i for i in range(r, len(mat)) if not mat[i][col].is_zero),
                 None)
        if i is None:
            continue
        mat[r], mat[i] = mat[i], mat[r]
        pivot_row = mat[r]
        pivot = pivot_row[col]
        unit = pivot.as_unit()
        if ((unit is None or any(not p.nonzero for p, _ in unit[1]))
                and pivot not in recorded and -pivot not in recorded):
            recorded.add(pivot)
            side.append(poly_text(pivot))
        for i, row in enumerate(mat):
            if i != r:
                checkpoint()
                f = row[col]
                mat[i] = [(pivot * x - f * y).exact_div(prev)
                          for x, y in zip(row, pivot_row)]
        prev = pivot
        pivot_cols.append(col)

    vectors = []
    for fc in range(n):
        if fc not in pivot_cols:
            entries = [Poly.zero()] * n
            entries[fc] = prev
            for row, pc in zip(mat, pivot_cols):
                entries[pc] = -row[fc]
            vectors.append(_normalize_vector(entries))
    return vectors, side


def _bareiss_reference(mat, n):
    """The solver's Bareiss elimination from before it was fraction-free
    Gauss-Jordan, kept as a reference: elimination below the pivots only,
    then back-substitution over the fraction field and denominators
    cleared by `Poly.exact_div`.  Rewrites `mat` in place.  Returns the
    vectors and every pivot that is not a unit, repeats included."""
    side = []
    pivot_cols = []
    prev_pivot = Poly.one()
    r = 0
    for col in range(n):
        pivot_row = next((i for i in range(r, len(mat))
                          if not mat[i][col].is_zero), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        pivot = mat[r][col]
        unit = pivot.as_unit()
        if unit is None or any(not p.nonzero for p, _ in unit[1]):
            side.append(pivot)
        for i in range(r + 1, len(mat)):
            factor = mat[i][col]
            mat[i] = [(pivot * mat[i][j] - factor * mat[r][j])
                      .exact_div(prev_pivot) for j in range(n)]
        prev_pivot = pivot
        pivot_cols.append(col)
        r += 1
        if r == len(mat):
            break
    vectors = []
    for fc in range(n):
        if fc in pivot_cols:
            continue
        num, den = {fc: Poly.one()}, {fc: Poly.one()}
        for idx in range(len(pivot_cols) - 1, -1, -1):
            pc = pivot_cols[idx]
            acc_n, acc_d = Poly.zero(), Poly.one()
            for c in range(pc + 1, n):
                if c in num and not mat[idx][c].is_zero:
                    acc_n = acc_n * den[c] + mat[idx][c] * num[c] * acc_d
                    acc_d = acc_d * den[c]
            num[pc] = -acc_n
            den[pc] = acc_d * mat[idx][pc]
        common = Poly.one()
        for c in sorted(den):
            common = common * den[c]
        cleared = [Poly.zero()] * n
        for c in num:
            cleared[c] = num[c] * common.exact_div(den[c])
        vectors.append(_normalize_vector(cleared))
    return vectors, side


def _stated_once(pivots):
    """The side conditions of the pivots, printed: a pivot equal to an
    earlier one, or to its negation, states nothing new."""
    return [poly_text(p) for i, p in enumerate(pivots)
            if p not in pivots[:i] and -p not in pivots[:i]]


def _cleared_dense(rows, n) -> list[list[Poly]]:
    """The rows' entries cleared as `solve_linear` clears them, with the
    zeros filled in."""
    dense = []
    for r in rows:
        full = [Poly.zero()] * n
        cleared = ansatz._cleared([c for _, c in r.entries])
        for (k, _), p in zip(r.entries, cleared):
            full[k] = p
        dense.append(full)
    return dense


def _proportional(v, w) -> bool:
    """Is every 2x2 cross product v_i w_j - v_j w_i zero?"""
    return all((v[i] * w[j] - v[j] * w[i]).is_zero
               for i, j in itertools.combinations(range(len(v)), 2))


def _four_by_five_rows() -> list[Row]:
    """Rows whose back-substituted vector has entries of 1155-1446 terms."""
    a, b = Parameter("a", nonzero=True), Parameter("b", nonzero=True)
    pa, pc = Poly.param(a), Poly.param(Parameter("c"))
    k = Poly.const
    cells = [{0: k(3), 1: -pa, 2: k(3) * Poly.param(b, -1), 4: k(2) * pc},
             {0: Poly.one() + pa, 1: k(-3), 2: pa, 3: pa},
             {0: k(2) * pc, 1: -pa},
             {0: k(2), 3: pa.scale(Fraction(-1, 3))}]
    return [Row((), i, tuple(r.items())) for i, r in enumerate(cells)]


def _generic_seven_by_nine_rows() -> list[Row]:
    """Seven rows in nine unknowns over four generic parameters, none of
    them declared nonzero: five of the seven pivots are side conditions,
    and the minors grow until the solve takes about eight seconds."""
    a, b, c, d = (Poly.param(Parameter(name)) for name in "abcd")
    k = Poly.const
    cells = [{0: k(1), 1: b + d.scale(2), 2: a.scale(4), 3: b.scale(3) + c,
              4: k(2), 5: b.scale(2) + d, 6: k(2), 7: k(3),
              8: a.scale(3) + d},
             {1: k(3), 2: a.scale(3), 3: d, 4: d.scale(4), 5: c + d,
              8: k(1)},
             {0: k(-1), 1: c + d.scale(2), 2: c + d.scale(3),
              3: a.scale(2) + b, 4: b, 5: a, 6: k(2), 7: a.scale(2) + c},
             {0: c + d, 2: b + c, 3: a + d, 4: a + c.scale(2),
              5: b.scale(3) + c, 7: a},
             {1: a + d, 2: c, 3: k(2), 5: c, 6: b, 7: d.scale(3),
              8: a + c.scale(3)},
             {0: b + d.scale(2), 1: c, 2: c + d, 3: c + d, 4: b + c,
              5: c.scale(4), 6: c + d.scale(3), 8: a.scale(4)},
             {0: c, 1: c.scale(4), 2: k(-1), 3: k(-1), 4: c, 5: d,
              8: b.scale(3)}]
    return [Row((), i, tuple(r.items())) for i, r in enumerate(cells)]


class TestSolveLinear:
    def test_single_relation(self):
        c = (Parameter("c1"), Parameter("c2"))
        rows = [Row((), 0, ((0, Poly.one()), (1, Poly.one())))]
        res = solve_linear(rows, c)
        assert res.dimension == 1
        assert [poly_text(p) for p in res.vectors[0].numerators] == ["1", "-1"]

    def test_nonzero_parameter_pivot_no_side_condition(self):
        c = (Parameter("c1"),)
        rows = [Row((), 0, ((0, Poly.param(G)),))]
        res = solve_linear(rows, c)
        assert res.dimension == 0
        assert not res.side_conditions

    def test_generic_pivot_records_side_condition(self):
        c1, c2 = Parameter("c1"), Parameter("c2")
        pivot = Poly.param(A) + Poly.param(B)
        rows = [Row((), 0, ((0, pivot), (1, Poly.one())))]
        res = solve_linear(rows, (c1, c2))
        assert res.dimension == 1
        assert res.side_conditions == ("alpha + beta",)
        vec = res.vectors[0]
        assert [poly_text(p) for p in vec.numerators] == ["1", "-alpha - beta"]
        assert vec.denominator == Poly.const(1)

    def test_non_unit_leading_entry_keeps_exact_denominator(self):
        # c1 + (alpha+beta) c2 = 0: the c2-direction clears to
        # (alpha+beta, -1) with denominator alpha+beta, so the first
        # nonzero entry is exactly 1 as a rational function.
        c1, c2 = Parameter("c1"), Parameter("c2")
        rows = [Row((), 0, ((0, Poly.one()),
                            (1, Poly.param(A) + Poly.param(B))))]
        res = solve_linear(rows, (c1, c2))
        assert res.dimension == 1
        vec = res.vectors[0]
        assert vec.denominator == Poly.param(A) + Poly.param(B)
        assert vec.numerators[0] == vec.denominator
        # cleared representative used when the denominator is not a unit
        assert [str(e) for e in vec.entry_exprs()] == \
            ["(alpha + beta)", "-1"]

    @pytest.mark.parametrize("a, b", [(2, 3), (3, 7)])
    def test_non_unit_integer_pivot_is_exact(self, a, b):
        # rows a*c1 + b*c2 and c3: the pivot's inverse is Fraction(1, a),
        # where `1 / a` on the int entries would be a float (1/3 inexact)
        (vec,), side = _nullspace(
            [{0: Poly.const(a), 1: Poly.const(b)}, {2: Poly.one()}], 3)
        assert side == []
        assert [term_coeff(p) for p in vec.numerators] == [b, -a, 0]
        assert vec.denominator == Poly.const(b)
        c = tuple(Parameter(f"c{i}") for i in (1, 2, 3))
        rows = [Row((), 0, ((0, Poly.const(a)), (1, Poly.const(b)))),
                Row((), 1, ((2, Poly.one()),))]
        res = solve_linear(rows, c)
        assert res.dimension == 1 and res.vectors[0] == vec
        q = [e.as_rational() for e in vec.entry_exprs()]
        assert q == [1, Fraction(-a, b), 0]
        assert Fraction(q[0]) / q[1] == Fraction(-b, a)
        for p in vec.numerators + tuple(
                e.as_coeff() for e in vec.entry_exprs()):
            assert all(type(v) is int or type(v) is Fraction
                       and v.denominator != 1 for _, v in p.terms)

    def test_entry_exprs_lets_other_errors_through(self, monkeypatch):
        """Only ExprError (not a unit) selects the cleared representative."""
        def fail(self):
            raise RuntimeError("not an ExprError")
        monkeypatch.setattr(Poly, "invert_unit", fail)
        vec = NullspaceVector((Poly.const(1),), Poly.const(1))
        with pytest.raises(RuntimeError, match="not an ExprError"):
            vec.entry_exprs()

    def test_no_rows_full_space(self):
        c = (Parameter("c1"), Parameter("c2"))
        res = solve_linear([], c)
        assert res.dimension == 2

    def test_duplicate_rows_collapse(self):
        c = (Parameter("c1"), Parameter("c2"))
        row = Row((), 0, ((0, Poly.one()), (1, -Poly.one())))
        res = solve_linear([row, row, row], c)
        assert res.dimension == 1

    def test_undeclared_parameter_pivot_records_side_condition(self):
        # a*c1 + c2 = 0 with `a` not declared nonzero: the basis vector
        # (1, -a) assumes a != 0, so that must be reported.
        a = Parameter("a")
        c1, c2 = Parameter("c1"), Parameter("c2")
        rows = [Row((), 0, ((0, Poly.param(a)), (1, Poly.const(1))))]
        res = solve_linear(rows, (c1, c2))
        assert res.side_conditions == ("a",)
        assert [poly_text(p) for p in res.vectors[0].numerators] == ["1", "-a"]

    def test_side_conditions_reparse_to_their_pivots(self, monkeypatch):
        pivots = []

        def recording(p):
            pivots.append(p)
            return poly_text(p)
        monkeypatch.setattr(ansatz, "poly_text", recording)
        session = load_session(
            "indep t x;\ndep u;\nparam a b;\n"
            "eq e: D[u,t] = D[u,x,x] + a*u;\n"
            "char b1 = (a - b)*x;\nchar b2 = u;\nchar b3 = b*x*u;\n"
            "cmd ansatz symmetry b1 b2 b3;\n")
        rep = run_session_command(session, session.commands[0])
        assert rep.side_conditions == ["a*b - a^2", "-a*b^2 + a^2*b"]
        assert len(pivots) == 2
        for text, pivot in zip(rep.side_conditions, pivots):
            assert parse_expression(text, session) == \
                Expr.from_coeff(pivot)

    @settings(max_examples=200, deadline=None)
    @given(rational_matrices())
    def test_rational_path_matches_bareiss(self, case):
        n, mat = case
        vectors, side = reference_bareiss_nullspace(
            [[Poly.const(q) for q in row] for row in mat], n)
        assert side == []
        assert _rational_nullspace(
            [{j: q for j, q in enumerate(row) if q} for row in mat],
            n) == vectors

    @settings(max_examples=200, deadline=None)
    @given(dense_coeff_rows())
    def test_sparse_rows_match_dense_solver(self, case):
        """Same vectors, side conditions and kept rows as the dense
        solver, on the same rows in sparse form."""
        n, dense = case
        unknowns = tuple(Parameter(f"c{k}") for k in range(1, n + 1))
        ref = _dense_solve_linear(dense, unknowns)
        res = solve_linear(
            [Row(r.key, r.component, _sparse(r.entries)) for r in dense],
            unknowns)
        assert res.vectors == ref.vectors
        assert res.side_conditions == ref.side_conditions
        assert res.rows == tuple(Row(r.key, r.component, _sparse(r.entries))
                                 for r in ref.rows)

    @settings(max_examples=200, deadline=None)
    @given(mixed_rows(6))
    # swapping the third row into place moves the first one last, so
    # Bareiss takes the pivot 1 + a in column 1 though the unit 1 is there
    @example((4, [Row((), 0, ((1, Poly.one()),)),
                  Row((), 1, ((1, Poly.param(P) + Poly.one()),
                              (3, Poly.one()))),
                  Row((), 2, ((0, Poly.one()),))]))
    # the unit steps pivot on alpha, then on -1/alpha, before the pivot
    # 1 + a sends the elimination back to the cleared rows
    @example((4, [Row((), 0, ((0, Poly.param(A)), (1, Poly.one()))),
                  Row((), 1, ((0, Poly.one()), (2, Poly.one()))),
                  Row((), 2, ((2, Poly.param(P) + Poly.one()),
                              (3, Poly.one())))]))
    def test_unit_pivots_match_forced_bareiss(self, case):
        """Same vectors and side conditions as Bareiss elimination forced
        on the same cleared rows."""
        n, rows = case
        unknowns = tuple(Parameter(f"c{k}") for k in range(1, n + 1))
        res = solve_linear(rows, unknowns)
        vectors, side = reference_bareiss_nullspace(
            _cleared_dense(res.rows, n), n)
        assert res.vectors == tuple(vectors)
        assert res.side_conditions == tuple(side)

    @settings(max_examples=200, deadline=None)
    @given(mixed_rows(3))
    def test_fraction_free_matches_back_substitution(self, case):
        """Each vector annihilates the cleared rows and is proportional to
        the back-substituted one, under the same side conditions."""
        n, rows = case
        dense = _cleared_dense(rows, n)
        vectors, side = reference_bareiss_nullspace(list(map(list, dense)), n)
        ref, ref_side = _bareiss_reference(list(map(list, dense)), n)
        assert side == _stated_once(ref_side) and len(vectors) == len(ref)
        for v, w in zip(vectors, ref):
            for row in dense:
                assert sum((c * x for c, x in zip(row, v.numerators)),
                           Poly.zero()).is_zero
            assert _proportional(v.numerators, w.numerators)

    def test_fraction_free_solves_what_back_substitution_grew(self):
        """The back-substituted vector of these rows has entries of
        1155-1446 terms; fraction-free Gauss-Jordan solves them in
        milliseconds, under the same side conditions, with a proportional
        vector."""
        unknowns = tuple(Parameter(f"c{i}") for i in range(1, 6))
        start = time.monotonic()
        res = solve_linear(_four_by_five_rows(), unknowns)
        assert time.monotonic() - start < 1
        assert res.side_conditions == (
            "a*b + a^2*b - 9*b",
            "-3*a - 3*a^2 + 3*a^2*b - 2*a^2*b*c + 18*c",
            "-18*a*c + 21*a^2 + 3*a^3 - 3*a^3*b + 2*a^3*b*c")
        ref, side = _bareiss_reference(_cleared_dense(res.rows, 5), 5)
        assert res.side_conditions == tuple(_stated_once(side))
        (vec,), (want,) = res.vectors, ref
        assert _proportional(vec.numerators, want.numerators)

    def test_fraction_free_elimination_honours_deadline(self):
        """The generic 7x9 system runs for about eight seconds; a deadline
        stops it within one quotient term of the `Poly.exact_div` it is
        in."""
        unknowns = tuple(Parameter(f"c{i}") for i in range(1, 10))
        start = time.monotonic()
        with deadline(1.0), pytest.raises(CancelledComputation):
            solve_linear(_generic_seven_by_nine_rows(), unknowns)
        assert time.monotonic() - start < 2

    def test_rational_path_honours_deadline(self):
        c = (Parameter("c1"), Parameter("c2"))
        rows = [Row((), 0, ((0, Poly.one()), (1, Poly.const(2))))]
        with deadline(0), pytest.raises(CancelledComputation):
            solve_linear(rows, c)


class TestKdvMultipliersAtScale:
    def test_degree_four_monomial_basis(self):
        """u_t + u u_x + u_xxx = 0 over all 126 monomials of degree <= 4
        in {u, u_x, u_xx, x, t}: the multipliers are spanned by 1, u,
        u^2/2 + u_xx and x - t u."""
        kdv = solve_leading(["t", "x"], ["u"],
                            [S.ut + S.u * S.ux + jet("u", "x", "x", "x")],
                            eq_names=["kdv"])
        gens = (S.u, S.ux, S.uxx, S.x, S.t)
        monomials = [m for d in range(5) for m in
                     itertools.combinations_with_replacement(range(5), d)]
        assert len(monomials) == 126
        basis = []
        for m in monomials:
            e = Expr.const(1)
            for i in m:
                e = e * gens[i]
            basis.append(e)
        res = solve_ansatz(AnsatzProblem(kdv, "multiplier", tuple(basis)))
        assert res.dimension == 4
        assert not res.side_conditions
        at = {m: k for k, m in enumerate(monomials)}
        one = Poly.one()
        u, uxx, x, t = (0,), (2,), (3,), (4,)
        for target in ({at[()]: one}, {at[u]: one},
                       {at[u + u]: Poly.const(Fraction(1, 2)), at[uxx]: one},
                       {at[x]: one, at[u + t]: -one}):
            assert _in_span(res, target)
