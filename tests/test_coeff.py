"""Exact coefficient field: polynomials over Q and monomial-denominator
rational functions."""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conslaw_kit.expr import ExprError, Parameter
from conslaw_kit.expr.coeff import Coeff, Poly, common_content, mono

A = Parameter("alpha", nonzero=True)
B = Parameter("beta", nonzero=True)
G = Parameter("gamma", nonzero=True)
K = Parameter("kappa")  # not flagged nonzero


def P(*terms):
    return Poly(tuple(terms))


def test_poly_basic_arithmetic():
    p = Poly.param(A) + Poly.const(2)
    q = Poly.param(A) - Poly.const(2)
    assert p * q == Poly.param(A, 2) - Poly.const(4)
    assert (p - p).is_zero
    assert Poly.const(0).is_zero
    assert (p * Poly.zero()).is_zero


def test_poly_exact_div():
    p = Poly.param(A, 2) - Poly.param(B, 2)
    d = Poly.param(A) + Poly.param(B)
    q = p.exact_div(d)
    assert q == Poly.param(A) - Poly.param(B)
    with pytest.raises(ArithmeticError):
        (Poly.param(A) + Poly.const(1)).exact_div(Poly.param(B))


def test_poly_contents():
    p = Poly.param(A, 2).scale(4) + (Poly.param(A) * Poly.param(B)).scale(6)
    assert common_content((p,)) == 2
    assert p.mono_content() == mono((A, 1))


def test_coeff_cancellation_canonical():
    c = Coeff(Poly.param(G, 2), mono((G, 1)))
    assert c == Coeff(Poly.param(G))
    assert Coeff(Poly.zero(), mono((G, 3))) == Coeff.zero()


def test_coeff_add_common_denominator():
    half_a_over_g = Coeff(Poly.param(A).scale(Fraction(1, 2)), mono((G, 1)))
    b = Coeff.param(B)
    s = half_a_over_g + b
    assert s.den == mono((G, 1))
    assert s.num == Poly.param(A).scale(Fraction(1, 2)) + Poly.param(B) * Poly.param(G)
    assert s - b == half_a_over_g


def test_coeff_division_rules():
    c = Coeff.param(A)
    assert c / Coeff.param(G) == Coeff(Poly.param(A), mono((G, 1)))
    assert (c / Coeff.const(2)).num == Poly.param(A).scale(Fraction(1, 2))
    with pytest.raises(ExprError):
        c / Coeff.zero()
    with pytest.raises(ExprError):
        c / Coeff.param(K)  # not declared nonzero
    with pytest.raises(ExprError):
        c / (Coeff.param(A) + Coeff.const(1))  # not a unit


def test_unit_detection():
    assert Coeff.param(A).as_unit() is not None
    assert (Coeff.param(A) + Coeff.const(1)).as_unit() is None
    u = Coeff(Poly.param(A).scale(-2), mono((G, 1)))
    inv = u.invert_unit()
    assert u * inv == Coeff.one()


def reference_mono_cmp(a, b) -> int:
    """The comparator `Poly` used to sort by: total degree, then the
    exponents by parameter over the union of the two monomials (two dicts
    built per comparison).  Parameters order by (name, nonzero flag): keyed
    by the name alone, two parameters sharing a name tied, and equal
    polynomials could hold their terms in different orders."""
    ta, tb = sum(k for _, k in a), sum(k for _, k in b)
    if ta != tb:
        return -1 if ta < tb else 1
    da = dict(((p.name, p.nonzero), k) for p, k in a)
    db = dict(((p.name, p.nonzero), k) for p, k in b)
    for n in sorted(set(da) | set(db)):
        ea, eb = da.get(n, 0), db.get(n, 0)
        if ea != eb:
            return -1 if ea < eb else 1
    return 0


# "alpha" twice, with both nonzero flags: two atoms, one name
ORDER_POOL = (A, B, G, K, Parameter("alpha"), Parameter("a"), Parameter("z"))
monomials = st.lists(st.tuples(st.sampled_from(ORDER_POOL), st.integers(1, 3)),
                     max_size=4).map(lambda pairs: mono(*pairs))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(monomials, st.integers(-3, 3)), max_size=8))
def test_term_order_matches_reference_comparator(terms):
    merged: dict = {}
    for m, c in terms:   # the constructor merges duplicate monomials
        merged[m] = merged.get(m, 0) + Fraction(c)
    kept = [(m, c) for m, c in merged.items() if c]
    expected = sorted(kept, key=functools.cmp_to_key(
        lambda x, y: reference_mono_cmp(x[0], y[0])))
    assert list(Poly(tuple(terms)).terms) == expected


# -- arithmetic results are canonical by construction ------------------------
#
# A reference copy of the arithmetic as it was when every result went back
# through the public constructors, which re-sort the terms, re-wrap each
# coefficient in Fraction and re-cancel the denominator.

def _ref_mono_lcm(a, b):
    acc = dict(a)
    for p, k in b:
        acc[p] = max(acc.get(p, 0), k)
    return mono(*acc.items())


def _ref_mono_div(a, b):
    return mono(*a, *((p, -k) for p, k in b))


def ref_add(a, b):
    acc = dict(a.terms)
    for m, c in b.terms:
        acc[m] = acc.get(m, Fraction(0)) + c
    return Poly(tuple(acc.items()))


def ref_neg(a):
    return Poly(tuple((m, -c) for m, c in a.terms))


def ref_mul(a, b):
    acc = {}
    for m1, c1 in a.terms:
        for m2, c2 in b.terms:
            m = mono(*m1, *m2)
            acc[m] = acc.get(m, Fraction(0)) + c1 * c2
    return Poly(tuple(acc.items()))


def ref_scale(a, q):
    q = Fraction(q)
    return Poly(tuple((m, c * q) for m, c in a.terms)) if q else Poly()


def ref_mul_mono(a, m):
    return Poly(tuple((mono(*tm, *m), c) for tm, c in a.terms))


def ref_div_mono(a, m):
    return Poly(tuple((_ref_mono_div(tm, m), c) for tm, c in a.terms))


def ref_exact_div(a, b):
    q_acc, rem = {}, a
    lm, lc = b.terms[-1]
    while rem.terms:
        rm, rc = rem.terms[-1]
        qm, qc = _ref_mono_div(rm, lm), rc / lc
        q_acc[qm] = q_acc.get(qm, Fraction(0)) + qc
        rem = ref_add(rem, ref_neg(ref_scale(ref_mul_mono(b, qm), qc)))
    return Poly(tuple(q_acc.items()))


def ref_cadd(a, b):
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    den = _ref_mono_lcm(a.den, b.den)
    return Coeff(ref_add(ref_mul_mono(a.num, _ref_mono_div(den, a.den)),
                         ref_mul_mono(b.num, _ref_mono_div(den, b.den))), den)


def ref_cneg(a):
    return Coeff(ref_neg(a.num), a.den)


def ref_cmul(a, b):
    if a.is_zero or b.is_zero:
        return Coeff()
    return Coeff(ref_mul(a.num, b.num), mono(*a.den, *b.den))


def ref_cdiv(a, unit):
    (nm, q), = unit.num.terms
    return ref_cmul(a, Coeff(ref_mul_mono(Poly.const(1 / q), unit.den), nm))


def assert_canonical_poly(r):
    again = Poly(r.terms)
    assert again == r and again.terms == r.terms
    assert all(c != 0 and type(c) is Fraction for _, c in r.terms)


def assert_canonical_coeff(r):
    assert Coeff(Poly(r.num.terms), r.den) == r
    assert_canonical_poly(r.num)


NONZERO_POOL = (A, B, G)
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
scalars = st.one_of(st.integers(-3, 3), rationals)
polys = st.dictionaries(monomials, scalars, max_size=5).map(
    lambda d: Poly(tuple(d.items())))
nz_monomials = st.lists(
    st.tuples(st.sampled_from(NONZERO_POOL), st.integers(1, 2)),
    max_size=3).map(lambda pairs: mono(*pairs))
coeffs = st.builds(Coeff, polys, nz_monomials)
units = st.builds(lambda q, nm, dm: Coeff(Poly(((nm, q),)), dm),
                  rationals.filter(bool), nz_monomials, nz_monomials)


@settings(max_examples=300, deadline=None)
@given(polys, polys, monomials, scalars)
def test_poly_arithmetic_is_canonical_and_matches_reference(a, b, m, q):
    cases = [
        (a + b, ref_add(a, b)),
        (a - b, ref_add(a, ref_neg(b))),
        (a * b, ref_mul(a, b)),
        (-a, ref_neg(a)),
        (a.scale(q), ref_scale(a, q)),
        (a.mul_mono(m), ref_mul_mono(a, m)),
        (a.mul_mono(m).div_mono(m), a),
        (a.div_mono(a.mono_content()), ref_div_mono(a, a.mono_content())),
    ]
    if not b.is_zero:
        cases.append(((a * b).exact_div(b), ref_exact_div(ref_mul(a, b), b)))
        cases.append(((a * b).exact_div(b), a))
    for got, want in cases:
        assert_canonical_poly(got)
        assert got == want and got.terms == want.terms


@settings(max_examples=300, deadline=None)
@given(coeffs, coeffs, units, scalars)
def test_coeff_arithmetic_is_canonical_and_matches_reference(a, b, u, q):
    cases = [
        (a + b, ref_cadd(a, b)),
        (a - b, ref_cadd(a, ref_cneg(b))),
        (a * b, ref_cmul(a, b)),
        (-a, ref_cneg(a)),
        (a.scale(q), Coeff(ref_scale(a.num, q), a.den)),
        (a / u, ref_cdiv(a, u)),
    ]
    for got, want in cases:
        assert_canonical_coeff(got)
        assert got == want and got.num.terms == want.num.terms


# constants often, and a constant's negation, so that the constant fast
# path of `+`, `*` and `scale` meets every kind of other operand
constant_or_coeffs = st.one_of(coeffs, rationals.map(Coeff.const))


@settings(max_examples=300, deadline=None)
@given(constant_or_coeffs, constant_or_coeffs, rationals.filter(bool),
       st.integers(-3, 3))
def test_constant_operands_match_reference(a, b, q, n):
    c, minus_c = Coeff.const(q), Coeff.const(-q)
    cases = [
        (a + b, ref_cadd(a, b)),
        (a * b, ref_cmul(a, b)),
        (c + a, ref_cadd(c, a)),
        (c * a, ref_cmul(c, a)),
        (a * c, ref_cmul(a, c)),
        (c * minus_c, ref_cmul(c, minus_c)),
        (c + minus_c, Coeff()),
        (a.scale(0), Coeff()),
        (a.scale(n), Coeff(ref_scale(a.num, n), a.den)),
        (c.scale(n), Coeff(ref_scale(c.num, n), c.den)),
        (c.scale(q), Coeff(ref_scale(c.num, q), c.den)),
    ]
    for got, want in cases:
        assert_canonical_coeff(got)
        assert got == want and got.num.terms == want.num.terms
        assert got.den == want.den
    assert c + minus_c is Coeff.zero() and c.scale(0) is Coeff.zero()
    assert a.scale(1) is a and c.scale(1) is c


def test_constant_sum_cancels_to_canonical_zero():
    third = Coeff.const(Fraction(1, 3))
    zero = third + Coeff.const(Fraction(-1, 3))
    assert zero is Coeff.zero() and zero.den == () and not zero.num.terms
    assert (third * Coeff.param(A)) == Coeff(P((mono((A, 1)), Fraction(1, 3))))


def test_parameters_sharing_a_name_commute():
    # two atoms, one name: the term order must still tell them apart
    plain = Parameter("alpha")
    assert (Poly.param(A) * Poly.param(plain)
            - Poly.param(plain) * Poly.param(A)).is_zero
    assert P((mono((plain, 1)), 1), (mono((A, 1)), 1)) == \
        P((mono((A, 1)), 1), (mono((plain, 1)), 1))


def test_constructor_merges_duplicate_monomials():
    m = mono((A, 1))
    dup = P((m, 1), (m, 2))
    assert dup.terms == ((m, Fraction(3)),)
    assert dup == P((m, 3))
    assert (dup - P((m, 3))).is_zero
    assert P((m, 1), (m, -1)).is_zero


def test_const_and_param_are_canonical():
    for got in (Poly.const(2), Poly.const(Fraction(-1, 3)), Poly.param(A),
                Poly.param(K, 3), Poly.param(A, 0)):
        assert_canonical_poly(got)
    assert Poly.const(0).is_zero and Coeff.const(0) == Coeff.zero()
    assert Coeff.const(Fraction(1, 2)) == Coeff(P(((), Fraction(1, 2))))
    assert Coeff.param(G, 2) == Coeff(P((mono((G, 2)), 1)))
    assert_canonical_coeff(Coeff.param(G, 2))
