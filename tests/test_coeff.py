"""Exact coefficient field: Laurent polynomials over Q, negative exponents
on nonzero parameters only."""

import functools
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conslaw_kit.cancel import deadline
from conslaw_kit.expr import (CancelledComputation, ExpAtom, Expr,
                              ExprError, IndependentVar, JetVar, MultiIndex,
                              OpaqueDeriv, Parameter, param, sum_exprs)
from conslaw_kit.expr.atoms import (mono, mono_div, mono_gcd, mono_lcm,
                                    mono_mul)
from conslaw_kit.expr.coeff import Poly, common_content, primitive
from conslaw_kit.expr.expression import jet

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


def laurent(num, den=()):
    """num / den through the public constructor, den a monomial in nonzero
    parameters."""
    inv = tuple((p, -k) for p, k in den)
    return Poly(tuple((mono(*m, *inv), c) for m, c in num.terms))


def test_coeff_cancellation_canonical():
    assert Poly.param(G, 2) / Poly.param(G) == Poly.param(G)
    assert laurent(Poly.param(G, 2), mono((G, 1))) == Poly.param(G)
    assert laurent(Poly.zero(), mono((G, 3))) == Poly.zero()
    assert (Poly.param(G, 2) * Poly.param(G, -2)).terms == Poly.one().terms


def test_coeff_add_common_denominator():
    half_a_over_g = Poly.param(A).scale(Fraction(1, 2)) / Poly.param(G)
    b = Poly.param(B)
    s = half_a_over_g + b
    num, den = s.num_den()
    assert den == mono((G, 1))
    assert num == Poly.param(A).scale(Fraction(1, 2)) + Poly.param(B) * Poly.param(G)
    assert s - b == half_a_over_g


def test_coeff_division_rules():
    c = Poly.param(A)
    assert c / Poly.param(G) == laurent(Poly.param(A), mono((G, 1)))
    assert (c / Poly.const(2)) == Poly.param(A).scale(Fraction(1, 2))
    with pytest.raises(ExprError, match="^zero denominator$"):
        c / Poly.zero()
    with pytest.raises(ExprError, match="not declared nonzero: kappa$"):
        c / Poly.param(K)
    with pytest.raises(ExprError, match="^division is only defined"):
        c / (Poly.param(A) + Poly.const(1))  # not a unit


def test_unit_detection():
    assert Poly.param(A).as_unit() is not None
    assert (Poly.param(A) + Poly.const(1)).as_unit() is None
    u = laurent(Poly.param(A).scale(-2), mono((G, 1)))
    inv = u.invert_unit()
    assert u * inv == Poly.one()
    assert inv.num_den() == (Poly.param(G).scale(Fraction(-1, 2)),
                             mono((A, 1)))


def test_num_den_splits_off_the_least_denominator():
    c = laurent(Poly.param(A, 2) + Poly.param(A) * Poly.param(G),
                mono((A, 1), (G, 2)))
    assert c == (Poly.param(A) + Poly.param(G)) / Poly.param(G, 2)
    assert c.num_den() == (Poly.param(A) + Poly.param(G), mono((G, 2)))
    assert Poly.param(K).num_den() == (Poly.param(K), ())
    assert Poly.zero().num_den() == (Poly.zero(), ())


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
# negative exponents too, so that factors cancel in a product
laurent_monomials = st.lists(
    st.tuples(st.sampled_from(ORDER_POOL), st.integers(-3, 3)),
    max_size=4).map(lambda pairs: mono(*pairs))


@settings(max_examples=400, deadline=None)
@given(laurent_monomials, laurent_monomials)
def test_mono_mul_merge_matches_mono(a, b):
    assert mono_mul(a, b) == mono(*a, *b)
    assert mono_mul(a, tuple((p, -k) for p, k in a)) == ()


# The keys of the three kinds of sorted monomial: multi-index names,
# parameters and the atoms of power products.
MONO_KEYS = {
    "names": ("a", "t", "x", "y", "z"),
    "parameters": ORDER_POOL,
    "atoms": (IndependentVar("t"), IndependentVar("x"), JetVar("u"),
              JetVar("u", MultiIndex.of("x")), JetVar("v"),
              OpaqueDeriv("f", (JetVar("u"),)), ExpAtom(Expr.const(2)),
              ExpAtom(jet("u"))),
}


@pytest.mark.parametrize("keys", MONO_KEYS.values(), ids=MONO_KEYS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mono_merges_match_mono(keys, data):
    """`mono_mul`, `mono_div`, `mono_gcd` and `mono_lcm` on monomials with
    positive exponents agree with `mono` of the merged pairs; `mono_div`
    raises where the reference quotient has a negative exponent."""
    positive = st.lists(st.tuples(st.sampled_from(keys), st.integers(1, 3)),
                        max_size=4).map(lambda pairs: mono(*pairs))
    a, b = data.draw(positive), data.draw(positive)
    assert mono_mul(a, b) == mono(*a, *b)
    assert mono_div(mono_mul(a, b), b) == a
    quotient = mono(*a, *((p, -k) for p, k in b))
    if all(k > 0 for _, k in quotient):
        assert mono_div(a, b) == quotient
    else:
        with pytest.raises(ValueError):
            mono_div(a, b)
    da, db = dict(a), dict(b)
    assert mono_gcd(a, b) == mono(*((p, min(k, db[p])) for p, k in a
                                    if p in db))
    assert mono_lcm(a, b) == mono(*((p, max(da.get(p, 0), db.get(p, 0)))
                                    for p in da.keys() | db.keys()))


def test_poly_product_honours_deadline():
    """(a+b+c+d+e+f+g+1)^14 * u is one term whose coefficient takes over
    a minute to expand; a deadline stops it within one left term of the
    `Poly.__mul__` it is in."""
    base = sum_exprs([*(param(n) for n in "abcdefg"), Expr.const(1)])
    start = time.monotonic()
    with deadline(1.0), pytest.raises(CancelledComputation):
        base ** 14 * jet("u")
    assert time.monotonic() - start < 3


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
        qm, qc = _ref_mono_div(rm, lm), Fraction(rc, lc)
        q_acc[qm] = q_acc.get(qm, Fraction(0)) + qc
        rem = ref_add(rem, ref_neg(ref_scale(ref_mul_mono(b, qm), qc)))
    return Poly(tuple(q_acc.items()))


def _ref_mono_gcd(a, b):
    db = dict(b)
    return mono(*((p, min(k, db[p])) for p, k in a if p in db))


def ref_cancel(num, den):
    """The canonical (num, den) of num / den: zero has no denominator, and
    den shares no parameter power with the monomial content of num."""
    if num.is_zero:
        return num, ()
    content = functools.reduce(_ref_mono_gcd, (m for m, _ in num.terms))
    common = _ref_mono_gcd(content, den)
    return ref_div_mono(num, common), _ref_mono_div(den, common)


def ref_cadd(a, b):
    if a[0].is_zero:
        return b
    if b[0].is_zero:
        return a
    den = _ref_mono_lcm(a[1], b[1])
    return ref_cancel(ref_add(ref_mul_mono(a[0], _ref_mono_div(den, a[1])),
                              ref_mul_mono(b[0], _ref_mono_div(den, b[1]))),
                      den)


def ref_cneg(a):
    return ref_neg(a[0]), a[1]


def ref_cmul(a, b):
    if a[0].is_zero or b[0].is_zero:
        return Poly(), ()
    return ref_cancel(ref_mul(a[0], b[0]), mono(*a[1], *b[1]))


def ref_cdiv(a, unit):
    (nm, q), = unit[0].terms
    return ref_cmul(a, ref_cancel(ref_mul_mono(Poly.const(Fraction(1, q)),
                                               unit[1]), nm))


def assert_canonical_poly(r):
    again = Poly(r.terms)
    assert again == r and again.terms == r.terms
    assert all(c != 0 and (type(c) is int or
                           type(c) is Fraction and c.denominator != 1)
               for _, c in r.terms)


def assert_matches(got, want):
    """`got` canonical and equal to the (num, den) pair `want`, its
    numerator's terms in the same order."""
    assert_canonical_poly(got)
    num, den = got.num_den()
    assert_canonical_poly(num)
    assert (num, den) == want and num.terms == want[0].terms
    assert got == laurent(*want)


NONZERO_POOL = (A, B, G)
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
scalars = st.one_of(st.integers(-3, 3), rationals)
polys = st.dictionaries(monomials, scalars, max_size=5).map(
    lambda d: Poly(tuple(d.items())))
nz_monomials = st.lists(
    st.tuples(st.sampled_from(NONZERO_POOL), st.integers(1, 2)),
    max_size=3).map(lambda pairs: mono(*pairs))
# (num, den) pairs in canonical form, the reference's operands
pairs = st.builds(lambda num, den: ref_cancel(num, den), polys, nz_monomials)
unit_pairs = st.builds(lambda q, nm, dm: ref_cancel(Poly(((nm, q),)), dm),
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
@given(pairs, pairs, unit_pairs, scalars)
def test_coeff_arithmetic_is_canonical_and_matches_reference(pa, pb, pu, q):
    a, b, u = laurent(*pa), laurent(*pb), laurent(*pu)
    cases = [
        (a + b, ref_cadd(pa, pb)),
        (a - b, ref_cadd(pa, ref_cneg(pb))),
        (a * b, ref_cmul(pa, pb)),
        (-a, ref_cneg(pa)),
        (a.scale(q), ref_cancel(ref_scale(pa[0], q), pa[1])),
        (a / u, ref_cdiv(pa, pu)),
    ]
    for got, want in cases:
        assert_matches(got, want)


# constants and single terms often, and a constant's negation, so that the
# one-monomial path of `+` and the constant path of `*` and `scale` meet
# every kind of other operand
constant_or_pairs = st.one_of(pairs, unit_pairs,
                              rationals.map(lambda q: (Poly.const(q), ())))


@settings(max_examples=300, deadline=None)
@given(constant_or_pairs, constant_or_pairs, rationals.filter(bool),
       st.integers(-3, 3))
def test_constant_operands_match_reference(pa, pb, q, n):
    a, b = laurent(*pa), laurent(*pb)
    c, minus_c = Poly.const(q), Poly.const(-q)
    pc, pminus_c = (c, ()), (minus_c, ())
    cases = [
        (a + b, ref_cadd(pa, pb)),
        (a + (-a), (Poly(), ())),
        (a * b, ref_cmul(pa, pb)),
        (c + a, ref_cadd(pc, pa)),
        (c * a, ref_cmul(pc, pa)),
        (a * c, ref_cmul(pa, pc)),
        (c * minus_c, ref_cmul(pc, pminus_c)),
        (c + minus_c, (Poly(), ())),
        (a.scale(0), (Poly(), ())),
        (a.scale(n), ref_cancel(ref_scale(pa[0], n), pa[1])),
        (c.scale(n), (ref_scale(c, n), ())),
        (c.scale(q), (ref_scale(c, q), ())),
    ]
    for got, want in cases:
        assert_matches(got, want)
    assert c + minus_c is Poly.zero() and c.scale(0) is Poly.zero()
    assert a.scale(1) is a and c.scale(1) is c
    assert a.is_zero or a * Poly.one() is a


int_polys = st.dictionaries(monomials, st.integers(-4, 4), max_size=4).map(
    lambda d: Poly(tuple(d.items())))
non_integers = rationals.filter(lambda q: q.denominator != 1)


@settings(max_examples=300, deadline=None)
@given(int_polys, int_polys, unit_pairs, non_integers,
       st.integers(-4, 4).filter(bool))
def test_exact_division_never_yields_a_float(a, b, pu, q, n):
    """Integral coefficients are `int`s, so every division site meets
    `int` operands, where `/` would make a float."""
    u, c = laurent(*pu), Poly.const(n)
    for p in (a, b, a + b, a * b, -a, c):
        assert all(type(v) is int for _, v in p.terms)
    cases = [
        (a / c, ref_scale(a, Fraction(1, n))),
        (c.invert_unit(), Poly.const(Fraction(1, n))),
        (u.invert_unit(), laurent(*ref_cdiv((Poly.one(), ()), pu))),
        (a / u, laurent(*ref_cdiv((a, ()), pu))),
        (a.scale(q), ref_scale(a, q)),
        (a.scale(q).scale(1 / q), a),
        ((a / c).scale(n), a),
    ]
    if not b.is_zero:
        cases.append(((a * b).exact_div(b), a))
        cases.append(((a * b).exact_div(b), ref_exact_div(ref_mul(a, b), b)))
        cases.append(((a * b).exact_div(b.scale(n)),
                      ref_scale(a, Fraction(1, n))))
    for got, want in cases:
        for p in (got, got.num_den()[0]):
            assert_canonical_poly(p)
            assert not any(isinstance(v, float) for _, v in p.terms)
        assert got == want and got.terms == want.terms


def test_constant_sum_cancels_to_canonical_zero():
    third = Poly.const(Fraction(1, 3))
    zero = third + Poly.const(Fraction(-1, 3))
    assert zero is Poly.zero() and zero.num_den() == (Poly.zero(), ())
    assert (third * Poly.param(A)) == P((mono((A, 1)), Fraction(1, 3)))
    g_over_3 = Poly.param(G, -1).scale(Fraction(1, 3))
    assert g_over_3 + g_over_3.scale(-1) is Poly.zero()
    assert (g_over_3 + g_over_3).terms == ((mono((G, -1)), Fraction(2, 3)),)


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
                Poly.param(K, 3), Poly.param(A, 0), Poly.param(G, -2),
                Poly.one()):
        assert_canonical_poly(got)
    assert Poly.const(0).is_zero and Poly.const(0) is Poly.zero()
    assert Poly.one() == P(((), 1))
    assert Poly.param(G, -2).num_den() == (Poly.one(), mono((G, 2)))


@pytest.mark.parametrize("build", [
    lambda: Poly.const(0.5),
    lambda: Poly((((), 1 / 3),)),
    lambda: Expr.const(0.25),
    lambda: Poly.one().scale(0.5),
], ids=["Poly.const", "Poly", "Expr.const", "scale"])
def test_float_coefficient_is_a_type_error(build):
    """A float is never a coefficient: 1/3 as a float is not 1/3."""
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        build()


@settings(max_examples=300, deadline=None)
@given(st.lists(polys, max_size=4))
def test_primitive_matches_division_by_the_content(ps):
    """`primitive` divides in `int` arithmetic what scaling by the inverse
    rational content divides: the same canonical polys, integer
    coefficients with gcd 1."""
    content = common_content(ps)
    want = [p.scale(1 / content) for p in ps] if content else ps
    got = primitive(ps)
    assert list(got) == list(want)
    for p in got:
        assert_canonical_poly(p)
        assert all(type(c) is int for _, c in p.terms)
    assert common_content(got) in (0, 1)
