"""Exact coefficient field: polynomials over Q and monomial-denominator
rational functions."""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conslaw_kit.expr import ExprError, Parameter
from conslaw_kit.expr.coeff import Coeff, Poly, mono

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
    assert p.rational_content() == 2
    assert p.mono_content() == mono((A, 1))


def test_poly_partial():
    p = Poly.param(A, 3).scale(2) + Poly.param(A) * Poly.param(B)
    assert p.partial(A) == Poly.param(A, 2).scale(6) + Poly.param(B)
    assert p.partial(G).is_zero


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


def test_coeff_partial_quotient_rule():
    c = Coeff(Poly.param(A), mono((G, 2)))  # alpha / gamma^2
    d = c.partial(G)
    assert d == Coeff(Poly.param(A).scale(-2), mono((G, 3)))
    assert c.partial(A) == Coeff(Poly.const(1), mono((G, 2)))


def test_unit_detection():
    assert Coeff.param(A).as_unit() is not None
    assert (Coeff.param(A) + Coeff.const(1)).as_unit() is None
    u = Coeff(Poly.param(A).scale(-2), mono((G, 1)))
    inv = u.invert_unit()
    assert u * inv == Coeff.one()


def reference_mono_cmp(a, b) -> int:
    """The comparator `Poly` used to sort by: total degree, then the
    exponents by parameter name over the union of the two monomials (two
    dicts built per comparison)."""
    ta, tb = sum(k for _, k in a), sum(k for _, k in b)
    if ta != tb:
        return -1 if ta < tb else 1
    da = dict((p.name, k) for p, k in a)
    db = dict((p.name, k) for p, k in b)
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
    kept = [(m, Fraction(c)) for m, c in terms if c]
    expected = sorted(kept, key=functools.cmp_to_key(
        lambda x, y: reference_mono_cmp(x[0], y[0])))
    assert list(Poly(tuple(terms)).terms) == expected
