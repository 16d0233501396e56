"""Jet-space calculus: total derivatives, leading-form systems, reduction
onto the solution manifold."""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conslaw_kit.expr import (ExpAtom, Expr, IndependentVar, JetVar,
                              MultiIndex, OpaqueDeriv, Parameter, atom_expr,
                              exp_of)
from conslaw_kit.expr.coeff import Poly, as_poly, term_coeff
from conslaw_kit.expr.errors import ExprError, LeadingSolveError
from conslaw_kit.expr.expression import (_gradient_terms, jet, jet_atom,
                                         jet_gradient, lowered, partial,
                                         raised, sum_exprs)
from conslaw_kit.jet import (alternating_sum, derivatives, solve_leading,
                             total_derivative)
from conslaw_kit.variational import euler

from conftest import Syms as S, random_expr


class TestTotalDerivative:
    def test_product(self):
        assert total_derivative(S.u * S.ut, "x") == S.ux * S.ut + S.u * S.uxt

    def test_exponential(self):
        assert total_derivative(exp_of(S.gamma * S.u), "t") == \
            S.gamma * S.ut * exp_of(S.gamma * S.u)

    def test_opaque_chain_rule(self):
        g = atom_expr(OpaqueDeriv("g", (S.u_at,)))
        gp = atom_expr(OpaqueDeriv("g", (S.u_at,), (1,)))
        assert total_derivative(g, "x") == gp * S.ux

    def test_opaque_of_independent_vars(self):
        f = atom_expr(OpaqueDeriv("f", (S.x_at, S.t_at)))
        fx = atom_expr(OpaqueDeriv("f", (S.x_at, S.t_at), (1, 0)))
        assert total_derivative(f, "x") == fx
        assert total_derivative(f, "t") == \
            atom_expr(OpaqueDeriv("f", (S.x_at, S.t_at), (0, 1)))

    def test_commutativity_seeded(self):
        rng = random.Random(314)
        for i in range(100):
            e = random_expr(rng, allow_exp=True)
            dxt = total_derivative(total_derivative(e, "x"), "t")
            dtx = total_derivative(total_derivative(e, "t"), "x")
            assert dxt == dtx, f"case {i} (seed 314)"

    def test_multi_index(self):
        assert derivatives(S.u)(MultiIndex()) == S.u
        assert derivatives(S.u)(MultiIndex.of("x", "t")) == S.uxt
        assert derivatives(S.x * S.u)(MultiIndex.of("x", "x")) == \
            2 * S.ux + S.x * S.uxx


# -- the product rule against a reference copy ---------------------------
#
# `total_derivative` as it was when every factor's derivative went through
# `Expr` multiplication, kept here as the reference: the one path that
# applies the chain rule independently of the jet-gradient walk.

def ref_d_atom(a, var):
    if isinstance(a, IndependentVar):
        return Expr.const(1 if a.name == var else 0)
    if isinstance(a, Parameter):
        return Expr.zero()
    if isinstance(a, JetVar):
        return atom_expr(a.bump(var))
    if isinstance(a, OpaqueDeriv):
        return sum_exprs(atom_expr(a.bump(k)) * ref_d_atom(arg, var)
                         for k, arg in enumerate(a.args))
    if isinstance(a, ExpAtom):
        return ref_total_derivative(a.exponent, var) * atom_expr(a)
    raise TypeError(f"unknown atom {a!r}")


def ref_total_derivative(e, var):
    return sum_exprs(Expr((lowered(t, i),)) * ref_d_atom(a, var)
                     for t in e.terms for i, (a, _) in enumerate(t[0]))


def ref_make_term(coeff, factors):
    """Canonicalize one term: fold parameters into the coefficient, merge
    exponential factors, drop the term (None) if the coefficient vanishes.
    The general re-canonicaliser every product term once went through,
    kept here as the reference for `raised` and term products.  The
    coefficient is read as a `Poly` and returned as a term coefficient."""
    coeff = as_poly(coeff)
    plain = {}
    exponents = []
    for a, k in factors:
        if k == 0:
            continue
        if k < 0 or not isinstance(k, int):
            raise ExprError("unsupported power")
        if isinstance(a, Parameter):
            coeff = coeff * Poly.param(a, k)
        elif isinstance(a, ExpAtom):
            exponents.append(a.exponent if k == 1 else a.exponent.scale(k))
        else:
            plain[a] = plain.get(a, 0) + k
    if coeff.is_zero:
        return None
    exp_sum = sum_exprs(exponents)
    if not exp_sum.is_zero:
        plain[ExpAtom(exp_sum)] = 1
    return (tuple(sorted(plain.items())), term_coeff(coeff))


V_AT = jet_atom("v")
# exponent bases first: `random_expr` draws exponents from pool[:3]
WIDE_POOL = (
    S.u_at, S.uxt_at, V_AT, jet_atom("u", "x", "x", "x"), jet_atom("v", "t"),
    S.ux_at, S.x_at, S.t_at, Parameter("alpha", nonzero=True),
    OpaqueDeriv("f", (S.u_at,)), OpaqueDeriv("f", (S.u_at,), (1,)),
    OpaqueDeriv("h", (S.x_at, S.t_at)), ExpAtom(S.gamma * S.u),
    ExpAtom(Expr.const(2)),
)
PLAIN_POOL = tuple(a for a in WIDE_POOL
                   if not isinstance(a, (Parameter, ExpAtom)))
# opaque functions of a derivative coordinate, of an exponential and of
# another opaque function
CHAIN_POOL = WIDE_POOL + (
    OpaqueDeriv("g", (S.ux_at, S.t_at)),
    OpaqueDeriv("k", (ExpAtom(S.gamma * S.u),)),
    OpaqueDeriv("h", (OpaqueDeriv("f", (S.u_at,)), V_AT), (1, 0)),
)


class TestProductRule:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from(["x", "t", "y"]))
    def test_matches_reference(self, seed, var):
        rng = random.Random(seed)
        e = random_expr(rng, pool=CHAIN_POOL, max_terms=4, max_factors=4,
                        allow_exp=True)
        got = total_derivative(e, var)
        want = ref_total_derivative(e, var)
        assert got == want and got.terms == want.terms

    def test_other_variable_factors_and_arguments(self):
        """x and t as factors, as slots of h(x, t) and inside an exponent:
        the walk leaves out the other variable's entry, and D_var agrees
        with the reference."""
        h = OpaqueDeriv("h", (S.x_at, S.t_at))
        hx, ht = (atom_expr(h.bump(k)) for k in (0, 1))
        e = (S.x * S.t ** 2 * atom_expr(h) * S.u
             + S.t ** 3 * exp_of(S.x * S.t) + 3 * S.x ** 2 * hx)
        for var in ("x", "t", "y"):
            assert total_derivative(e, var) == ref_total_derivative(e, var)
        assert {S.x_at, S.t_at} <= _gradient_terms(e).keys()
        assert S.t_at not in _gradient_terms(e, "x")
        assert S.x_at not in _gradient_terms(e, "t")
        assert total_derivative(S.x * S.t * atom_expr(h), "x") == (
            S.t * atom_expr(h) + S.x * S.t * hx)
        assert total_derivative(S.x * S.t * atom_expr(h), "t") == (
            S.x * atom_expr(h) + S.x * S.t * ht)

    def test_undeclared_variable(self):
        # D_y of x^2 u: x is a constant, u bumps to u_y
        e = S.x ** 2 * S.u
        assert total_derivative(e, "y") == S.x ** 2 * jet("u", "y")


class TestChainThroughArguments:
    """The chain rule runs through an opaque argument that is not a
    variable: an exponential, or another opaque function."""

    def test_euler_through_an_exponential_argument(self):
        f = atom_expr(OpaqueDeriv("f", (ExpAtom(S.u),)))
        fp = atom_expr(OpaqueDeriv("f", (ExpAtom(S.u),), (1,)))
        assert euler(S.u * f, "u") == f + S.u * fp * exp_of(S.u)

    def test_gradient_through_a_nested_function(self):
        k = OpaqueDeriv("k", (S.u_at,))
        h = OpaqueDeriv("h", (k,))
        assert jet_gradient(atom_expr(h)) == {
            S.u_at: atom_expr(h.bump(0)) * atom_expr(k.bump(0))}

    def test_total_derivative_through_an_exponential_argument(self):
        f = atom_expr(OpaqueDeriv("f", (ExpAtom(S.u),)))
        fp = atom_expr(OpaqueDeriv("f", (ExpAtom(S.u),), (1,)))
        d = total_derivative(f, "x")
        assert d == fp * S.ux * exp_of(S.u)
        assert str(d) == "D[f,exp(u)]*D[u,x]*exp(u)"


class TestTermRaised:
    TERM = (S.alpha * S.x * S.u * S.uxx).terms[0]   # powers x, u, u_xx

    def test_insertion_and_bump(self):
        t = self.TERM
        cases = {
            S.t_at: (S.t_at, S.x_at, S.u_at, S.uxx_at),       # front
            S.ux_at: (S.x_at, S.u_at, S.ux_at, S.uxx_at),     # middle
            V_AT: (S.x_at, S.u_at, S.uxx_at, V_AT),           # end
        }
        for a, order in cases.items():
            powers, coeff = raised(t, a)
            assert tuple(b for b, _ in powers) == order
            assert coeff == t[1]
            assert all(k == 1 for _, k in powers)
        bumped = raised(t, S.u_at)
        assert bumped[0] == ((S.x_at, 1), (S.u_at, 2), (S.uxx_at, 1))
        assert raised(bumped, S.u_at)[0][1] == (S.u_at, 3)
        assert Expr((raised(Expr.const(3).terms[0], S.u_at),)) == 3 * S.u

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from(PLAIN_POOL))
    def test_agrees_with_make_term(self, seed, a):
        e = random_expr(random.Random(seed), pool=WIDE_POOL, max_terms=3,
                        max_factors=4, allow_exp=True)
        for p, c in e.terms:
            assert raised((p, c), a) == ref_make_term(c, p + ((a, 1),))


# exponents in pairs that cancel (a, -a), collapse to a rational
# (x + 1, -x) or square (any one drawn twice)
EXPONENTS = (S.gamma * S.u, -S.gamma * S.u, S.x + 1, -S.x, S.u * S.ux,
             Expr.const(2), Expr.const(-2), Expr.const(Fraction(1, 3)))


def random_term(rng, exponent):
    """One canonical term of a random expression, times e^exponent."""
    e = random_expr(rng, pool=WIDE_POOL, max_terms=1, max_factors=4,
                    allow_exp=True)
    return (e * exp_of(exponent) if exponent is not None else e).terms[0]


class TestTermProduct:
    @settings(max_examples=500, deadline=None)
    @given(st.integers(0, 2**32), st.none() | st.sampled_from(EXPONENTS),
           st.none() | st.sampled_from(EXPONENTS))
    def test_agrees_with_make_term(self, seed, a, b):
        rng = random.Random(seed)
        t1, t2 = random_term(rng, a), random_term(rng, b)
        want = ref_make_term(as_poly(t1[1]) * as_poly(t2[1]), t1[0] + t2[0])
        assert Expr((t1,)) * Expr((t2,)) == Expr((want,))

    def test_exponentials_fold(self):
        e = exp_of(S.gamma * S.u)
        assert S.u * e * exp_of(-S.gamma * S.u) == S.u
        assert exp_of(S.x + 1) * exp_of(-S.x) == \
            atom_expr(ExpAtom(Expr.const(1)))
        assert e * e == exp_of(2 * S.gamma * S.u)
        assert atom_expr(ExpAtom(Expr.const(2))) * \
            atom_expr(ExpAtom(Expr.const(-2))) == Expr.const(1)


class TestJetVarSortKey:
    def test_key_value(self):
        a = jet_atom("u", "x", "t", "t")
        assert tuple(a) == (3, "u", (3, (("t", 2), ("x", 1))))
        assert tuple(a.index) == (3, (("t", 2), ("x", 1)))
        assert not hasattr(a, "sort_key") and not hasattr(a, "_key")

    def test_copies_are_equal_and_hash_alike(self):
        a = jet_atom("v", "x", "x")
        for c in (pickle.loads(pickle.dumps(a)), copy.copy(a),
                  copy.deepcopy(a)):
            assert type(c) is JetVar and c == a and c is not a
            assert hash(c) == hash(a) and tuple(c) == tuple(a)
            assert not (c < a or a < c)


class TestMultiIndexStep:
    NAMES = st.sampled_from(("a", "t", "x", "y", "z"))

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(NAMES, st.integers(1, 3), max_size=4), NAMES)
    def test_matches_index_arithmetic(self, counts, name):
        m = MultiIndex(tuple(counts.items()))
        one = MultiIndex(((name, 1),))
        plus = MultiIndex(m.counts + one.counts)
        bumped = m.bump(name)
        assert bumped.counts == plus.counts
        assert hash(bumped) == hash(plus)
        assert JetVar("u", m).bump(name) == JetVar("u", plus)
        assert bumped.drop(name).counts == m.counts
        if m.contains(one):
            assert m.drop(name).counts == (m - one).counts
        else:
            with pytest.raises(ValueError):
                m.drop(name)
            with pytest.raises(ValueError):
                m - one

    def test_repeated_names_merge(self):
        """Counts given twice for one name are summed: the index is
        canonical whatever pairs it is built from."""
        m = MultiIndex((("x", 1), ("x", 1)))
        assert m == MultiIndex.of("x", "x") and m.counts == (("x", 2),)
        assert MultiIndex((("x", 1), ("t", 2), ("x", 0))) == \
            MultiIndex.of("t", "x", "t")
        with pytest.raises(ValueError):
            MultiIndex((("x", 2), ("x", -1)))

    def test_copies_rebuild_from_init_fields(self):
        m = MultiIndex.of("x", "t").bump("t").drop("x")
        hash(m)
        for c in (pickle.loads(pickle.dumps(m)), copy.copy(m),
                  copy.deepcopy(m)):
            assert c == m and c is not m
            assert getattr(c, "_hash", None) is None
            assert c.counts == (("t", 2),)


# -- derivative tables and nested sums against the per-index loop ---------
#
# D_J as it was computed before the tables: one `total_derivative` per
# variable of J, afresh for every J.

def ref_multi(e, J):
    for var in J.to_seq():
        e = total_derivative(e, var)
    return e


Y_AT = IndependentVar("y")
# jets and opaque arguments over three variables; exponent bases first
XYZ_POOL = (
    S.u_at, jet_atom("u", "y"), V_AT, S.uxt_at, jet_atom("v", "t", "y"),
    S.ux_at, S.x_at, S.t_at, Y_AT, Parameter("alpha", nonzero=True),
    OpaqueDeriv("h", (S.x_at, Y_AT)), OpaqueDeriv("f", (S.u_at,)),
    ExpAtom(S.gamma * S.u), ExpAtom(Expr.const(2)),
)


def multi_indices(names):
    return st.lists(st.sampled_from(names), max_size=3).map(
        lambda seq: MultiIndex.of(*seq))


class TestDerivativeTable:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 3), st.data())
    def test_matches_iterated_total_derivative(self, seed, n, data):
        names = ("t", "x", "y")[:n]
        e = random_expr(random.Random(seed), pool=XYZ_POOL, max_terms=3,
                        max_factors=3, allow_exp=True)
        table = derivatives(e)
        for J in data.draw(st.lists(multi_indices(names), min_size=1,
                                    max_size=6)):
            assert table(J) == ref_multi(e, J)


class TestAlternatingSum:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 3), st.data())
    def test_matches_signed_sum(self, seed, n, data):
        names = ("t", "x", "y")[:n]
        rng = random.Random(seed)
        pairs = [(J, random_expr(rng, pool=XYZ_POOL, max_terms=2,
                                 max_factors=3, allow_exp=True))
                 for J in data.draw(st.lists(multi_indices(names),
                                             max_size=6))]
        want = sum_exprs(ref_multi(f, J).scale((-1) ** J.order)
                         for J, f in pairs)
        assert alternating_sum(pairs) == want

    def test_cancelling_pieces(self):
        J = MultiIndex.of("x", "t")
        assert alternating_sum([]).is_zero
        assert alternating_sum([(J, S.u), (J, -S.u)]).is_zero
        assert alternating_sum([(J, S.u), (MultiIndex(), S.x)]) == \
            S.uxt + S.x


# -- the jet gradient against a reference copy ----------------------------
#
# `jet_partial` as it was before `jet_gradient`: the formal `partial` by
# one atom plus the chain rule through every opaque-function argument slot
# that holds it, one atom per call.

def ref_jet_partial(e, a):
    opaque = {f for f in e.atoms() if isinstance(f, OpaqueDeriv)}
    return sum_exprs([partial(e, a), *(
        partial(e, f) * atom_expr(f.bump(k))
        for f in opaque for k, arg in enumerate(f.args) if arg == a)])


class TestJetPartial:
    def test_chains_through_opaque_arguments(self):
        g = atom_expr(OpaqueDeriv("g", (S.u_at,)))
        gp = atom_expr(OpaqueDeriv("g", (S.u_at,), (1,)))
        v = jet("v")
        assert jet_gradient(v * g) == {S.u_at: v * gp, V_AT: g}

    def test_first_order_argument_slot(self):
        args = (S.x_at, S.t_at, S.u_at, S.ux_at, S.ut_at)
        lam = atom_expr(OpaqueDeriv("Lam", args))
        d = jet_gradient(lam)[S.ux_at]
        assert d == atom_expr(OpaqueDeriv("Lam", args, (0, 0, 0, 1, 0)))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32))
    def test_gradient_matches_reference(self, seed):
        rng = random.Random(seed)
        e = random_expr(rng, pool=WIDE_POOL, max_terms=3, max_factors=3,
                        allow_exp=True)
        # an exponential of a random expression: a jet atom may then occur
        # only inside an exponent, or inside an opaque argument there
        inner = random_expr(rng, pool=WIDE_POOL, max_terms=2, max_factors=2)
        e = e + random_expr(rng, pool=WIDE_POOL, max_terms=2,
                            max_factors=2) * exp_of(inner)
        grad = jet_gradient(e)
        assert all(not d.is_zero for d in grad.values())
        assert all(isinstance(a, (JetVar, IndependentVar)) for a in grad)
        for a in e.atoms() | set(PLAIN_POOL):
            if isinstance(a, (JetVar, IndependentVar)):
                assert grad.get(a, Expr.zero()) == ref_jet_partial(e, a)


class TestSolveLeading:
    def test_wave_solved_form(self, wave):
        assert wave.leading[0] == S.utt_at
        assert wave.solved[0] == S.u**2 * S.uxx + S.u * S.ux**2

    def test_thomas_solved_form(self, thomas):
        assert thomas.leading[0] == S.uxt_at
        assert thomas.solved[0] == \
            -(S.alpha * S.ux + S.beta * S.ut + S.gamma * S.ux * S.ut)

    def test_default_leading_prefers_first_listed_variable(self):
        E = S.utt - S.uxx
        sys = solve_leading(["t", "x"], ["u"], [E])
        assert sys.leading[0] == S.utt_at
        sys2 = solve_leading(["x", "t"], ["u"], [E])
        assert sys2.leading[0] == S.uxx_at

    def test_nonlinear_leading_rejected(self):
        with pytest.raises(LeadingSolveError,
                           match=r"^leading derivative D\[u,t\] occurs nonlinearly"):
            solve_leading(["t", "x"], ["u"], [S.ut**2 - S.ux], [S.ut_at])

    def test_absent_leading_rejected(self):
        # the coefficient of a leading derivative that does not occur is
        # zero, not non-constant
        with pytest.raises(LeadingSolveError, match=(
                r"^leading derivative D\[u,t,x\] does not occur in "
                r"equation e$")):
            solve_leading(["t", "x"], ["u"], [S.ut - S.ux], [S.uxt_at],
                          eq_names=["e"])

    def test_leading_in_remainder_rejected(self):
        E = S.utt + S.x * jet("u", "t", "t", "x") - S.u
        with pytest.raises(LeadingSolveError, match="remainder"):
            solve_leading(["t", "x"], ["u"], [E], [S.utt_at])

    @pytest.mark.parametrize("arg", ["t", "tx"])
    def test_leading_in_opaque_argument_rejected(self, arg):
        """A function of u_t, or of its consequence u_tx, in the remainder
        takes the leading derivative u_t, so `reduce` would not reach a
        normal form."""
        f = atom_expr(OpaqueDeriv("f", (JetVar("u", MultiIndex.of(*arg)),)))
        with pytest.raises(LeadingSolveError, match="remainder"):
            solve_leading(["t", "x"], ["u"], [S.ut + f - S.uxx], [S.ut_at])

    def test_opaque_argument_below_leading_accepted(self):
        f = atom_expr(OpaqueDeriv("f", (S.ux_at,)))
        sys = solve_leading(["t", "x"], ["u"], [S.ut + f - S.uxx], [S.ut_at])
        assert sys.solved[0] == S.uxx - f

    def test_non_unit_leading_coefficient_rejected(self):
        a = atom_expr(Parameter("a"))   # not declared nonzero
        with pytest.raises(LeadingSolveError, match="not an invertible"):
            solve_leading(["t", "x"], ["u"], [a * S.ut - S.uxx], [S.ut_at])

    def test_other_errors_from_invert_unit_propagate(self, monkeypatch):
        """Only ExprError means "not invertible"."""
        def fail(self):
            raise RuntimeError("not an ExprError")
        monkeypatch.setattr(Poly, "invert_unit", fail)
        with pytest.raises(RuntimeError, match="not an ExprError"):
            solve_leading(["t", "x"], ["u"], [S.ut - S.uxx])

    def test_duplicate_leading_rejected(self):
        with pytest.raises(LeadingSolveError, match="duplicate"):
            solve_leading(["t", "x"], ["u", "v"],
                          [S.utt - S.u, S.utt - jet("v")],
                          [S.utt_at, S.utt_at])

    def test_wrong_equation_count_rejected(self):
        with pytest.raises(LeadingSolveError, match="one equation per unknown"):
            solve_leading(["t", "x"], ["u", "v"], [S.utt - S.u])

    def test_parameter_leading_coefficient(self):
        E = S.gamma * S.utt - S.ux
        sys = solve_leading(["t", "x"], ["u"], [E], [S.utt_at])
        assert sys.solved[0] == S.ux / S.gamma


class TestReduce:
    def test_wave_leading(self, wave):
        assert wave.reduce(S.utt) == S.u**2 * S.uxx + S.u * S.ux**2

    def test_thomas_leading(self, thomas):
        assert thomas.reduce(S.uxt) == \
            -(S.alpha * S.ux + S.beta * S.ut + S.gamma * S.ux * S.ut)

    def test_differential_consequence(self, wave):
        # D_x of the solved form, expanded by hand as the oracle
        uxxx = jet("u", "x", "x", "x")
        want = S.u**2 * uxxx + 4 * S.u * S.ux * S.uxx + S.ux**3
        assert wave.reduce(jet("u", "t", "t", "x")) == want

    def test_equations_vanish_on_solutions(self, wave, thomas, klein_gordon):
        for sys in (wave, thomas, klein_gordon):
            for eq in sys.equations:
                assert sys.reduce(eq).is_zero

    def test_idempotence_seeded(self, wave):
        rng = random.Random(2718)
        pool = (S.u_at, S.ux_at, S.ut_at, S.utt_at, jet_atom("u", "t", "t", "x"),
                S.x_at, S.t_at)
        for i in range(100):
            e = random_expr(rng, pool=pool)
            r = wave.reduce(e)
            assert wave.reduce(r) == r, f"case {i} (seed 2718)"

    def test_ring_homomorphism_seeded(self, thomas):
        rng = random.Random(1618)
        pool = (S.u_at, S.ux_at, S.ut_at, S.uxt_at, S.x_at)
        for i in range(100):
            a = random_expr(rng, pool=pool, max_terms=2)
            b = random_expr(rng, pool=pool, max_terms=2)
            c = random_expr(rng, pool=pool, max_terms=2)
            lhs = thomas.reduce(a * b + c)
            rhs = thomas.reduce(thomas.reduce(a) * thomas.reduce(b) + thomas.reduce(c))
            assert lhs == rhs, f"case {i} (seed 1618)"

    def test_reduce_commutes_with_total_derivative(self, wave):
        rng = random.Random(555)
        pool = (S.u_at, S.ux_at, S.ut_at, S.utt_at, S.x_at)
        for i in range(60):
            e = random_expr(rng, pool=pool, max_terms=2)
            for var in ("t", "x"):
                lhs = wave.reduce(total_derivative(e, var))
                rhs = wave.reduce(total_derivative(wave.reduce(e), var))
                assert lhs == rhs, f"case {i} var {var} (seed 555)"

    @pytest.mark.parametrize("name", ["thomas_f", "wave", "kdv5"])
    def test_warm_image_table_matches_a_fresh_copy(self, name, request):
        """One system reduces a seeded, shuffled list of expressions, its
        memo and image table warming as it goes; each result equals the
        reduction on a fresh copy, which starts with both empty."""
        xt = (S.x_at, S.t_at)
        f = [OpaqueDeriv("f", xt, k) for k in ((1, 0), (1, 1), (2, 1))]
        leads = {
            # leading u_xt, a rule for f_xt; exponentials of the first three
            "thomas_f": (jet_atom("u", "x", "t"), f[0], jet_atom("u", *"xxt"),
                         f[1], f[2], S.u_at, S.ux_at, S.ut_at, S.x_at),
            "wave": (S.utt_at, jet_atom("u", *"ttx"), S.u_at, S.ux_at,
                     jet_atom("u", *"ttt"), S.x_at, S.t_at),
            "kdv5": (S.ut_at, jet_atom("u", "t", "x"), S.u_at,
                     jet_atom("u", "t", "t"), S.ux_at, S.uxx_at, S.x_at),
        }
        if name == "kdv5":
            E = (S.ut + 30 * S.u**2 * S.ux + 20 * S.ux * S.uxx
                 + 10 * S.u * jet("u", *"xxx") + jet("u", *"xxxxx"))
            sys = solve_leading(["t", "x"], ["u"], [E], [S.ut_at], ["kdv5"])
        else:
            sys = request.getfixturevalue(name)
        warm = sys.with_solved(sys.solved)
        rng = random.Random(2025)
        pool = leads[name]
        exprs = [random_expr(rng, pool=pool, max_terms=3, allow_exp=True)
                 for _ in range(60)]
        exprs += exprs[:20]
        rng.shuffle(exprs)
        for i, e in enumerate(exprs):
            assert warm.reduce(e) == sys.with_solved(sys.solved).reduce(e), \
                f"case {i} (seed 2025)"
        assert warm._images and warm._cache

    def test_shared_system_across_threads(self):
        import concurrent.futures

        E = S.utt - S.u**2 * S.uxx - S.u * S.ux**2
        sys = solve_leading(["t", "x"], ["u"], [E])
        probe = S.x * jet("u", "t", "t", "x") * S.ut + S.utt**2
        expected = sys.reduce(probe)
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            fresh = solve_leading(["t", "x"], ["u"], [E])
            results = list(pool.map(fresh.reduce, [probe] * 32))
        assert all(r == expected for r in results)
