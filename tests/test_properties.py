"""Randomized algebraic-law suites (each at least 100 cases).

Hypothesis drives the expression-level laws (its failure output includes
the reproducing example and seed); the jet/system suites use explicit
seeds printed in the assertion message.
"""

import copy
import functools
import itertools
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from conslaw_kit.determining import e_decompose
from conslaw_kit.dsl import load_session, run_session_command
from conslaw_kit.dsl.report import Report, emit
from conslaw_kit.expr import (Atom, ExpAtom, Expr,
                              IndependentVar, JetVar, MultiIndex,
                              OpaqueDeriv, Parameter, Poly,
                              atom_expr, exp_of, normalize, param, partial,
                              substitute)
from conslaw_kit.expr.coeff import as_poly, term_coeff
from conslaw_kit.expr.expression import jet, jet_atom, sum_exprs
from conslaw_kit.expr import printer
from conslaw_kit.expr.printer import (_atom_display_key, atom_text,
                                      expr_latex, expr_text)
from conslaw_kit.jet import PdeSystem, solve_leading, total_derivative
from conslaw_kit.variational import adjoint_linearize, euler, linearize

from conftest import (DEFAULT_POOL, Syms as S, child_env, random_expr,
                      random_tree, two_step_replacement)

SMALL_POOL = (S.u_at, S.ux_at, S.ut_at, S.x_at, S.t_at)

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def exprs(draw, allow_exp=True, max_terms=3):
    total = Expr.zero()
    for _ in range(draw(st.integers(1, max_terms))):
        term = Expr.const(draw(fractions) or 1)
        for _ in range(draw(st.integers(0, 3))):
            term = term * atom_expr(draw(st.sampled_from(SMALL_POOL)))
        if allow_exp and draw(st.booleans()) and draw(st.booleans()):
            inner = atom_expr(draw(st.sampled_from(SMALL_POOL[:3])))
            term = term * exp_of(inner.scale(draw(st.integers(1, 2))))
        total = total + term
    return total


COMMON = settings(max_examples=120, deadline=None)


class TestSumExprs:
    @COMMON
    @given(st.lists(exprs(), max_size=6), st.data())
    def test_fold_laws(self, xs, data):
        total = sum_exprs(xs)
        assert sum_exprs(data.draw(st.permutations(xs))) == total
        k = data.draw(st.integers(0, len(xs)))
        assert sum_exprs([sum_exprs(xs[:k]), sum_exprs(xs[k:])]) == total
        for x in xs:
            assert sum_exprs([x, -x]).is_zero
            assert sum_exprs([x]) == x
        # canonical: no zero coefficient, power products strictly decreasing
        keys = [p for p, _ in total.terms]
        assert all(not as_poly(c).is_zero for _, c in total.terms)
        assert all(a > b for a, b in zip(keys, keys[1:]))


# -- term coefficients: a plain number unless it holds a parameter ------

PLAIN_B = param("b")
ALPHA_AT = Parameter("alpha", nonzero=True)
PARAM_POOL = SMALL_POOL + (ALPHA_AT, Parameter("b"))
DIVISORS = (Expr.const(3), Expr.const(Fraction(-2, 3)), S.alpha,
            2 * S.alpha ** 2, -S.alpha * S.beta / 4)


@st.composite
def param_exprs(draw, max_terms=3):
    """Sums of rational times atom terms over `PARAM_POOL`, some divided
    by a unit in nonzero parameters and some times e^(q*u + b*x)."""
    total = Expr.zero()
    for _ in range(draw(st.integers(1, max_terms))):
        term = Expr.const(draw(fractions) or 1)
        for _ in range(draw(st.integers(0, 3))):
            term = term * atom_expr(draw(st.sampled_from(PARAM_POOL)))
        if draw(st.booleans()):
            term = term / draw(st.sampled_from(DIVISORS))
        if draw(st.booleans()) and draw(st.booleans()):
            term = term * exp_of(S.u.scale(draw(fractions) or 1)
                                 + PLAIN_B * S.x)
        total = total + term
    return total


def assert_canonical(e: Expr) -> None:
    """No term of e, or of an exponent inside it, carries a zero, an
    integral `Fraction` or a constant `Poly`."""
    for powers, c in e.terms:
        if isinstance(c, Poly):
            assert c.parameters() and term_coeff(c) is c, c
        else:
            assert type(c) is int or (type(c) is Fraction
                                      and c.denominator > 1), c
            assert c != 0
        for a, _ in powers:
            if isinstance(a, ExpAtom):
                assert_canonical(a.exponent)


class TestCanonicalCoefficients:
    @settings(max_examples=150, deadline=None)
    @given(param_exprs(), param_exprs(), fractions,
           st.sampled_from(DIVISORS), st.integers(0, 3))
    def test_every_operation_keeps_the_form(self, a, b, q, d, n):
        results = [
            a + b, a - b, a + (-a), a * b, -a, a.scale(q), a / d,
            (a * d) / d, a ** n, substitute(a, {S.u_at: b}),
            substitute(a, {S.u_at: S.alpha / d}),
            total_derivative(a, "x"), total_derivative(a * b, "t"),
            # exponential folding: e^a e^(b - a) -> e^b, to 1 when b = 0
            exp_of(a) * exp_of(b - a), exp_of(a) * exp_of(-a),
            normalize(a * b - b), sum_exprs([a, b, -a, a * d / d]),
        ]
        for r in results:
            assert_canonical(r)
        assert (a * d) / d == a

    def test_a_unit_times_its_inverse_is_the_int_one(self):
        for a in (S.alpha, 2 * S.alpha ** 2 / 3, -S.alpha * S.beta):
            one = a * (1 / a)
            assert one == Expr.const(1)
            assert type(one.terms[0][1]) is int

    def test_halves_sum_to_an_int(self):
        e = S.u / 2 + S.u / 2
        assert e.terms == ((((S.u_at, 1),), 1),) and type(e.terms[0][1]) is int
        assert (Fraction(1, 3) * S.ux + Fraction(2, 3) * S.ux).terms[0][1] == 1

    def test_two_routes_are_equal_and_hash_alike(self):
        pairs = [
            ((S.alpha + 1) * S.u - S.alpha * S.u, S.u),
            (S.alpha * S.u / S.alpha, Expr.const(Fraction(3, 2)) * S.u * 2 / 3),
            ((PLAIN_B + S.alpha) * S.x - S.alpha * S.x, PLAIN_B * S.x),
            (exp_of(S.u / 2 + S.u / 2), exp_of(S.alpha * S.u / S.alpha)),
        ]
        for x, y in pairs:
            assert x == y and hash(x) == hash(y) and x.terms == y.terms
            assert_canonical(x)

    def test_poly_boundaries(self):
        assert Expr.from_coeff(Poly.const(2)) == Expr.const(2)
        assert Expr.from_coeff(Poly.zero()) == Expr.zero()
        assert type(Expr.from_coeff(Poly.const(2)).terms[0][1]) is int
        assert Expr.from_coeff(Fraction(4, 2)) == Expr.const(2)
        assert type(Expr.from_coeff(Fraction(4, 2)).terms[0][1]) is int
        assert Expr.from_coeff(Fraction(0)) == Expr.zero()
        with pytest.raises(TypeError):
            Expr.from_coeff(0.5)
        for e, want in ((Expr.const(2), Poly.const(2)),
                        (Expr.zero(), Poly.zero()),
                        (S.alpha / 2,
                         Poly.param(ALPHA_AT).scale(Fraction(1, 2)))):
            assert isinstance(e.as_coeff(), Poly) and e.as_coeff() == want
        assert S.u.as_coeff() is None


class TestNormalizeLaws:
    @COMMON
    @given(exprs(), exprs())
    def test_idempotence(self, a, b):
        e = a * b + a - b
        once = normalize(e)
        assert normalize(once) == once

    @COMMON
    @given(exprs(), exprs(), exprs())
    def test_ring_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @COMMON
    @given(exprs(), exprs(), exprs())
    def test_associativity(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert (a + b) + c == a + (b + c)

    @COMMON
    @given(exprs(allow_exp=False), exprs(allow_exp=False))
    def test_exp_homomorphism(self, a, b):
        assert exp_of(a) * exp_of(b) == exp_of(a + b)


class TestEulerAnnihilatesDivergences:
    @COMMON
    @given(exprs())
    def test_x_and_t_divergences(self, e):
        assert euler(total_derivative(e, "x"), "u").is_zero
        assert euler(total_derivative(e, "t"), "u").is_zero

    def test_seeded_bulk(self):
        rng = random.Random(808)
        for i in range(120):
            e = random_expr(rng, pool=DEFAULT_POOL, max_terms=3,
                            allow_exp=True)
            var = "x" if i % 2 else "t"
            assert euler(total_derivative(e, var), "u").is_zero, \
                f"case {i} (seed 808)"


class TestDivergencePairing:
    def test_pairing_vanishes(self, wave, thomas):
        rng = random.Random(60221023)
        count = 0
        for sys in (wave, thomas):
            for i in range(55):
                eta = random_expr(rng, pool=SMALL_POOL, max_terms=2)
                omega = random_expr(rng, pool=SMALL_POOL, max_terms=2)
                le = linearize(sys, eta)
                ae = adjoint_linearize(sys, omega)
                pairing = omega * le[0] - eta * ae[0]
                assert euler(pairing, "u").is_zero, \
                    f"{sys.eq_names[0]} case {i} (seed 60221023)"
                count += 1
        assert count >= 100


class TestReduceLaws:
    def test_idempotence_and_projection(self, wave, thomas):
        rng = random.Random(1729)
        pools = {
            id(wave): (S.u_at, S.ux_at, S.ut_at, S.utt_at, S.uxx_at, S.x_at),
            id(thomas): (S.u_at, S.ux_at, S.ut_at, S.uxt_at, S.t_at),
        }
        count = 0
        for sys in (wave, thomas):
            for i in range(55):
                e = random_expr(rng, pool=pools[id(sys)], max_terms=3)
                r = sys.reduce(e)
                assert sys.reduce(r) == r, \
                    f"{sys.eq_names[0]} case {i} (seed 1729)"
                count += 1
        assert count >= 100

    def test_ring_homomorphism(self, wave):
        rng = random.Random(4104)
        pool = (S.u_at, S.ux_at, S.ut_at, S.utt_at, S.x_at)
        for i in range(110):
            a = random_expr(rng, pool=pool, max_terms=2)
            b = random_expr(rng, pool=pool, max_terms=2)
            c = random_expr(rng, pool=pool, max_terms=2)
            assert wave.reduce(a * b + c) == wave.reduce(
                wave.reduce(a) * wave.reduce(b) + wave.reduce(c)), \
                f"case {i} (seed 4104)"


class TestEDecomposeReassembly:
    def test_exactness(self, wave, thomas):
        rng = random.Random(9001)
        pools = {
            id(wave): (S.u_at, S.ux_at, S.ut_at, S.utt_at, S.uxx_at, S.x_at),
            id(thomas): (S.u_at, S.ux_at, S.ut_at, S.uxt_at, S.t_at),
        }
        count = 0
        for sys in (wave, thomas):
            for i in range(55):
                e = random_expr(rng, pool=pools[id(sys)], max_terms=3)
                d = e_decompose(e, sys)
                assert d.reassemble() == e, \
                    f"{sys.eq_names[0]} case {i} (seed 9001)"
                count += 1
        assert count >= 100


ROOT = Path(__file__).resolve().parents[1]


def session_system(path: str) -> PdeSystem:
    return load_session((ROOT / path).read_text(encoding="utf-8")
                        ).require_system()


def replacement_entries(sys: PdeSystem) -> dict:
    """The (i, extra) -> replacement entries of a system's memo."""
    return {k: v for k, v in sys._cache.items() if isinstance(k, tuple)
            and len(k) == 2 and isinstance(k[1], MultiIndex)}


class TestReducedDivergence:
    """`PdeSystem.reduced_divergence` forms the summed total derivatives
    on the solution manifold in one gather; it must equal `reduce` of
    their sum, on reduced and unreduced input."""

    @staticmethod
    def systems(wave):
        xt = (S.x_at, S.t_at)
        f = [OpaqueDeriv("f", xt, k) for k in ((1, 0), (1, 1), (2, 1))]
        b = [OpaqueDeriv("B", xt, k) for k in ((0, 0), (0, 1), (1, 1))]
        two = solve_leading(
            ["t", "x"], ["u", "v"],
            [S.ut - jet("v", "x"), jet("v", "t") - S.ux],
            [S.ut_at, jet_atom("v", "t")], eq_names=["eqU", "eqV"])
        return {
            "wave": (wave, (S.u_at, S.ux_at, S.ut_at, S.utt_at, S.uxx_at,
                            S.x_at, S.t_at)),
            # rules on f and B, parameters, exponentials with parameters
            "thomas": (session_system("src/conslaw_kit/corpus/thomas.cl"),
                       (S.u_at, S.ut_at, S.ux_at, S.uxt_at, *f, *b,
                        ALPHA_AT, S.x_at, S.t_at)),
            "kdv5": (session_system("perfbench/sessions/kdv5-conslaw.cl"),
                     (S.u_at, S.ux_at, S.ut_at, S.uxx_at,
                      jet_atom("u", "t", "x"), jet_atom("u", *"xxx"),
                      S.x_at)),
            "first_order_wave": (two, (S.u_at, jet_atom("v"), S.ut_at,
                                       jet_atom("v", "t"), S.ux_at,
                                       jet_atom("v", "x"),
                                       jet_atom("u", "t", "x"), S.x_at)),
        }

    def test_equals_reduce_of_the_total_derivatives(self, wave):
        rng = random.Random(3939)
        exponent = S.gamma * S.u + S.alpha * S.t - S.beta * S.x
        count = 0
        for name, (sys, pool) in self.systems(wave).items():
            fused = sys.with_solved(sys.solved)
            with mock.patch.object(PdeSystem, "replacement",
                                   two_step_replacement):
                ref = sys.with_solved(sys.solved)
            for i in range(30):
                es = []
                for _ in sys.indep:
                    e = random_expr(rng, pool=pool, max_terms=3,
                                    allow_exp=True)
                    if name == "thomas" and rng.random() < 0.3:
                        e = e * exp_of(exponent)
                    es.append(e if rng.random() < 0.5 else fused.reduce(e))
                var = rng.choice(sys.indep)
                with mock.patch.object(PdeSystem, "replacement",
                                       two_step_replacement):
                    one = ref.reduce(total_derivative(es[0], var))
                    div = ref.reduce(sum_exprs(
                        total_derivative(e, v) for v, e in zip(sys.indep, es)))
                where = f"{name} case {i} (seed 3939)"
                assert fused.reduced_divergence(((var, es[0]),)) == one, where
                assert fused.reduced_divergence(zip(sys.indep, es)) == div, \
                    where
                count += 1
        assert count >= 100

    @pytest.mark.parametrize("name", ["wave.cl", "thomas.cl",
                                      "klein-gordon.cl"])
    def test_corpus_replacements_match_the_two_step_chain(self, name):
        """Every replacement table entry a corpus `run` fills, in the
        system and in its `e_decompose` shadow, equals the entry a cold
        copy builds by differentiating, then reducing."""
        session = load_session((ROOT / "src" / "conslaw_kit" / "corpus" /
                                name).read_text(encoding="utf-8"))
        for cmd in session.commands:
            run_session_command(session, cmd)
        sys = session.require_system()
        systems = [sys]
        if "e_decompose" in sys._cache:   # wave and Thomas verify vectors
            systems.append(sys._cache["e_decompose"][1])
        with mock.patch.object(PdeSystem, "replacement",
                               two_step_replacement):
            for warm in systems:
                entries = replacement_entries(warm)
                assert any(k[1].order for k in entries), name
                cold = warm.with_solved(warm.solved)
                for (i, extra), value in entries.items():
                    assert cold.replacement(i, extra) == value, (name, i, extra)


class TestPartialDerivation:
    @COMMON
    @given(exprs(), exprs(), st.sampled_from(SMALL_POOL))
    def test_leibniz(self, a, b, at):
        from conslaw_kit.expr import partial
        assert partial(a * b, at) == partial(a, at) * b + a * partial(b, at)


def reference_substitute(e: Expr, binds: dict) -> Expr:
    """The term-by-term product `substitute` used to compute: every factor
    of every term rebuilt as image(atom)**k and multiplied in."""
    def image(a):
        if a in binds:
            return binds[a]
        if isinstance(a, ExpAtom):
            return exp_of(reference_substitute(a.exponent, binds))
        return atom_expr(a)
    pieces = []
    for powers, c in e.terms:
        piece = Expr.from_coeff(c)
        for a, k in powers:
            piece = piece * image(a) ** k
        pieces.append(piece)
    return sum_exprs(pieces)


class TestSubstitute:
    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False), st.data())
    def test_matches_term_by_term_product(self, rng, data):
        e = random_expr(rng, max_terms=4, allow_exp=True)
        if data.draw(st.booleans()):
            # u -> x (or to a constant) collapses this exponent to 0 (or
            # to a rational): the folding path of the product
            e = e * (S.ux + 1) * exp_of(S.u - S.x)
        plain = sorted(DEFAULT_POOL)
        bound = data.draw(st.lists(st.sampled_from(plain), min_size=1,
                                   max_size=4, unique=True))
        values = st.sampled_from(("zero", "const", "x", "expr", "exp"))
        binds = {}
        for a in bound:
            kind = data.draw(values)
            binds[a] = {
                "zero": lambda: Expr.zero(),
                "const": lambda: Expr.const(data.draw(fractions)),
                "x": lambda: S.x,
                "expr": lambda: random_expr(rng, max_terms=3),
                "exp": lambda: random_expr(rng, max_terms=2, allow_exp=True),
            }[kind]()
        assert substitute(e, binds) == reference_substitute(e, binds)

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False), st.data())
    def test_shared_keys_and_unmoved_terms(self, rng, data):
        """Several rests on each moving key, keys of two atoms, of a power
        and of a moving exponential, terms with no moving factor, and
        images that are zero or exponentials that fold."""
        moving = data.draw(st.lists(st.sampled_from(sorted(DEFAULT_POOL)),
                                    min_size=1, max_size=2, unique=True))
        fixed = [a for a in sorted(DEFAULT_POOL) if a not in moving]
        m0, m1 = atom_expr(moving[0]), atom_expr(moving[-1])
        f0 = atom_expr(fixed[0])
        keys = (m0, m0 * m1, m1 ** 3, m1 * exp_of(m0 + f0))
        e = random_expr(rng, fixed, max_terms=3)
        for key in keys:
            for _ in range(data.draw(st.integers(0, 3))):
                e = e + key * random_expr(rng, fixed, max_terms=2)
        values = st.sampled_from(("zero", "const", "expr", "exp", "fold"))
        binds = {}
        for a in moving:
            binds[a] = {
                "zero": lambda: Expr.zero(),
                "const": lambda: Expr.const(data.draw(fractions)),
                "expr": lambda: random_expr(rng, max_terms=3),
                "exp": lambda: random_expr(rng, max_terms=2, allow_exp=True),
                # as the image of m1, meets e^(m0 + f0) in the image
                # product, and e^(-f0) cancels f0
                "fold": lambda: exp_of(-f0),
            }[data.draw(values)]()
        assert substitute(e, binds) == reference_substitute(e, binds)

    def test_each_key_its_own_image(self):
        u, ux, x, t = S.u, S.ux, S.x, S.t
        # one key, three rests; u_t and x pass through
        e = u * x + u * t**2 + 3 * u * S.ut + S.ut + x
        assert (substitute(e, {S.u_at: t + 1})
                == (t + 1) * (x + t**2 + 3 * S.ut) + S.ut + x)
        # keys u*u_x, u^2 and u_x^3, each with its own rest
        e = u * ux * x + u**2 * t + ux**3 * S.ut + 2
        assert (substitute(e, {S.u_at: x - t, S.ux_at: t})
                == (x - t) * t * x + (x - t)**2 * t + t**3 * S.ut + 2)
        # a zero image removes its terms alone
        assert substitute(u * x + ux * t + S.ut, {S.u_at: 0}) == ux * t + S.ut
        # e^u moves with u: e^x, times u_x's image e^-x, folds to 1
        e = ux * exp_of(u) * t + exp_of(u) + ux
        assert (substitute(e, {S.u_at: x, S.ux_at: exp_of(-x)})
                == t + exp_of(x) + exp_of(-x))


def _atoms_deep(e: Expr):
    """Every atom of `e`, those inside exponents included, and the
    multi-indices of its jet atoms."""
    for a in e.atoms():
        yield a
        if isinstance(a, JetVar):
            yield a.index


class TestHashContract:
    """Expressions and atoms cache their hash and sort key the first time
    each is asked for; the cached values must agree with ==, whatever
    built the object and whenever the cache was filled."""

    @COMMON
    @given(param_exprs())
    def test_exp_atom_hashes_as_its_exponent(self, e):
        """An `ExpAtom` reads the hash its exponent caches when the atom
        is built, also of an exponent never hashed before and of a copy
        or a pickle, which rebuild the exponent."""
        if e.is_zero:
            return
        fresh = Expr(e.terms)
        a = ExpAtom(fresh)
        assert hash(a) == hash(fresh) == hash(e)
        for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a),
                     copy.deepcopy(a)):
            assert twin == a and hash(twin) == hash(e)
            assert hash(twin.exponent) == hash(e)

    W = jet_atom("w")   # not in the random pool: a slot for substitute

    @COMMON
    @given(st.randoms(use_true_random=False), st.data())
    def test_equal_by_every_route(self, rng, data):
        a, b, c = (random_expr(rng, max_terms=4, allow_exp=True)
                   for _ in range(3))
        perm = data.draw(st.permutations([a, b, c]))
        routes = [
            (a + b, b + a),
            (a * b, b * a),
            (sum_exprs([a, b, c]), sum_exprs(perm)),
            (substitute(atom_expr(self.W) * a + c, {self.W: b}), a * b + c),
            (exp_of(a) * exp_of(b), exp_of(a + b)),
            (normalize(a * b - c), a * b - c),
            (pickle.loads(pickle.dumps(a)), a),
            (copy.deepcopy(c), c),
        ]
        for x, y in routes:
            assert x == y
            assert hash(x) == hash(y)
            assert x.sort_key() == y.sort_key()
            for (px, _), (py, _) in zip(x.terms, y.terms):
                assert [hash(p) for p in px] == [hash(p) for p in py]

    @COMMON
    @given(st.integers(0, 2**32))
    def test_filling_caches_first_changes_nothing(self, seed):
        def outcome(warm: bool):
            rng = random.Random(seed)
            xs = [random_expr(rng, max_terms=4, allow_exp=True)
                  for _ in range(4)]
            if warm:
                for x in xs:
                    hash(x), x.sort_key()
                    for obj in _atoms_deep(x):
                        hash(obj)
                        if isinstance(obj, ExpAtom):
                            obj.exponent.sort_key()
            a, b, c, d = xs
            made = [a * b, a + c - d, exp_of(a) * d, partial(b, S.u_at),
                    substitute(c, {S.u_at: d})]
            everything = xs + made
            return ([str(e) for e in everything],
                    [[e == f for f in everything] for e in everything],
                    sorted(range(len(everything)),
                           key=lambda i: everything[i].sort_key()))
        assert outcome(warm=True) == outcome(warm=False)

    # one parameter name with both flags: exponents that differ only in
    # the flag tie in Expr.sort_key, and must still sort one way
    FLAGS = (param("a", nonzero=True), param("a"), param("b", nonzero=True))

    @COMMON
    @given(st.lists(st.tuples(st.sampled_from(FLAGS),
                              st.sampled_from(SMALL_POOL),
                              st.sampled_from((None,) + SMALL_POOL)),
                    min_size=1, max_size=5), st.data())
    def test_both_flags_of_one_name_in_exponents(self, parts, data):
        pieces = [exp_of(p * atom_expr(a)) * (1 if f is None else atom_expr(f))
                  for p, a, f in parts]
        perm = data.draw(st.permutations(pieces))
        total = sum_exprs(pieces)
        for x in (sum_exprs(perm), functools.reduce(Expr.__add__, perm),
                  pickle.loads(pickle.dumps(total))):
            assert x == total and hash(x) == hash(total)
            assert str(x) == str(total)
        keys = [p for p, _ in total.terms]
        assert all(a > b for a, b in zip(keys, keys[1:]))
        product = functools.reduce(Expr.__mul__, pieces)
        assert functools.reduce(Expr.__mul__, perm) == product
        assert str(functools.reduce(Expr.__mul__, perm)) == str(product)

    def test_no_instance_dict(self):
        g = OpaqueDeriv("g", (S.u_at,), (1,))
        e = (exp_of(S.u * S.x) * S.ux + atom_expr(g) * S.alpha
             + atom_expr(ExpAtom(Expr.const(Fraction(1, 2)))))
        coeffs = [c for _, c in e.terms]
        objs = [e, *e.terms, *_atoms_deep(e), Parameter("alpha", True),
                *coeffs]
        kinds = {type(o) for o in objs}
        assert set(Atom.__subclasses__()) | {Poly} <= kinds
        for o in objs:
            assert not hasattr(o, "__dict__"), type(o).__name__

    def test_pickle_carries_no_cached_hash(self):
        # str hashes differ between processes: an unpickled expression
        # must rehash there, or it misses its own equal as a dict key
        build = ("from conslaw_kit.expr import exp_of, ivar, opaque\n"
                 "from conslaw_kit.expr.expression import jet, jet_atom\n"
                 "e = exp_of(jet('u').scale(2)) * jet('u', 'x') "
                 "+ opaque('g', jet_atom('u')) + ivar('x')\n")
        dump = build + ("import pickle, sys\nhash(e), e.sort_key()\n"
                        "[hash(a) for a in e.atoms()]\n"
                        "sys.stdout.buffer.write(pickle.dumps(e))\n")
        load = build + ("import pickle, sys\n"
                        "x = pickle.loads(sys.stdin.buffer.read())\n"
                        "assert x == e and {e: 1}[x] == 1\n"
                        "assert x.atoms() == e.atoms()\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        blob = None
        for seed, script in (("1", dump), ("2", load)):
            r = subprocess.run([sys.executable, "-c", script], input=blob,
                               capture_output=True, timeout=60,
                               env=child_env({"PYTHONHASHSEED": seed,
                                              "PYTHONPATH": src}))
            assert r.returncode == 0, r.stderr.decode()
            blob = r.stdout


# -- atom order against the sort keys atoms had before they were tuples ---

def reference_index_key(m: MultiIndex):
    return (sum(c for _, c in m.counts), m.counts)


def reference_atom_key(a, tiebreak=False):
    """A copy of the former `Atom.sort_key()` formulas.  Those drop the
    nonzero flags of the parameters in an exponent's coefficients, so two
    exponents that differ only there tie.  With `tiebreak`, an `ExpAtom`
    key ends in its exponent's coefficients with their flags, the order
    `Expr.__lt__` breaks that tie by."""
    if isinstance(a, IndependentVar):
        return (0, a.name)
    if isinstance(a, Parameter):
        return (1, a.name, a.nonzero)
    if isinstance(a, OpaqueDeriv):
        return (2, a.func, sum(a.index), a.index,
                tuple(reference_atom_key(b, tiebreak) for b in a.args))
    if isinstance(a, JetVar):
        return (3, a.dep, reference_index_key(a.index))
    assert isinstance(a, ExpAtom)
    (powers, q), *rest = a.exponent.terms
    if not powers and not rest and not isinstance(q, Poly):
        return (4, 0, q)   # e^q for a rational q, the former `ExpConst`
    key = reference_expr_key(a.exponent, tiebreak)
    if not tiebreak:
        return (4, 1, key)
    def flagged(m):
        return tuple(((1, p.name, p.nonzero), k) for p, k in m)
    return (4, 1, key, (key, tuple(
        (tuple((flagged(m), q) for m, q in num.terms), flagged(den))
        for num, den in (as_poly(c).num_den()
                         for _, c in graded_terms(a.exponent)))))


def graded_terms(e: Expr) -> list:
    """The terms of `e` in the former term order, (degree, powers)
    descending."""
    return sorted(e.terms, key=lambda t: (sum(k for _, k in t[0]), t[0]),
                  reverse=True)


def reference_expr_key(e: Expr, tiebreak=False):
    """A copy of the former `Expr.sort_key()`: per term the degree, the
    keys of the factors, then the coefficient key without flags, the
    terms in the former term order."""
    def coeff_key(c):
        num, den = as_poly(c).num_den()
        return (tuple((tuple((p.name, k) for p, k in m), q)
                      for m, q in num.terms),
                tuple((p.name, k) for p, k in den))
    return tuple(((sum(k for _, k in powers),
                   tuple((reference_atom_key(a, tiebreak), k)
                         for a, k in powers)),
                  coeff_key(c)) for powers, c in graded_terms(e))


def flags_in(a) -> set:
    """The (name, nonzero) pairs of every parameter inside atom `a`."""
    if isinstance(a, Parameter):
        return {(a.name, a.nonzero)}
    if isinstance(a, OpaqueDeriv):
        return set().union(*map(flags_in, a.args))
    out = set()
    if isinstance(a, ExpAtom):
        for powers, c in a.exponent.terms:
            out |= {(p.name, p.nonzero) for p in as_poly(c).parameters()}
            for b, _ in powers:
                out |= flags_in(b)
    return out


def flag_twin(a):
    """`a` with the nonzero flag of every parameter in it flipped."""
    if isinstance(a, Parameter):
        return Parameter(a.name, not a.nonzero)
    if isinstance(a, OpaqueDeriv):
        return OpaqueDeriv(a.func, tuple(map(flag_twin, a.args)), a.index)
    if not isinstance(a, ExpAtom):
        return a
    def twin(factors):
        return functools.reduce(Expr.__mul__, (
            atom_expr(flag_twin(b)) ** k for b, k in factors), Expr.const(1))
    assert all(not as_poly(c).num_den()[1] for _, c in a.exponent.terms)
    return ExpAtom(sum_exprs(
        Expr.const(q) * twin(m) * twin(powers)
        for powers, c in a.exponent.terms for m, q in as_poly(c).terms))


DNAMES = st.sampled_from(("t", "x", "y"))
multi_indices = st.lists(DNAMES, max_size=5).map(lambda ns: MultiIndex.of(*ns))
parameters = st.builds(Parameter, st.sampled_from(("a", "b")), st.booleans())
plain_atoms = st.one_of(
    st.builds(IndependentVar, DNAMES), parameters,
    st.builds(JetVar, st.sampled_from(("u", "v")), multi_indices),
    st.sampled_from((Fraction(-1), Fraction(1, 2), 2)).map(
        lambda q: ExpAtom(Expr.const(q))))


@st.composite
def opaque_atoms(draw, args):
    xs = tuple(draw(st.lists(args, min_size=1, max_size=2)))
    idx = tuple(draw(st.lists(st.integers(0, 2), min_size=len(xs),
                              max_size=len(xs))))
    return OpaqueDeriv(draw(st.sampled_from(("f", "g"))), xs, idx)


@st.composite
def exp_atoms(draw, factors):
    """e^q, q a sum of parameter times atom terms."""
    q = sum_exprs(
        atom_expr(draw(parameters)) * atom_expr(draw(factors))
        * Expr.const(draw(st.sampled_from((1, -1, Fraction(1, 2)))))
        for _ in range(draw(st.integers(1, 2))))
    if q.is_zero:
        q = q + atom_expr(IndependentVar("x"))
    return ExpAtom(q)


atoms = st.recursive(
    plain_atoms, lambda kids: st.one_of(opaque_atoms(kids), exp_atoms(kids)),
    max_leaves=6)


def term_display_key(t):
    """The term order of the printer as it was before `_terms` built its
    keys from per-atom display data: degree descending, then the sorted
    display keys of the factors in run-length form, (key, -count) pairs
    with the counts of a shared key (`f(u)`, `f(v)`) merged, one dict
    per term."""
    counts: dict = {}
    for a, k in t[0]:
        key = _atom_display_key(a)
        counts[key] = counts.get(key, 0) + k
    return (-sum(counts.values()),
            sorted((key, -n) for key, n in counts.items()))


def reference_term_display_key(t):
    """`term_display_key` as it was before its run-length form: each
    factor's display key repeated once per unit of its exponent."""
    keys = []
    for a, k in t[0]:
        keys.extend([_atom_display_key(a)] * k)
    return (-sum(k for _, k in t[0]), sorted(keys))


class TestTermDisplayKey:
    # f(u) and f(u_x) share one display key
    SHARED = (OpaqueDeriv("f", (S.u_at,), (0,)),
              OpaqueDeriv("f", (S.ux_at,), (0,)))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(atoms, max_size=4, unique=True), st.data())
    def test_run_length_key_sorts_as_the_expanded_one(self, pool, data):
        pool = list(self.SHARED) + pool
        terms = [(tuple(
                    (a, data.draw(st.integers(1, 3))) for a in data.draw(
                        st.lists(st.sampled_from(pool), max_size=4,
                                 unique=True))), Poly.one())
                 for _ in range(data.draw(st.integers(1, 8)))]
        assert sorted(terms, key=term_display_key) == \
            sorted(terms, key=reference_term_display_key)
        for s, t in itertools.combinations(terms, 2):
            ks, kt = term_display_key(s), term_display_key(t)
            rs, rt = (reference_term_display_key(s),
                      reference_term_display_key(t))
            assert (ks < kt) == (rs < rt) and (ks == kt) == (rs == rt)

    # factors whose display keys tie: f(u) and f(u_x), and exponentials,
    # which all share one display key whatever their exponent
    TIED = (*SHARED, S.u_at, S.ux_at, S.x_at)
    EXPONENTS = (S.u, 2 * S.u, S.x, S.gamma * S.u)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_internal_order_never_reaches_the_printer(self, data):
        """Terms are kept by power product alone; the printed text is
        the same as with the terms in the former (degree, powers) order."""
        pieces = []
        for _ in range(data.draw(st.integers(1, 6))):
            piece = Expr.const(data.draw(st.integers(-3, 3)) or 1)
            for a in data.draw(st.lists(st.sampled_from(self.TIED),
                                        max_size=3)):
                piece = piece * atom_expr(a)
            exponent = data.draw(st.none() | st.sampled_from(self.EXPONENTS))
            if exponent is not None:
                piece = piece * exp_of(exponent)
            pieces.append(piece)
        e = sum_exprs(pieces)
        graded = Expr(tuple(graded_terms(e)))
        assert expr_text(e) == expr_text(graded)
        assert expr_latex(e) == expr_latex(graded)


def reference_terms(e, coeff, factor, times, pad, memo=None):
    """`printer._terms` as it was before it rendered each distinct atom
    once: every key and factor text computed per occurrence, in every
    expression afresh (`memo` is not read)."""
    if e.is_zero:
        return "0"
    pieces = []
    for t in sorted(e.terms, key=term_display_key):
        neg, ctext = coeff(t[1])
        factors = [factor(a, k) for a, k in
                   sorted(t[0], key=lambda ak: printer._factor_key(ak[0]))]
        if ctext != "1" or not factors:
            factors.insert(0, ctext)
        pieces.append((neg, times.join(factors)))
    return printer._signed_sum(pieces, pad)


class TestPrinterRendersEachAtomOnce:
    # f(u) and f(v) share one display key; exponentials all share theirs
    SHARED = (OpaqueDeriv("f", (S.u_at,), (0,)),
              OpaqueDeriv("f", (JetVar("v"),), (0,)))
    POOL = (*SHARED, S.u_at, S.ux_at, JetVar("v", MultiIndex.of("x")),
            S.x_at, S.t_at, OpaqueDeriv("f", (S.u_at,), (1,)))
    EXPONENTS = (S.u, 2 * S.u + 4 * S.x, S.gamma * S.u + S.alpha * S.t,
                 exp_of(S.x) * S.ux)
    COEFFS = (Expr.const(1), Expr.const(-1), Expr.const(Fraction(-3, 2)),
              S.alpha, -S.alpha / S.beta, S.alpha + S.beta)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_text_and_latex_match_the_reference(self, data):
        """An atom at several powers across terms, f(u) beside f(v), and
        one exponential in many terms print as the reference does."""
        u, fu, fv = (atom_expr(a) for a in (S.u_at, *self.SHARED))
        ex = exp_of(data.draw(st.sampled_from(self.EXPONENTS)))
        pieces = [u, u**2 * ex, u**3 * fu * ex, fv**2 * fu * ex, fu * fv]
        for _ in range(data.draw(st.integers(0, 6))):
            piece = data.draw(st.sampled_from(self.COEFFS))
            for a in data.draw(st.lists(st.sampled_from(self.POOL),
                                        max_size=3, unique=True)):
                piece = piece * atom_expr(a) ** data.draw(st.integers(1, 3))
            if data.draw(st.booleans()):
                piece = piece * ex
            pieces.append(piece)
        e = sum_exprs(pieces)
        with mock.patch.object(printer, "_terms", reference_terms):
            want = expr_text(e), expr_latex(e)
        assert (expr_text(e), expr_latex(e)) == want

    @st.composite
    def every_atom_exprs(draw):
        """One to three sums of up to eight terms, each a coefficient (a
        `Poly` among them) times up to four atoms, at powers up to 3,
        drawn from a pool of every atom kind (parameters, nested opaque
        arguments and exponentials among them) beside f(u), f(v) and
        f(u_x), which share a display key."""
        pool = list(dict.fromkeys((
            *TestPrinterRendersEachAtomOnce.SHARED,
            *TestTermDisplayKey.SHARED,
            *draw(st.lists(atoms, max_size=4, unique=True)))))
        exprs = []
        for _ in range(draw(st.integers(1, 3))):
            pieces = []
            for _ in range(draw(st.integers(1, 8))):
                piece = draw(st.sampled_from(
                    TestPrinterRendersEachAtomOnce.COEFFS))
                for a in draw(st.lists(st.sampled_from(pool), max_size=4,
                                       unique=True)):
                    piece = piece * atom_expr(a) ** draw(st.integers(1, 3))
                pieces.append(piece)
            exprs.append(sum_exprs(pieces))
        return exprs

    # f'(a) and f'(b), a and b parameters, which LaTeX cannot print as
    # function arguments: f(u)*f'(b), shown first, must raise on b
    F_PRIME = (OpaqueDeriv("f", (Parameter("a", False),), (1,)),
               OpaqueDeriv("f", (Parameter("b", False),), (1,)))

    @settings(max_examples=300, deadline=None)
    @given(every_atom_exprs())
    @example([atom_expr(SHARED[0]) * atom_expr(F_PRIME[1])
              + atom_expr(F_PRIME[0]) + Expr.const(6)])
    def test_every_atom_kind_prints_as_the_reference(self, exprs):
        """Terms over every atom kind print as the reference does,
        expression by expression, when one memo per notation serves
        them all.  LaTeX has no form for a parameter as a function
        argument, which no session declares; both printers raise the
        same error on it, on the first such factor shown."""
        def printed(render, e, *memo):
            try:
                return render(e, *memo)
            except TypeError as ex:
                return repr(ex)

        text, latex = {}, {}
        got = [(expr_text(e, text), printed(expr_latex, e, latex))
               for e in exprs]
        with mock.patch.object(printer, "_terms", reference_terms):
            assert got == [(expr_text(e), printed(expr_latex, e))
                           for e in exprs]

    @st.composite
    def report_exprs(draw):
        """A sum of up to three terms whose factors f(u) and f(v) tie in
        display order, each times an atom or an exponential, and of up
        to four terms: a coefficient (a `Poly` among them) times atoms
        of `POOL` times, at times, an exponential, some of them
        nested."""
        C = TestPrinterRendersEachAtomOnce
        fu, fv = (atom_expr(a) for a in C.SHARED)
        pieces = [tie * other for tie, other in draw(st.lists(st.tuples(
            st.sampled_from((fu * fv, fu**2, fv**2 * fu, fu**3)),
            st.sampled_from(C.POOL).map(atom_expr)
            | st.sampled_from(C.EXPONENTS).map(exp_of)), max_size=3))]
        for _ in range(draw(st.integers(0, 4))):
            piece = draw(st.sampled_from(C.COEFFS))
            for a in draw(st.lists(st.sampled_from(C.POOL), max_size=3,
                                   unique=True)):
                piece = piece * atom_expr(a) ** draw(st.integers(1, 3))
            if draw(st.booleans()):
                piece = piece * exp_of(draw(st.sampled_from(C.EXPONENTS)))
            pieces.append(piece)
        return sum_exprs(pieces)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(report_exprs(), min_size=1, max_size=6), st.data())
    def test_reports_match_the_reference_expression_by_expression(
            self, xs, data):
        """A report renders an atom, a power or an expression once for
        all its expressions, in each notation; every format emits the
        bytes of the reference printer, which renders each expression
        on its own.  Expressions recur, as a law's raw and reduced
        components do."""
        pick = functools.partial(data.draw, st.sampled_from(xs))
        rep = Report(
            "conslaw", "zero", "",
            residuals=[(f"r{i}", pick()) for i in range(3)],
            vectors={c: {"reduced": e, "raw": data.draw(
                st.sampled_from((e, pick())))}
                for c, e in (("t", pick()), ("x", pick()))},
            identity={"terms": [("e", "x", pick()), ("e", "", pick())],
                      "remainder": pick()})
        got = [emit(rep, fmt) for fmt in ("json", "text", "latex")]
        with mock.patch.object(printer, "_terms", reference_terms):
            assert got == [emit(rep, fmt) for fmt in ("json", "text", "latex")]


class TestAtomOrder:
    """Atoms are tuples of their sort keys.  Where every parameter name
    carries one flag (as in every session: a name is declared once), the
    tuple order is the former `sort_key()` order.  Where a name carries
    both flags, the former keys could tie; the tuple order breaks that tie
    where it arises, at the `ExpAtom`."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(atoms, min_size=1, max_size=8), st.data())
    def test_matches_reference_comparator(self, xs, data):
        # flag twins: both flags of one name, so the former keys can tie
        xs = xs + [flag_twin(a) for a in data.draw(
            st.lists(st.sampled_from(xs), min_size=1, max_size=3))]
        assert [reference_atom_key(a, True) for a in sorted(xs)] == \
            sorted(reference_atom_key(a, True) for a in xs)
        for a, b in itertools.combinations(xs, 2):
            ka, kb = reference_atom_key(a), reference_atom_key(b)
            if a == b:
                assert ka == kb and hash(a) == hash(b)
                assert not (a < b or b < a)
                continue
            assert (a < b) != (b < a)
            assert reference_atom_key(a, True) != reference_atom_key(b, True)
            names = [n for n, _ in flags_in(a) | flags_in(b)]
            if len(names) == len(set(names)):   # one flag per name
                assert ka != kb and (a < b) == (ka < kb)
            elif ka == kb:      # a flag tie: only flags differ, text drops them
                assert atom_text(a) == atom_text(b)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(multi_indices, min_size=2, max_size=8))
    def test_multi_index_order(self, xs):
        assert [reference_index_key(m) for m in sorted(xs)] == \
            sorted(reference_index_key(m) for m in xs)
        for m in xs:
            assert tuple(m) == reference_index_key(m)
            assert m.order <= 5
