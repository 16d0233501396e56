"""Randomized algebraic-law suites (each at least 100 cases).

Hypothesis drives the expression-level laws (its failure output includes
the reproducing example and seed); the jet/system suites use explicit
seeds printed in the assertion message.
"""

import copy
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conslaw_kit.determining import e_decompose
from conslaw_kit.expr import (Atom, Coeff, ExpAtom, ExpConst, Expr, JetVar,
                              OpaqueDeriv, Parameter, Poly, atom_expr,
                              exp_of, normalize, partial, substitute)
from conslaw_kit.expr.expression import jet, jet_atom, sum_exprs
from conslaw_kit.jet import total_derivative
from conslaw_kit.variational import (Characteristic, adjoint_linearize,
                                     euler, linearize)

from conftest import DEFAULT_POOL, Syms as S, random_expr, random_tree

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
        keys = [t.powers_key() for t in total.terms]
        assert all(not t.coeff.is_zero for t in total.terms)
        assert all(a > b for a, b in zip(keys, keys[1:]))


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
                eta = Characteristic.of(
                    random_expr(rng, pool=SMALL_POOL, max_terms=2))
                omega = Characteristic.of(
                    random_expr(rng, pool=SMALL_POOL, max_terms=2))
                le = linearize(sys, eta)
                ae = adjoint_linearize(sys, omega)
                pairing = omega.components[0] * le[0] \
                    - eta.components[0] * ae[0]
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
    for t in e.terms:
        piece = Expr.from_coeff(t.coeff)
        for a, k in t.powers:
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
        plain = sorted(DEFAULT_POOL, key=lambda a: a.sort_key())
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
            for tx, ty in zip(x.terms, y.terms):
                assert [hash(p) for p in tx.powers] == \
                    [hash(p) for p in ty.powers]

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

    def test_no_instance_dict(self):
        g = OpaqueDeriv("g", (S.u_at,), (1,))
        e = (exp_of(S.u * S.x) * S.ux + atom_expr(g) * S.alpha
             + atom_expr(ExpConst(Fraction(1, 2))))
        coeffs = [t.coeff for t in e.terms]
        objs = [e, *e.terms, *_atoms_deep(e), Parameter("alpha", True),
                *coeffs, *(c.num for c in coeffs)]
        kinds = {type(o) for o in objs}
        assert set(Atom.__subclasses__()) | {Poly, Coeff} <= kinds
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
                               env={"PYTHONHASHSEED": seed,
                                    "PYTHONPATH": src})
            assert r.returncode == 0, r.stderr.decode()
            blob = r.stdout
