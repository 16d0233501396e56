"""Conserved vectors: assembly from the formal Lagrangian, divergence
verification, and equivalence against the published pairs."""

import functools
import itertools
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import conslaw_kit.determining as determining_module
import conslaw_kit.dsl.commands as commands_module
from conslaw_kit.cancel import deadline
from conslaw_kit.conslaw import (ConservedVector, Generator, _bracket_table,
                                 _divergence, compare_vectors,
                                 characteristic_W, ibragimov_vector,
                                 verify_divergence)
from conslaw_kit.determining import (TARGETS, _multiplier_substitution,
                                     _shadow, _substitution_residual,
                                     adjoint_symmetry_residual,
                                     differential_substitution_residual,
                                     e_decompose)
from conslaw_kit.dsl import load_session, run_session_command
from conslaw_kit.expr import (Expr, ExprError, JetVar, MultiIndex,
                              OpaqueDeriv, atom_expr, exp_of, rational)
from conslaw_kit.expr.errors import (CancelledComputation,
                                    TrivialSubstitutionError)
from conslaw_kit.expr.expression import jet, jet_atom, jet_gradient, sum_exprs
from conslaw_kit.jet import (PdeSystem, derivatives, solve_leading,
                             total_derivative)
from conslaw_kit.variational import formal_lagrangian

from conftest import Syms as S, random_expr, two_step_replacement
from test_jet import ref_jet_partial


V = jet("v")
ETA = jet("eta")


def paper_wave_pair():
    ct = (S.u - S.x * S.ux) * (S.u**2 * S.uxx + S.u * S.ux**2) \
        - S.ut * (S.ut - S.x * S.uxt)
    cx = S.u**2 * (S.x * S.ux - S.u) * S.uxt - S.x * S.u**2 * S.uxx * S.ut
    return ct, cx


class TestCharacteristicW:
    def test_evolutionary(self, wave):
        g = Generator.evolutionary(wave, -S.ut)
        assert characteristic_W(wave, g)[0] == -S.ut

    def test_time_translation(self, wave):
        g = Generator((Expr.const(1), Expr.zero()), (Expr.zero(),))
        assert characteristic_W(wave, g)[0] == -S.ut

    def test_scaling_generator(self, wave):
        g = Generator((Expr.zero(), S.x), (S.u,))
        assert characteristic_W(wave, g)[0] == S.u - S.x * S.ux

    def test_zero_generator_rejected(self):
        with pytest.raises(ExprError):
            Generator((Expr.zero(),), (Expr.zero(),))


class TestThomasProposition:
    def test_exact_pair_with_symbolic_eta_and_v(self, thomas):
        gen = Generator.evolutionary(thomas, ETA)
        vec = ibragimov_vector(thomas, gen)
        want_ct = (S.gamma * S.ux * V + S.beta * V
                   - rational(1, 2) * jet("v", "x")) * ETA \
            + rational(1, 2) * V * jet("eta", "x")
        want_cx = (S.gamma * S.ut * V + S.alpha * V
                   - rational(1, 2) * jet("v", "t")) * ETA \
            + rational(1, 2) * V * jet("eta", "t")
        assert vec.raw_components == (want_ct, want_cx)


class TestWaveConservedVector:
    def test_pipeline_and_printed_pair(self, wave):
        vec = ibragimov_vector(wave, Generator.evolutionary(wave, -S.ut),
                               S.u - S.x * S.ux)
        assert vec.substitution_ok
        rep = verify_divergence(wave, vec)
        assert rep.ok and rep.nontrivial
        res = compare_vectors(wave, vec.components, paper_wave_pair())
        assert res.equivalent and res.exact
        assert res.scale == Expr.const(-1)

    def test_paper_pair_is_itself_conserved(self, wave):
        rep = verify_divergence(wave, paper_wave_pair())
        assert rep.ok

    def test_negative_control(self, wave):
        rep = verify_divergence(wave, (S.ut, S.ux))
        assert not rep.ok
        assert not rep.decomposition.remainder.is_zero
        res = compare_vectors(wave, (S.ut, S.ux), paper_wave_pair())
        assert not res.equivalent

    def test_wrong_component_count_rejected(self, wave):
        """A vector needs one component per independent variable; a
        missing or extra component is not dropped by `zip`."""
        three = (S.ut, -S.u**2 * S.ux, S.ux)
        for vec in (three, three[:1]):
            with pytest.raises(ExprError, match="independent variables"):
                verify_divergence(wave, vec)
            with pytest.raises(ExprError, match="independent variables"):
                compare_vectors(wave, three[:2], vec)
            with pytest.raises(ExprError, match="independent variables"):
                compare_vectors(wave, vec, three[:2])

    def test_curl_pair_is_trivially_conserved(self, wave):
        # D_t(u_x) + D_x(-u_t) = 0 identically: conserved for any system.
        rep = verify_divergence(wave, (S.ux, -S.ut))
        assert rep.ok
        assert not rep.decomposition.coeffs


class TestThomasExample1:
    def test_pair_matches_at_parameter_unit_scale(self, thomas, thomas_theta):
        e2 = exp_of(2 * thomas_theta)
        phi = e2 * (S.ut + S.alpha / S.gamma)
        vec = ibragimov_vector(thomas, Generator.evolutionary(thomas, -S.ux), phi)
        assert verify_divergence(thomas, vec).ok
        ct = -e2 * (S.alpha * S.gamma * S.ux**2 + S.alpha * S.uxx
                    + S.gamma * (S.beta * S.ux + S.gamma * S.ux**2 + S.uxx) * S.ut)
        cx = e2 * (S.gamma * S.ux * S.utt + S.alpha**2 * S.ux
                   + S.alpha * (2 * S.gamma * S.ux + S.beta) * S.ut
                   + S.gamma * (S.gamma * S.ux + S.beta) * S.ut**2)
        res = compare_vectors(thomas, vec.components, (ct, cx))
        assert res.equivalent and res.exact
        assert res.scale == Expr.const(1) / (2 * S.gamma)


class TestThomasExample2:
    @pytest.fixture()
    def printed_pair(self, thomas_theta):
        f = atom_expr(OpaqueDeriv("f", (S.x_at, S.t_at)))
        fx = atom_expr(OpaqueDeriv("f", (S.x_at, S.t_at), (1, 0)))
        ft = atom_expr(OpaqueDeriv("f", (S.x_at, S.t_at), (0, 1)))
        eg = exp_of(S.gamma * S.u + 2 * S.alpha * S.t + 2 * S.beta * S.x)
        ct = eg * (fx * (S.gamma * S.ux + S.beta)
                   - S.gamma * f * (S.beta * S.ux + S.gamma * S.ux**2 + S.uxx))
        cx = eg * (ft * (S.gamma * S.ux + S.beta) + S.alpha * S.gamma * f * S.ux)
        return ct, cx

    @pytest.fixture()
    def residual_factor(self, thomas_theta):
        fx = atom_expr(OpaqueDeriv("f", (S.x_at, S.t_at), (1, 0)))
        ft = atom_expr(OpaqueDeriv("f", (S.x_at, S.t_at), (0, 1)))
        fxt = atom_expr(OpaqueDeriv("f", (S.x_at, S.t_at), (1, 1)))
        eg = exp_of(S.gamma * S.u + 2 * S.alpha * S.t + 2 * S.beta * S.x)
        return (fxt + S.alpha * fx + S.beta * ft) * (S.gamma * S.ux + S.beta) * eg

    def pipeline_vector(self, sys, thomas_theta):
        f = atom_expr(OpaqueDeriv("f", (S.x_at, S.t_at)))
        eta = f * exp_of(-S.gamma * S.u)
        phi = exp_of(2 * thomas_theta) * (S.ux + S.beta / S.gamma)
        return ibragimov_vector(sys, Generator.evolutionary(sys, eta), phi)

    def test_pipeline_matches_printed_pair_under_rule(
            self, thomas_f, thomas_theta, printed_pair):
        vec = self.pipeline_vector(thomas_f, thomas_theta)
        res = compare_vectors(thomas_f, vec.components, printed_pair)
        assert res.equivalent and res.exact
        assert res.scale == Expr.const(1) / (2 * S.gamma)

    def test_residual_factor_with_rule_disabled(
            self, thomas, thomas_theta, residual_factor):
        vec = self.pipeline_vector(thomas, thomas_theta)
        rep = verify_divergence(thomas, vec)
        # Exactly the published factor, at this representative's 1/gamma
        # normalization.
        assert rep.decomposition.remainder == residual_factor / S.gamma
        assert (rep.decomposition.remainder * S.gamma - residual_factor).is_zero

    def test_printed_pair_divergence_is_twice_the_printed_factor(
            self, thomas, printed_pair, residual_factor):
        # The published identity drops a factor 2: each component
        # contributes one (gamma u_x + beta) f_xt term.
        rep = verify_divergence(thomas, printed_pair)
        assert rep.decomposition.remainder == 2 * residual_factor

    def test_zero_residual_with_rule_enabled(
            self, thomas_f, thomas_theta, printed_pair):
        vec = self.pipeline_vector(thomas_f, thomas_theta)
        assert verify_divergence(thomas_f, vec).ok
        assert verify_divergence(thomas_f, printed_pair).ok


class TestThomasExample3:
    @pytest.fixture()
    def phi(self, thomas_theta):
        return (exp_of(2 * thomas_theta)
                * (S.x * S.ux - S.t * S.ut
                   + (S.beta * S.x - S.alpha * S.t) / S.gamma))

    def test_pipeline_vector_verifies(self, thomas, phi):
        vec = ibragimov_vector(thomas, Generator.evolutionary(thomas, -S.ut), phi)
        assert vec.substitution_ok
        rep = verify_divergence(thomas, vec)
        assert rep.ok and rep.nontrivial

    def test_printed_pair_fails_but_corrected_pair_matches(
            self, thomas, thomas_theta, phi):
        e2 = exp_of(2 * thomas_theta)
        bracket_rest = (
            S.alpha * (S.gamma * S.x * S.ux - S.alpha * S.t + S.beta * S.x) * S.ux
            + S.gamma * (2 * S.beta * S.x - S.alpha * S.t + 1) * S.ux * S.ut
            + S.beta * (S.beta * S.x - S.alpha * S.t + 1) * S.ut)
        printed_ct = -e2 * (S.gamma * S.x * S.uxx
                            + S.gamma**2 * S.x * S.ux**2 + bracket_rest)
        corrected_ct = -e2 * (S.gamma * S.x * S.uxx * S.ut
                              + S.gamma**2 * S.x * S.ux**2 * S.ut + bracket_rest)
        cx = e2 * ((S.gamma * S.x * S.ux - S.alpha * S.t + S.beta * S.x) * S.utt
                   + S.alpha * (S.gamma * S.x * S.ux + 1) * S.ut
                   + S.gamma * (S.gamma * S.x * S.ux + S.beta * S.x + 1) * S.ut**2)
        # As printed: divergence does not vanish on solutions.
        assert not verify_divergence(thomas, (printed_ct, cx)).ok
        # With the missing u_t factor restored: verifies and matches the
        # pipeline output exactly.
        assert verify_divergence(thomas, (corrected_ct, cx)).ok
        vec = ibragimov_vector(thomas, Generator.evolutionary(thomas, -S.ut), phi)
        res = compare_vectors(thomas, vec.components, (corrected_ct, cx))
        assert res.equivalent and res.exact
        assert res.scale == Expr.const(-1) / (2 * S.gamma)


class TestPipelineProperties:
    def test_symmetry_substitution_pairs_verify(self, wave, thomas, thomas_theta):
        e2 = exp_of(2 * thomas_theta)
        cases = [
            (wave, -S.ut, S.u - S.x * S.ux),
            (wave, -S.ut, S.ut),
            (wave, S.ux, S.u - S.x * S.ux),
            (thomas, -S.ux, e2 * (S.ut + S.alpha / S.gamma)),
            (thomas, -S.ut, e2 * (S.ux + S.beta / S.gamma)),
        ]
        for i, (sys, eta, phi) in enumerate(cases):
            vec = ibragimov_vector(sys, Generator.evolutionary(sys, eta), phi)
            assert verify_divergence(sys, vec).ok, f"case {i}"

    def test_bilinearity(self, thomas, thomas_theta):
        e2 = exp_of(2 * thomas_theta)
        phi1 = e2 * (S.ut + S.alpha / S.gamma)
        phi2 = e2 * (S.ux + S.beta / S.gamma)
        phi_sum = phi1 + phi2
        eta1, eta2 = -S.ux, -S.ut

        def comps(eta, phi):
            return ibragimov_vector(
                thomas, Generator.evolutionary(thomas, eta), phi).components

        # additive in the substitution
        a = comps(eta1, phi1)
        b = comps(eta1, phi2)
        c = comps(eta1, phi_sum)
        assert all((x + y - z).is_zero for x, y, z in zip(a, b, c))
        # additive in the generator
        d = comps(eta2, phi1)
        gen_sum = Generator.evolutionary(thomas, eta1 + eta2)
        e = ibragimov_vector(thomas, gen_sum, phi1).components
        assert all((x + y - z).is_zero for x, y, z in zip(a, d, e))

    def test_substitution_warning_flag(self, wave):
        vec = ibragimov_vector(wave, Generator.evolutionary(wave, -S.ut),
                               S.x * S.u)
        assert vec.substitution_ok is False

    def test_xi_term_enters_component(self, wave):
        # time translation in full (xi, eta) form gives the same law as the
        # evolutionary form, up to a trivial shift
        g_full = Generator((Expr.const(1), Expr.zero()), (Expr.zero(),))
        g_evol = Generator.evolutionary(wave, -S.ut)
        phi = S.u - S.x * S.ux
        a = ibragimov_vector(wave, g_full, phi)
        b = ibragimov_vector(wave, g_evol, phi)
        assert verify_divergence(wave, a).ok
        res = compare_vectors(wave, a.components, b.components)
        assert res.equivalent


ROOT = Path(__file__).resolve().parents[1]
CONSLAW_SESSIONS = ("src/conslaw_kit/corpus/wave.cl",
                    "src/conslaw_kit/corpus/thomas.cl",
                    "perfbench/sessions/kdv5-conslaw.cl")


def reference_raw_vector(sys, g, phi=None):
    """The pre-reduction components as assembled over ordered tuples,
    before slot derivatives were shared: dL/du_(S+T') taken afresh for
    every ordered slot tuple, D_T applied one variable at a time in tuple
    order; with phi=None the multiplier variables stay symbolic."""
    lagr = formal_lagrangian(sys)
    W = characteristic_W(sys, g)
    r = sys.order

    def d_tuple(comp, T):
        for var in T:
            comp = total_derivative(comp, var)
        return comp

    def tuples(max_len):
        for n in range(max_len + 1):
            yield from itertools.product(sys.indep, repeat=n)

    def bracket(d, slots):
        pieces = []
        for Tp in tuples(r - len(slots)):
            J = MultiIndex.of(*slots, *Tp)
            dd = ref_jet_partial(lagr, JetVar(d, J)) / J.multiplicity()
            pieces.append(d_tuple(dd, Tp).scale((-1) ** len(Tp)))
        return sum_exprs(pieces)

    raw = []
    for i, var in enumerate(sys.indep):
        pieces = [g.xi[i] * lagr]
        for w, d in zip(W, sys.dep):
            for T in tuples(r - 1):
                pieces.append(d_tuple(w, T) * bracket(d, (var,) + T))
        raw.append(sum_exprs(pieces))
    if phi is None:
        return raw
    sub = _multiplier_substitution(sys, [derivatives(c) for c in phi])
    return [sub(c) for c in raw]


def conslaw_commands():
    for path in CONSLAW_SESSIONS:
        session = load_session((ROOT / path).read_text())
        for cmd in session.commands:
            if cmd.name == "conslaw":
                (_, gen), (_, sub) = cmd.args
                yield pytest.param(session, gen, sub, id=f"{path}:{gen}:{sub}")


class TestSharedSlotDerivatives:
    @pytest.mark.parametrize("session,gen,sub", conslaw_commands())
    def test_vector_equals_unshared_assembly(self, session, gen, sub):
        sys, phi = session.system, session.chars[sub]
        g = session.gens.get(gen) or Generator.evolutionary(
            sys, *session.chars[gen])
        vec = ibragimov_vector(sys, g, phi)
        raw = reference_raw_vector(sys, g, phi)
        assert list(vec.raw_components) == raw
        assert vec.components == tuple(sys.reduce(c) for c in raw)


@pytest.fixture(scope="module")
def assembly_cases(wave, thomas, klein_gordon):
    """(system, pool for random generator components): the three corpus
    equations, fifth-order KdV, BBM (its u_xxt slot and the mixed D_xt
    have more than one ordering) and a two-component system."""
    uxxx, uxxxxx = jet("u", "x", "x", "x"), jet("u", "x", "x", "x", "x", "x")
    kdv5 = solve_leading(["t", "x"], ["u"], [
        S.ut + 30 * S.u**2 * S.ux + 20 * S.ux * S.uxx + 10 * S.u * uxxx
        + uxxxxx], eq_names=["kdv5"])
    bbm = solve_leading(["t", "x"], ["u"],
                        [S.ut + S.ux + S.u * S.ux - jet("u", "x", "x", "t")],
                        eq_names=["bbm"])
    two = solve_leading(["t", "x"], ["u", "w"],
                        [S.ut - jet("w", "x", "x") - S.u * jet("w", "x"),
                         jet("w", "t") - S.uxx],
                        eq_names=["eqU", "eqW"])
    g = OpaqueDeriv("g", (S.u_at,))
    plain = (S.u_at, S.ux_at, S.ut_at, S.x_at, S.t_at)
    return {
        "wave": (wave, plain),
        "thomas": (thomas, (*plain, S.uxt_at)),
        "klein-gordon": (klein_gordon, (*plain, g)),
        "kdv5": (kdv5, (*plain, S.uxx_at)),
        "bbm": (bbm, (*plain, S.uxt_at)),
        "two-component": (two, (*plain, jet_atom("w"), jet_atom("w", "x"))),
    }


class TestMultisetAssembly:
    @pytest.mark.parametrize("name", ("wave", "thomas", "klein-gordon",
                                      "kdv5", "bbm", "two-component"))
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_raw_components_match_ordered_tuples(self, assembly_cases, name,
                                                 data):
        """Multiset brackets and weighted outer sums give the components
        of the ordered-tuple assembly, term for term."""
        sys, pool = assembly_cases[name]
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        eta = tuple(random_expr(rng, pool=pool, max_terms=2, max_factors=2,
                                allow_exp=name == "thomas")
                    for _ in sys.dep)
        xi = tuple(random_expr(rng, pool=pool, max_terms=1, max_factors=1)
                   if data.draw(st.booleans()) else Expr.zero()
                   for _ in sys.indep)
        assume(not all(c.is_zero for c in (*eta, *xi)))
        g = Generator(xi, eta)
        got = ibragimov_vector(sys, g).raw_components
        want = reference_raw_vector(sys, g)
        assert [c.terms for c in got] == [c.terms for c in want]


def reference_bracket_table(sys):
    """`_bracket_table` by the lazy per-call recursion: one cached
    B(sigma, S) per multiset S, read for every (x^i, sigma, T)."""
    grad = jet_gradient(formal_lagrangian(sys))
    r = sys.order

    @functools.cache
    def bracket(d, S):
        dd = grad.get(JetVar(d, S), Expr.zero())
        mult = S.multiplicity()
        pieces = [dd if dd.is_zero or mult == 1 else dd / mult]
        if S.order < r:
            for v in sys.indep:
                b = bracket(d, S.bump(v))
                if not b.is_zero:
                    pieces.append(-total_derivative(b, v))
        return sum_exprs(pieces)

    multisets = [MultiIndex.of(*T) for n in range(r)
                 for T in itertools.combinations_with_replacement(sys.indep, n)]
    return tuple(
        tuple((s, T, bracket(d, T.bump(var)).scale(T.multiplicity()))
              for s, d in enumerate(sys.dep) for T in multisets
              if not bracket(d, T.bump(var)).is_zero)
        for var in sys.indep)


TABLE_SESSIONS = ("src/conslaw_kit/corpus/wave.cl",
                  "src/conslaw_kit/corpus/thomas.cl",
                  "src/conslaw_kit/corpus/klein-gordon.cl",
                  "perfbench/sessions/kdv5-conslaw.cl")


class TestBracketTable:
    """The weighted brackets are built once per system, in its memo."""

    @pytest.mark.parametrize("path", TABLE_SESSIONS)
    def test_warm_table_is_shared_and_equals_fresh(self, path):
        session = load_session((ROOT / path).read_text(encoding="utf-8"))
        sys = session.require_system()
        for cmd in session.commands:
            run_session_command(session, cmd)
            table = _bracket_table(sys)
            assert _bracket_table(sys) is table, cmd.name
            assert table == _bracket_table(sys.with_solved(sys.solved))

    def test_copy_starts_cold(self, wave):
        table = _bracket_table(wave)
        fresh = wave.with_solved(wave.solved)
        assert "bracket_table" not in fresh._cache
        assert _bracket_table(fresh) is not table
        assert _bracket_table(fresh) == table

    @pytest.mark.parametrize("name", ("wave", "thomas", "klein-gordon",
                                      "kdv5", "bbm", "two-component"))
    def test_equals_per_call_recursion(self, assembly_cases, name):
        sys, _ = assembly_cases[name]
        table = _bracket_table(sys)
        assert len(table) == len(sys.indep)
        assert table == reference_bracket_table(sys)


KDV_SRC = """
indep t x;
dep u;
eq kdv: D[u,t] + u*D[u,x] + D[u,x,x,x] = 0 leading D[u,t];
char bad = u^2;
char zero = D[u,t] + u*D[u,x] + D[u,x,x,x];
gen timeTrans: eta = (-D[u,t]);
gen spaceTrans: eta = (-D[u,x]);
gen galilei: xi = (0, t), eta = (1);
cmd conslaw timeTrans bad;
cmd conslaw spaceTrans bad;
cmd conslaw galilei bad;
"""


def verdict_keys(sys, target="adjoint-symmetry"):
    """The memo keys of `target` residuals; by default those of the
    adjoint-symmetry residual, which a `conslaw` verdict reads."""
    return [k for k in sys._cache if isinstance(k, tuple) and k[0] == target]


class TestSubstitutionVerdict:
    """`ibragimov_vector` checks a substitution once per system, on the
    adjoint-symmetry residual it shares with `adjoint-check` and
    `multiplier-check`."""

    def test_failing_phi_is_checked_once(self, monkeypatch):
        calls, substituted = [], []

        def counted(sys, phi):
            calls.append(phi)
            return adjoint_symmetry_residual(sys, phi)

        def spy(*args):
            substituted.append(args)
            return _substitution_residual(*args)

        monkeypatch.setitem(TARGETS, "adjoint-symmetry", counted)
        monkeypatch.setattr(determining_module, "_substitution_residual",
                            spy)
        session = load_session(KDV_SRC)
        sys, phi = session.require_system(), session.chars["bad"]
        reports = [run_session_command(session, cmd)
                   for cmd in session.commands]
        assert calls == [phi] and substituted == []
        assert verdict_keys(sys) == [("adjoint-symmetry", phi)]
        assert verdict_keys(sys, "differential-substitution") == []
        assert not all(
            x.is_zero for x in sys._cache[("adjoint-symmetry", phi)])
        vec = ibragimov_vector(sys, session.gens["timeTrans"], phi)
        assert vec.substitution_ok is False and len(calls) == 1
        assert [r.extra.get("warning", "").startswith(
            "the substitution does not satisfy") for r in reports] == [True] * 3

    def test_trivial_phi_raises_every_time_and_leaves_no_key(self):
        session = load_session(KDV_SRC)
        sys, gen = session.require_system(), session.gens["timeTrans"]
        for _ in range(2):
            with pytest.raises(TrivialSubstitutionError):
                ibragimov_vector(sys, gen, session.chars["zero"])
        assert verdict_keys(sys) == []
        assert [k for k in sys._cache
                if isinstance(k, tuple) and isinstance(k[0], str)] == []

    def test_cancelled_verdict_stores_neither_residual_nor_tables(
            self, monkeypatch):
        """The deadline passes inside the verdict's adjoint-symmetry
        residual; the next call equals one on a cold copy."""
        def late(sys, phi):
            with deadline(0):
                return adjoint_symmetry_residual(sys, phi)

        session = load_session(KDV_SRC)
        sys, gen = session.require_system(), session.gens["timeTrans"]
        phi = session.chars["bad"]
        with monkeypatch.context() as m:
            m.setitem(TARGETS, "adjoint-symmetry", late)
            with pytest.raises(CancelledComputation):
                ibragimov_vector(sys, gen, phi)
        assert ("adjoint-symmetry", phi) not in sys._cache
        assert ("derivatives", phi) not in sys._cache
        cold = ibragimov_vector(sys.with_solved(sys.solved), gen, phi)
        vec = ibragimov_vector(sys, gen, phi)
        assert (vec.components, vec.raw_components, vec.substitution_ok) == \
            (cold.components, cold.raw_components, cold.substitution_ok)

    def test_residual_commands_leave_no_verdict(self):
        """Of the residual commands, `adjoint-check`, `multiplier-check`
        and `substitution-check` store the residual a `conslaw` verdict
        reads; the ansatz stores none."""
        text = (ROOT / "src/conslaw_kit/corpus/wave.cl").read_text(
            encoding="utf-8")
        session = load_session(
            text + "cmd ansatz differential-substitution scaleChar timeChar;\n")
        for cmd in session.commands:
            if cmd.name != "conslaw":
                assert run_session_command(session, cmd).status != "error"
        assert {"substitution-check", "ansatz"} <= {
            c.name for c in session.commands}
        sys, chars = session.require_system(), session.chars
        assert verdict_keys(sys, "differential-substitution") == []
        assert verdict_keys(sys) == [
            ("adjoint-symmetry", chars[name])
            for name in ("scaleChar", "timeChar", "spaceChar")]

        session = load_session(text)
        (cmd,) = [c for c in session.commands
                  if c.name == "substitution-check"]
        assert run_session_command(session, cmd).status == "zero"
        sys = session.require_system()
        assert [k for k in sys._cache
                if isinstance(k, tuple) and isinstance(k[0], str)] == [
            ("adjoint-symmetry", session.chars["scaleChar"])]


SESSION_FILES = sorted(
    [*(ROOT / "src" / "conslaw_kit" / "corpus").glob("*.cl"),
     *(ROOT / "tests" / "data").glob("*.cl"),
     *(ROOT / "perfbench" / "sessions").glob("*.cl")],
    key=lambda p: (p.parent.name, p.name))


class TestVerdictDualPath:
    """`substitution-check` and the `conslaw` verdict read the
    adjoint-symmetry residual; the substitution path, which no command
    takes, is the independent check that it answers the substitution's
    question."""

    @pytest.mark.parametrize("path", SESSION_FILES,
                             ids=lambda p: f"{p.parent.name}/{p.name}")
    def test_residuals_agree_and_verdicts_match_the_substitution_path(
            self, path, monkeypatch):
        session = load_session(path.read_text(encoding="utf-8"))
        sys = session.require_system()
        m = len(sys.dep)
        for name, phi in session.chars.items():
            if len(phi) != m or all(sys.reduce(c).is_zero for c in phi):
                continue
            a = differential_substitution_residual(sys, phi)
            b = adjoint_symmetry_residual(sys, phi)
            assert all((x - y).is_zero for x, y in zip(a, b)), \
                (path.name, name)

        verdicts, original = [], commands_module.ibragimov_vector

        def spy(sys, gen, phi=None):
            vec = original(sys, gen, phi)
            if phi is not None:
                verdicts.append((sys, phi, vec.substitution_ok))
            return vec

        monkeypatch.setattr(commands_module, "ibragimov_vector", spy)
        session = load_session(path.read_text(encoding="utf-8"))
        checks = []
        for cmd in session.commands:
            report = run_session_command(session, cmd)
            if cmd.name == "substitution-check":
                checks.append((commands_module._char_arg(session, cmd.args),
                               report))
        assert len(verdicts) == sum(c.name == "conslaw" and len(c.args) == 2
                                    for c in session.commands)
        for sys, phi, ok in verdicts:
            cold = sys.with_solved(sys.solved)
            assert ok == all(x.is_zero for x in
                             differential_substitution_residual(cold, phi))
        sys = session.require_system()
        for phi, report in checks:
            cold = sys.with_solved(sys.solved)
            assert [r for _, r in report.residuals] == list(
                differential_substitution_residual(cold, phi)), path.name

    def test_every_session_file(self):
        assert len(SESSION_FILES) == 11

    @pytest.mark.parametrize("path", SESSION_FILES,
                             ids=lambda p: f"{p.parent.name}/{p.name}")
    def test_substitution_path_calls_in_one_run(self, path, monkeypatch):
        """No command takes the substitution path: the `substitution-check`
        and `conslaw` verdicts read the adjoint-symmetry residual, and no
        substitution residual is stored."""
        calls = []

        def spy(*args):
            calls.append(args)
            return _substitution_residual(*args)

        monkeypatch.setattr(determining_module, "_substitution_residual",
                            spy)
        session = load_session(path.read_text(encoding="utf-8"))
        for cmd in session.commands:
            assert run_session_command(session, cmd).status != "error"
        assert calls == []
        assert verdict_keys(session.require_system(),
                            "differential-substitution") == []


def two_step_decomposition(sys, comps):
    """`e_decompose` of the unreduced divergence, on a cold copy of `sys`
    whose replacement tables are built by differentiating, then
    reducing: the decomposition before the divergence was reduced while
    it was formed."""
    with mock.patch.object(PdeSystem, "replacement", two_step_replacement):
        cold = sys.with_solved(sys.solved)
        return e_decompose(_divergence(cold, comps), cold)


def assert_same_decomposition(got, want, where):
    assert list(got.coeffs.items()) == list(want.coeffs.items()), where
    assert got.remainder == want.remainder, where
    assert got.quadratic == want.quadratic, where
    assert got.marker_deps == want.marker_deps, where


class TestFusedDivergence:
    """`verify_divergence` forms the divergence in the `e_decompose`
    shadow system, reduced while it is differentiated, for user vectors
    and `ConservedVector`s alike."""

    @pytest.mark.parametrize("path", SESSION_FILES,
                             ids=lambda p: f"{p.parent.name}/{p.name}")
    def test_decomposition_equals_the_two_step_one(self, path, monkeypatch):
        seen, original = [], commands_module.verify_divergence

        def spy(sys, vec):
            report = original(sys, vec)
            seen.append((sys, vec, report.decomposition))
            return report

        monkeypatch.setattr(commands_module, "verify_divergence", spy)
        session = load_session(path.read_text(encoding="utf-8"))
        for cmd in session.commands:
            run_session_command(session, cmd)
        assert len(seen) == sum(c.name in ("conslaw", "verify")
                                for c in session.commands)
        for k, (sys, vec, got) in enumerate(seen):
            comps = vec.components if isinstance(vec, ConservedVector) else vec
            assert_same_decomposition(
                got, two_step_decomposition(sys, comps), (path.name, k))
        if path.name == "exp-const.cl":   # the marker in an exponential
            assert any(not d.is_linear for _, _, d in seen)

    def test_every_session_file(self):
        assert len(SESSION_FILES) == 11

    def test_cancelled_verification_stores_no_interrupted_atom(
            self, monkeypatch):
        """The deadline passes inside the fused divergence of kdv5's
        `conslaw timeTrans m3`, on a cold shadow.  Each shadow atom whose
        image was being built then has no image entry and no replacement
        key, every entry kept is the cold one, and the next verification
        equals the cold decomposition."""
        session = load_session((ROOT / "perfbench/sessions/kdv5-conslaw.cl"
                                ).read_text(encoding="utf-8"))
        sys = session.require_system()
        vec = ibragimov_vector(sys, session.gens["timeTrans"],
                               session.chars["m3"])
        _, shadow = _shadow(sys)
        started, finished = [], []
        find, fused = PdeSystem._find_image, PdeSystem.reduced_divergence

        def spy(self, a):
            if self is shadow:
                started.append(a)
            image = find(self, a)
            if self is shadow:
                finished.append(a)
            return image

        def late(self, pairs):
            pairs = tuple(pairs)
            if len(pairs) == 1:   # a replacement build
                return fused(self, pairs)
            with deadline(0):
                return fused(self, pairs)

        with monkeypatch.context() as m:
            m.setattr(PdeSystem, "_find_image", spy)
            m.setattr(PdeSystem, "reduced_divergence", late)
            with pytest.raises(CancelledComputation):
                verify_divergence(sys, vec)
        interrupted = [a for a in started if a not in finished]
        assert interrupted
        for a in interrupted:
            assert a not in shadow._images
            (lead,) = shadow.leading
            assert (0, a.index - lead.index) not in shadow._cache
        with mock.patch.object(PdeSystem, "replacement",
                               two_step_replacement):
            cold = shadow.with_solved(shadow.solved)
            for key, value in shadow._cache.items():
                assert cold.replacement(*key) == value, key
        assert_same_decomposition(
            verify_divergence(sys, vec).decomposition,
            two_step_decomposition(sys, vec.components), "next call")
