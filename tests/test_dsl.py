"""DSL: lexing, one-pass parsing with positions and resolution, printer
round-trips, LaTeX output, fuzzed input."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conslaw_kit.cancel import deadline
from conslaw_kit.dsl import (ParseError, expr_latex, expr_text, load_session,
                             parse_expression, print_session_source,
                             tokenize)
from conslaw_kit.expr import ExpAtom, Expr, exp_of
from conslaw_kit.expr.errors import ConslawError, LeadingSolveError
from conslaw_kit.expr.expression import jet

from conftest import Syms as S

CORPUS = Path(__file__).resolve().parents[1] / "src" / "conslaw_kit" / "corpus"

WAVE_SRC = """
indep t x;
dep u;
eq wave: D[u,t,t] - u^2*D[u,x,x] - u*D[u,x]^2 = 0 leading D[u,t,t];
"""


class TestParsing:
    def test_wave_equation_resolves_to_system(self):
        s = load_session(WAVE_SRC)
        assert s.system.leading[0] == S.utt_at
        assert s.system.equations[0] == \
            S.utt - S.u**2 * S.uxx - S.u * S.ux**2

    def test_malformed_derivative_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_expression("D[u,]", load_session(WAVE_SRC))
        assert err.value.line == 1
        assert err.value.col == 5

    def test_unknown_symbol_is_semantic_not_parse(self):
        src = WAVE_SRC + "char bad = q + u;\n"
        with pytest.raises(ParseError, match="unknown symbol 'q'"):
            load_session(src)

    def test_division_error_has_position(self):
        src = WAVE_SRC + "param a;\nchar c = u/2*x/3 + u*x/a*u;\n"
        with pytest.raises(ParseError, match="not declared nonzero: a") as err:
            load_session(src)
        assert (err.value.line, err.value.col) == (6, 23)

    def test_mixed_chains_resolve_in_order(self):
        s = load_session(WAVE_SRC + "char c = x - u*x/2*u + 3 - u/3 + x;\n")
        assert s.chars["c"][0] == \
            (S.x - S.u * S.x * S.u / 2) + 3 - S.u / 3 + S.x

    def test_duplicate_declaration(self):
        with pytest.raises(ParseError, match="duplicate declaration"):
            load_session("indep t x;\ndep t;\n")

    def test_nonlinear_leading_surfaces(self):
        src = "indep t x;\ndep u;\neq bad: D[u,t]^2 - D[u,x] = 0 leading D[u,t];\n"
        with pytest.raises(ParseError, match="^3:1: .*nonlinearly"):
            load_session(src)

    def test_rational_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("u^(1/2)", load_session(WAVE_SRC))

    def test_numbers_and_fractions(self):
        s = load_session(WAVE_SRC + "char c = 3/2*u;\n")
        assert s.chars["c"][0] == S.u.scale(Fraction(3, 2))

    def test_comment_handling(self):
        s = load_session("# leading comment\nindep t x; # trailing\ndep u;\n")
        assert s.indep == ["t", "x"]

    def test_expect_annotation(self):
        s = load_session(WAVE_SRC + "cmd variational-check expect nonzero;\n")
        assert s.commands[0].expect == "nonzero"

    def test_inline_command_binding(self):
        s = load_session(WAVE_SRC + "cmd conslaw eta=-D[u,t] phi=u-x*D[u,x];\n")
        (cmd,) = s.commands
        labels = [label for label, _ in cmd.args]
        assert labels == ["eta", "phi"]


class TestOnePass:
    """Each statement is resolved as it is read, against the declarations
    before it."""

    def test_inline_argument_is_declared_before_use(self):
        src = WAVE_SRC + "cmd symmetry-check eta=a*u;\nparam a;\n"
        with pytest.raises(ParseError, match="unknown symbol 'a'") as err:
            load_session(src)
        assert (err.value.line, err.value.col) == (5, 24)

    def test_inline_argument_is_an_expression(self):
        s = load_session(WAVE_SRC + "param alpha nonzero;\n"
                         "cmd symmetry-check eta=alpha*u/alpha + x;\n")
        assert s.commands[0].args == (("eta", S.u + S.x),)

    @pytest.mark.parametrize("line, message", [
        # xi before eta: the first error in source order
        ("gen g: xi = (q, 0), eta = w;", "unknown symbol 'q'"),
        ("gen g: xi = (u), eta = (u, x);", "xi has 1 components for 2"),
        # a semantic error before a syntax error in the same statement
        ("char c = q + ;", "unknown symbol 'q'"),
        ("char c = u/x + ;", "division is only defined"),
        ("dep u nonzero;", "duplicate declaration of 'u'"),
        ("func f(x, x, ;", "function argument 'x' is repeated"),
    ])
    def test_first_error_in_source_order(self, line, message):
        with pytest.raises(ParseError, match=message) as err:
            load_session(WAVE_SRC + line + "\n")
        assert err.value.line == 5

    def test_equation_error_is_at_its_keyword_before_later_errors(self):
        src = ("indep t x;\ndep u;\n"
               "eq e: D[u,t]^2 = D[u,x,x] leading D[u,t];\nchar c = q;\n")
        with pytest.raises(ParseError, match=(
                r"^3:1: leading derivative D\[u,t\] occurs nonlinearly$")):
            load_session(src)

    def test_zero_generator_error_is_at_its_keyword(self):
        src = ("indep t x;\ndep u;\neq e: D[u,t] = D[u,x,x];\n"
               "gen g: xi = (0, 0), eta = (0);\n")
        with pytest.raises(ParseError, match="nonzero component") as err:
            load_session(src)
        assert (err.value.line, err.value.col) == (4, 1)
        assert str(err.value).startswith("4:1: ")

    def test_parenthesized_factor_in_eta(self):
        s = load_session(WAVE_SRC + "gen g: eta = (u)*x;\n")
        assert s.gens["g"].eta == (S.u * S.x,)
        assert s.gens["g"].xi == (Expr.zero(), Expr.zero())

    @pytest.mark.parametrize("line, message", [
        ("rule Q[u,x] -> 0;", "expected 'D', found 'Q'"),
        ("gen g: zeta = u;", "expected 'eta', found 'zeta'"),
        ("eq f: D[u,x] = 0 leading Q[u,x];", "expected 'D', found 'Q'"),
    ])
    def test_keywords_are_required(self, line, message):
        with pytest.raises(ParseError, match=message):
            load_session(WAVE_SRC + line + "\n")

    def test_overlong_integer_literal_is_a_parse_error(self):
        src = WAVE_SRC + "char c = " + "7" * 5000 + "*u;\n"
        with pytest.raises(ParseError, match="5000 digits is too long") as err:
            load_session(src)
        assert (err.value.line, err.value.col) == (5, 10)

    @pytest.mark.parametrize("text, col", [("u^\u00b2", 3), ("\u00b2*u", 1),
                                           ("u\u0663", 2)])
    def test_digits_are_ascii(self, text, col):
        with pytest.raises(ParseError, match="unexpected character") as err:
            tokenize(text)
        assert (err.value.line, err.value.col) == (1, col)


# Fuzzed sessions: statements built from the grammar, mixed with runs of
# tokens of every kind, over declared and undeclared names, the digits 0-3
# and '\u00b2', all joined by spaces; the declarations come first or not.
FUZZ_DECLS = "indep t x; dep u; param a nonzero; func f(x); "
NAMES = st.sampled_from(["t", "x", "u", "a", "f", "q", "w"])
DIGITS = st.sampled_from(["0", "1", "2", "3", "\u00b2"])
ANY_TOKEN = NAMES | DIGITS | st.sampled_from([
    "indep", "dep", "param", "func", "eq", "rule", "char", "gen", "vector",
    "cmd", "leading", "nonzero", "xi", "eta", "expect", "zero", "exp", "D",
    "symmetry-check", ";", ",", ":", "=", "+", "-", "*", "/", "^", "(", ")",
    "[", "]", "->"])
EXPR = st.recursive(
    st.one_of(NAMES.map(lambda t: [t]), DIGITS.map(lambda t: [t]),
              st.tuples(NAMES, NAMES).map(
                  lambda p: ["D", "[", p[0], ",", p[1], "]"])),
    lambda e: st.one_of(
        st.tuples(e, st.sampled_from("+-*/"), e).map(
            lambda p: [*p[0], p[1], *p[2]]),
        st.tuples(st.sampled_from(["-", "exp"]), e).map(
            lambda p: [p[0], "(", *p[1], ")"]),
        st.tuples(e, DIGITS).map(lambda p: ["(", *p[0], ")", "^", p[1]])),
    max_leaves=6)
STATEMENT = st.one_of(
    st.tuples(st.sampled_from(["indep", "dep", "param"]),
              st.lists(NAMES, min_size=1, max_size=3)).map(
        lambda p: [p[0], *p[1], ";"]),
    st.tuples(st.sampled_from(["char", "vector"]), NAMES, EXPR).map(
        lambda p: [p[0], p[1], "=", *p[2], ";"]),
    st.tuples(NAMES, EXPR, EXPR).map(
        lambda p: ["eq", p[0], ":", *p[1], "=", *p[2], ";"]),
    st.tuples(NAMES, EXPR).map(lambda p: ["gen", p[0], ":", "eta", "=",
                                          *p[1], ";"]),
    EXPR.map(lambda e: ["rule", "D", "[", "f", ",", "x", "]", "->", *e, ";"]),
    EXPR.map(lambda e: ["cmd", "symmetry-check", "eta", "=", *e, ";"]),
    st.lists(ANY_TOKEN, max_size=6))


class TestFuzz:
    @settings(max_examples=500, deadline=None)
    @given(st.booleans(), st.lists(STATEMENT, max_size=6))
    def test_load_returns_or_raises_conslaw_error(self, declared, statements):
        text = (FUZZ_DECLS if declared else "") + " ".join(
            tok for st_ in statements for tok in st_)
        # a slow expansion is cut off, as a CancelledComputation
        with deadline(5):
            try:
                load_session(text)
            except ConslawError:
                pass


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["wave.cl", "thomas.cl", "klein-gordon.cl"])
    def test_corpus_files_round_trip(self, name):
        text = (CORPUS / name).read_text()
        canon = print_session_source(load_session(text))
        again = print_session_source(load_session(canon))
        assert canon == again

    def test_random_sessions_round_trip(self):
        rng = random.Random(20260811)
        for i in range(200):
            src = _random_session(rng)
            try:
                canon = print_session_source(load_session(src))
            except (ParseError, LeadingSolveError) as ex:  # pragma: no cover
                raise AssertionError(
                    f"case {i} (seed 20260811) failed to load:\n{src}\n{ex}")
            again = print_session_source(load_session(canon))
            assert canon == again, f"case {i} (seed 20260811)\n{src}"

    def test_statements_print_in_source_order(self):
        # all ten statement kinds, printed from the session's tables
        text = ("indep t x;\ndep u;\nfunc g(u, x);\nchar c = u;\n"
                "eq e: D[u,t] = D[u,x,x] + D[g,u] leading D[u,t];\n"
                "rule D[g,x] -> g;\ncmd symmetry-check c;\n"
                "  param a nonzero;\nparam b;\n"
                "gen h: xi = (a, 0), eta = b*u;\nvector v = (u, a*u);\n")
        session = load_session(text)
        assert [kw for kw, _ in session.statements] == [
            "indep", "dep", "func", "char", "eq", "rule", "cmd", "param",
            "param", "gen", "vector"]
        assert session.statements[6][1] is session.commands[0]
        assert print_session_source(session) == (
            "indep t x;\ndep u;\nfunc g(u,x);\nchar c = u;\n"
            "eq e: -D[u,x,x] + D[u,t] - D[g,u] = 0 leading D[u,t];\n"
            "rule D[g,x] -> g;\ncmd symmetry-check c;\n"
            "param a nonzero;\nparam b;\n"
            "gen h: xi = (a, 0), eta = (b*u);\nvector v = (u, a*u);\n")

    def test_expression_text_reparses_to_same_value(self, thomas_theta):
        cases = [
            S.u**2 * S.uxx + S.u * S.ux**2,
            exp_of(2 * thomas_theta) * (S.ut + S.alpha / S.gamma),
            (S.alpha + S.beta) / S.gamma * S.u - S.x,
            Expr.zero(),
            Expr.const(1) / 2,
        ]
        session = load_session(
            "indep t x;\ndep u;\nparam alpha beta gamma nonzero;\n")
        for e in cases:
            back = parse_expression(expr_text(e), session)
            assert back == e, expr_text(e)
            assert str(e) == expr_text(e)

    @pytest.mark.parametrize("n", [1000, 10000])
    @pytest.mark.parametrize("op", ["+", "-", "*", "/"])
    def test_long_inline_chain_prints_and_reparses(self, op, n):
        # a flat chain folds in a loop, however long; u/u does not
        # resolve, so the division chain divides by a literal
        operands = ["u"] + ["2" if op == "/" else "u"] * (n - 1)
        text = ("indep t x;\ndep u;\neq e: D[u,t] - D[u,x] = 0;\n"
                f"cmd symmetry-check eta={op.join(operands)};\n")
        canon = print_session_source(load_session(text))
        (cmd,), (again,) = (load_session(text).commands,
                            load_session(canon).commands)
        u = jet("u")
        want = {"+": u.scale(n), "-": u.scale(2 - n), "*": u ** n,
                "/": u.scale(Fraction(1, 2 ** (n - 1)))}[op]
        assert cmd.args == again.args == (("eta", want),)


class TestLatex:
    def test_multi_digit_exponents_are_braced(self):
        assert expr_latex(S.u**10) == "u^{10}"
        assert expr_latex(S.u**2) == "u^2"
        assert expr_latex(S.alpha**12 * S.u) == "\\alpha^{12} u"

    def test_factored_exponent(self, thomas_theta):
        assert "e^{2(\\gamma u+\\alpha t+\\beta x)}" in \
            expr_latex(exp_of(2 * thomas_theta))

    def test_unfactored_exponent(self):
        e = exp_of(S.gamma * S.u + 2 * S.alpha * S.t + 2 * S.beta * S.x)
        assert "e^{\\gamma u+2 \\alpha t+2 \\beta x}" in expr_latex(e)

    def test_subscripts(self):
        assert expr_latex(S.uxt) == "u_{tx}"
        assert expr_latex(S.u) == "u"

    def test_primes_for_dependent_argument(self):
        from conslaw_kit.expr import OpaqueDeriv, atom_expr
        gp = atom_expr(OpaqueDeriv("g", (S.u_at,), (1,)))
        assert expr_latex(gp) == "g'(u)"

    def test_fraction_rendering(self):
        from conslaw_kit.expr import rational
        assert "\\frac{1}{2}" in expr_latex(rational(1, 2) * S.u)


def _random_session(rng: random.Random) -> str:
    """Random but always-valid session source."""
    lines = ["indep t x;", "dep u;", "param alpha beta gamma nonzero;"]
    use_func = rng.random() < 0.4
    if use_func:
        lines.append("func f(x,t);")
    eq = rng.choice([
        "eq main: D[u,t,t] - u^2*D[u,x,x] - u*D[u,x]^2 = 0 leading D[u,t,t];",
        "eq main: D[u,x,t] + alpha*D[u,x] + beta*D[u,t] "
        "+ gamma*D[u,x]*D[u,t] = 0 leading D[u,x,t];",
        "eq main: D[u,t,t] - D[u,x,x] - u^2 = 0 leading D[u,t,t];",
    ])
    lines.append(eq)
    if use_func and rng.random() < 0.5:
        lines.append("rule D[f,x,t] -> -alpha*D[f,x] - beta*D[f,t];")
    atoms = ["u", "D[u,x]", "D[u,t]", "x", "t", "alpha", "2", "3/2"]
    if use_func:
        atoms.append("f")

    def rand_expr(depth=2):
        if depth == 0 or rng.random() < 0.4:
            return rng.choice(atoms)
        op = rng.choice(["+", "-", "*"])
        a, b = rand_expr(depth - 1), rand_expr(depth - 1)
        if rng.random() < 0.2:
            return f"({a} {op} {b})"
        return f"{a} {op} {b}"

    n_chars = rng.randint(0, 3)
    for i in range(n_chars):
        lines.append(f"char ch{i} = {rand_expr()};")
    if rng.random() < 0.5:
        lines.append(f"gen g0: eta = (-D[u,t]);")
    if rng.random() < 0.4:
        lines.append(f"vector v0 = ({rand_expr()}, {rand_expr()});")
    if n_chars and rng.random() < 0.6:
        lines.append(f"cmd adjoint-check ch0 expect "
                     f"{rng.choice(['zero', 'nonzero'])};")
    return "\n".join(lines) + "\n"
