"""DSL: lexing, parsing with positions, semantic resolution, printer
round-trips, LaTeX output."""

import random
from pathlib import Path

import pytest

from conslaw_kit.dsl import (ParseError, expr_latex, expr_text, load_session,
                             parse_expression, parse_session,
                             print_session_source)
from conslaw_kit.dsl.parser import ENode
from conslaw_kit.dsl.session import resolve_session
from conslaw_kit.expr import ExpAtom, Expr, exp_of
from conslaw_kit.expr.errors import LeadingSolveError
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
            parse_expression("D[u,]")
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
        assert s.chars["c"].components[0] == \
            (S.x - S.u * S.x * S.u / 2) + 3 - S.u / 3 + S.x

    def test_duplicate_declaration(self):
        with pytest.raises(ParseError, match="duplicate declaration"):
            load_session("indep t x;\ndep t;\n")

    def test_nonlinear_leading_surfaces(self):
        src = "indep t x;\ndep u;\neq bad: D[u,t]^2 - D[u,x] = 0 leading D[u,t];\n"
        with pytest.raises(LeadingSolveError, match="nonlinearly"):
            load_session(src)

    def test_rational_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("u^(1/2)")

    def test_numbers_and_fractions(self):
        s = load_session(WAVE_SRC + "char c = 3/2*u;\n")
        from fractions import Fraction
        assert s.chars["c"].components[0] == S.u.scale(Fraction(3, 2))

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
        from conslaw_kit.dsl.session import resolve_expression
        for e in cases:
            back = resolve_expression(session, parse_expression(expr_text(e)))
            assert back == e, expr_text(e)

    @pytest.mark.parametrize("n", [1000, 10000])
    @pytest.mark.parametrize("op", ["+", "-", "*", "/"])
    def test_long_inline_chain_prints_and_reparses(self, op, n):
        # a flat chain parses to a left-nested tree as deep as it is long
        text = ("indep t x;\ndep u;\neq e: D[u,t] - D[u,x] = 0;\n"
                f"cmd symmetry-check eta={op.join(['u'] * n)};\n")
        canon = print_session_source(load_session(text))
        (cmd,), (again,) = (load_session(text).commands,
                            load_session(canon).commands)
        assert _shape(again.args[0][1]) == _shape(cmd.args[0][1])
        assert len(_shape(cmd.args[0][1])) == 2 * n - 1


def _shape(node) -> list:
    """The expression tree in preorder without source positions, walked
    with a stack: equal lists mean equal trees."""
    out, stack = [], [node]
    while stack:
        n = stack.pop()
        fields = {k: getattr(n, k) for k in n._fields}
        kids = [v for v in fields.values() if isinstance(v, ENode)]
        out.append((type(n).__name__,) + tuple(
            (k, v) for k, v in fields.items()
            if k not in ("line", "col") and not isinstance(v, ENode)))
        stack.extend(reversed(kids))
    return out


class TestLatex:
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
