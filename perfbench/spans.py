"""Span recorder for the traced run.

`Tracer` wraps the public functions of each layer (module) of conslaw-kit
with a span recorder and restores every binding on exit.  A function
imported by value (`from .jet import total_derivative`) is rebound in
every conslaw_kit module that holds it, including dict tables such as
`ansatz.TARGETS`, so a call is traced whichever name it goes through.

A span has a name, a start, an end and a parent: the span open when it
started.  Spans are folded into totals as they close, because the
expression kernel opens about a million of them per run:

- `calls[name]`: spans opened;
- `inclusive[name]`: summed duration of the outermost span of that name
  (a recursive call is inside its caller's span);
- `self_time[layer]`: each span's duration minus the time of its child
  spans, summed over the spans of the layer.

A kernel (`expr`) call made inside another kernel call is only counted:
the enclosing kernel span already holds its time, in the same layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

KERNEL = "expr"

# (layer, module, function or Class.method)
TRACED = (
    ("expr", "conslaw_kit.expr.expression", "Expr.__add__"),
    ("expr", "conslaw_kit.expr.expression", "Expr.__sub__"),
    ("expr", "conslaw_kit.expr.expression", "Expr.__rsub__"),
    ("expr", "conslaw_kit.expr.expression", "Expr.__neg__"),
    ("expr", "conslaw_kit.expr.expression", "Expr.__mul__"),
    ("expr", "conslaw_kit.expr.expression", "Expr.__pow__"),
    ("expr", "conslaw_kit.expr.expression", "Expr.__truediv__"),
    ("expr", "conslaw_kit.expr.expression", "Expr.scale"),
    ("expr", "conslaw_kit.expr.expression", "Expr.atoms"),
    ("expr", "conslaw_kit.expr.expression", "partial"),
    ("expr", "conslaw_kit.expr.expression", "collect"),
    ("expr", "conslaw_kit.expr.expression", "normalize"),
    ("expr", "conslaw_kit.expr.expression", "exp_of"),
    ("expr", "conslaw_kit.expr.coeff", "Poly.__add__"),
    ("expr", "conslaw_kit.expr.coeff", "Poly.__sub__"),
    ("expr", "conslaw_kit.expr.coeff", "Poly.__mul__"),
    ("expr", "conslaw_kit.expr.coeff", "Poly.scale"),
    ("expr", "conslaw_kit.expr.coeff", "Poly.exact_div"),
    ("jet", "conslaw_kit.jet", "total_derivative"),
    ("jet", "conslaw_kit.jet", "PdeSystem.reduce"),
    ("jet", "conslaw_kit.jet", "PdeSystem.replacement"),
    ("jet", "conslaw_kit.expr.expression", "substitute"),
    ("jet", "conslaw_kit.expr.rules", "RuleSet.reduce"),
    ("variational", "conslaw_kit.variational", "euler"),
    ("variational", "conslaw_kit.variational", "linearize"),
    ("variational", "conslaw_kit.variational", "adjoint_linearize"),
    ("variational", "conslaw_kit.variational", "is_variational"),
    ("determining", "conslaw_kit.determining", "e_decompose"),
    ("determining", "conslaw_kit.determining", "symmetry_residual"),
    ("determining", "conslaw_kit.determining", "adjoint_symmetry_residual"),
    ("determining", "conslaw_kit.determining",
     "differential_substitution_residual"),
    ("determining", "conslaw_kit.determining", "multiplier_residual"),
    ("determining", "conslaw_kit.determining", "adjoint_invariance_conditions"),
    ("determining", "conslaw_kit.determining", "selfadjoint_lambda"),
    ("conslaw", "conslaw_kit.conslaw", "ibragimov_vector"),
    ("conslaw", "conslaw_kit.conslaw", "verify_divergence"),
    ("ansatz", "conslaw_kit.ansatz", "build_and_split"),
    ("ansatz", "conslaw_kit.ansatz", "solve_linear"),
    ("ansatz", "conslaw_kit.ansatz", "_check_solution"),
    ("dsl", "conslaw_kit.dsl.session", "load_session"),
    ("dsl", "conslaw_kit.dsl.commands", "run_session_command"),
    ("dsl", "conslaw_kit.dsl.report", "emit"),
)

LAYERS = ("expr", "jet", "variational", "determining", "conslaw", "ansatz")

# per-layer metrics of one traced repetition, with their units
METRIC_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "expr.add_calls": "count",
    "expr.mul_calls": "count",
    "expr.poly_mul_calls": "count",
    "expr.peak_terms": "count",
    "jet.total_derivative_calls": "count",
    "jet.substitute_calls": "count",
    "jet.substitute_s": "s",
    "jet.reduce_calls": "count",
    "jet.replacement_calls": "count",
    "jet.replacement_hit_ratio": "ratio",
    "jet.rules_reduce_calls": "count",
    "variational.euler_calls": "count",
    "determining.e_decompose_calls": "count",
    "determining.e_decompose_s": "s",
    "conslaw.ibragimov_vector_s": "s",
    "conslaw.verify_divergence_s": "s",
    "ansatz.build_and_split_s": "s",
    "ansatz.solve_linear_s": "s",
    "ansatz.rows": "count",
    "ansatz.rows_kept_ratio": "ratio",
    "ansatz.unknowns": "count",
    "ansatz.dimension": "count",
    "ansatz.side_conditions": "count",
    "dsl.load_session_s": "s",
    "dsl.emit_s": "s",
}


def conslaw_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if name == "conslaw_kit" or name.startswith("conslaw_kit.")]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Tracer:
    """Context manager: installs the span wrappers, restores on exit."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.peak_terms = 0
        self.replacement_hits = 0
        self.ansatz: Counter = Counter()
        self._open: Counter = Counter()      # open spans by name
        self._stack: list[list] = []         # open spans: [layer, child time]
        self._patches: list[tuple] = []      # (owner, key, original)

    # -- spans -------------------------------------------------------------

    def _timed(self, layer: str, name: str, fn, args, kwargs):
        frame = [layer, 0.0]
        self._stack.append(frame)
        self._open[name] += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            self._stack.pop()
            self._open[name] -= 1
            if not self._open[name]:
                self.inclusive[name] += duration
            self.self_time[layer] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration

    def _wrap(self, layer: str, name: str, fn, expr_type):
        calls, stack, timed = self.calls, self._stack, self._timed
        before = after = None
        if name == "PdeSystem.replacement":
            before = self._replacement_probe
        elif name == "build_and_split":
            after = self._rows_built
        elif name == "solve_linear":
            after = self._solved

        if layer == KERNEL:
            @functools.wraps(fn)
            def kernel_span(*args, **kwargs):
                calls[name] += 1
                if stack and stack[-1][0] == KERNEL:
                    out = fn(*args, **kwargs)
                else:
                    out = timed(layer, name, fn, args, kwargs)
                if type(out) is expr_type and len(out.terms) > self.peak_terms:
                    self.peak_terms = len(out.terms)
                return out
            return kernel_span

        @functools.wraps(fn)
        def span(*args, **kwargs):
            calls[name] += 1
            if before is not None:
                before(*args, **kwargs)
            out = timed(layer, name, fn, args, kwargs)
            if after is not None:
                after(out)
            return out
        return span

    def _replacement_probe(self, system, i, extra):
        if (i, extra) in system._cache:
            self.replacement_hits += 1

    def _rows_built(self, rows) -> None:
        self.ansatz["rows"] += len(rows)

    def _solved(self, result) -> None:
        self.ansatz["kept"] += len(result.rows)
        self.ansatz["unknowns"] += len(result.unknowns)
        self.ansatz["dimension"] += result.dimension
        self.ansatz["side_conditions"] += len(result.side_conditions)

    # -- patching ------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        expr_type = importlib.import_module(
            "conslaw_kit.expr.expression").Expr
        wrappers, classes = {}, set()
        for layer, module, path in TRACED:
            owner = importlib.import_module(module)
            cls_name, _, attr = path.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
                classes.add(owner)
            original = vars(owner)[attr]
            wrappers[id(original)] = (
                original, self._wrap(layer, path, original, expr_type))
        try:
            for owner in [*conslaw_modules(), *classes]:
                self._rebind(owner, wrappers)
        except BaseException:
            self._restore()
            raise
        return self

    def _rebind(self, owner, wrappers) -> None:
        for key, value in list(vars(owner).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                self._patches.append((owner, key, value))
                setattr(owner, key, hit[1])
            elif isinstance(value, dict) and not isinstance(owner, type):
                for k, v in list(value.items()):
                    hit = wrappers.get(id(v))
                    if hit is not None and hit[0] is v:
                        self._patches.append((value, k, v))
                        value[k] = hit[1]

    def _restore(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def __exit__(self, *exc) -> None:
        self._restore()

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        c, t, a = self.calls, self.inclusive, self.ansatz
        out = {f"{layer}.self_s": self.self_time[layer] for layer in LAYERS}
        out.update({
            "expr.add_calls": c["Expr.__add__"],
            "expr.mul_calls": c["Expr.__mul__"],
            "expr.poly_mul_calls": c["Poly.__mul__"],
            "expr.peak_terms": self.peak_terms,
            "jet.total_derivative_calls": c["total_derivative"],
            "jet.substitute_calls": c["substitute"],
            "jet.substitute_s": t["substitute"],
            "jet.reduce_calls": c["PdeSystem.reduce"],
            "jet.replacement_calls": c["PdeSystem.replacement"],
            "jet.replacement_hit_ratio": _ratio(
                self.replacement_hits, c["PdeSystem.replacement"]),
            "jet.rules_reduce_calls": c["RuleSet.reduce"],
            "variational.euler_calls": c["euler"],
            "determining.e_decompose_calls": c["e_decompose"],
            "determining.e_decompose_s": t["e_decompose"],
            "conslaw.ibragimov_vector_s": t["ibragimov_vector"],
            "conslaw.verify_divergence_s": t["verify_divergence"],
            "ansatz.build_and_split_s": t["build_and_split"],
            "ansatz.solve_linear_s": t["solve_linear"],
            "ansatz.rows": a["rows"],
            "ansatz.rows_kept_ratio": _ratio(a["kept"], a["rows"]),
            "ansatz.unknowns": a["unknowns"],
            "ansatz.dimension": a["dimension"],
            "ansatz.side_conditions": a["side_conditions"],
            "dsl.load_session_s": t["load_session"],
            "dsl.emit_s": t["emit"],
        })
        return out
