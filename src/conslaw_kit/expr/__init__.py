"""Canonical-form symbolic expression kernel."""

from .atoms import (Atom, ExpAtom, IndependentVar, JetVar, MultiIndex,
                    OpaqueDeriv, Parameter)
from .coeff import Poly
from .errors import (AnsatzError, CancelledComputation, ConslawError,
                     ExprError, LeadingSolveError, RuleError,
                     SubstitutionClassError, TrivialSubstitutionError)
from .expression import (Expr, atom_expr, collect, exp_of, ivar, jet,
                         jet_atom, normalize, opaque, param,
                         partial, rational, substitute, sum_exprs)
from .rules import RewriteRule, RuleSet

__all__ = [
    "Atom", "ExpAtom", "IndependentVar", "JetVar", "MultiIndex",
    "OpaqueDeriv", "Parameter", "Poly", "Expr",
    "atom_expr", "collect", "exp_of", "ivar", "jet", "jet_atom", "normalize",
    "opaque", "param", "partial", "rational", "substitute",
    "sum_exprs", "RewriteRule", "RuleSet",
    "ConslawError", "ExprError", "RuleError", "LeadingSolveError",
    "SubstitutionClassError", "TrivialSubstitutionError", "AnsatzError",
    "CancelledComputation",
]
