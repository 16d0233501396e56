"""conslaw-kit: symbolic verification and construction of conservation laws.

The engine works on jet space with exact rational-function coefficients:
PDE systems in leading-derivative form, total derivatives, the Euler
operator, linearizations and their formal adjoints, determining-system
residuals for symmetries / adjoint symmetries / multipliers / differential
substitutions, conserved vectors built from a formal Lagrangian, and an
exact linear solver for undetermined-coefficient problems.

The `jet` constructor for jet atoms lives in `conslaw_kit.expr`; the name
`conslaw_kit.jet` is the jet-space module.
"""

from .expr import (Atom, ConslawError, ExpAtom, Expr,
                   ExprError, IndependentVar, JetVar, MultiIndex,
                   OpaqueDeriv, Parameter, Poly, RewriteRule, RuleSet,
                   atom_expr, collect, exp_of, ivar, jet_atom,
                   normalize, opaque, param, partial, rational,
                   substitute, sum_exprs)

__version__ = "0.1.0"
