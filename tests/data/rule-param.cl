# A symmetry ansatz on a system whose parameter c1 appears only in a rule.
# The rule f_x = c1*f keeps the translation u_x out of the nullspace, and
# the unknowns are named cc1, cc2, cc3, so none of them is the parameter.

indep t x;
dep u;
param c1 nonzero;
func f(x);

eq e: D[u,t] = D[u,x,x] + f*D[u,x];
rule D[f,x] -> c1*f;

char b1 = D[u,x];
char b2 = u;
char b3 = 1;

cmd ansatz symmetry b1 b2 b3;
