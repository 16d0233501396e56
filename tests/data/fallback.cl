# The heat equation's symmetry ansatz over eight elements whose
# coefficients carry four generic parameters.  Its elimination meets
# pivots that are not units, so the sparse elimination gives way to the
# fraction-free one, and the solution holds under side conditions.

indep t x;
dep u;
param a b c d;

eq heat: D[u,t] = D[u,x,x];

char b0 = (b + 2*c)*x + c*t + (a + b)*x^2*u;
char b1 = 2*t*u + c*x*u + (c - d)*x;
char b2 = x*t + (a + d)*x^2*u + x^2;
char b3 = (b + 2*c)*t*u + (a + d)*x + (b + 2*c)*x^2*u;
char b4 = x*t + c*t*u^2 + d*u;
char b5 = (b + 2*c)*x*u + c*x + c*u;
char b6 = x^2*u + t*u^2 + c*x^2;
char b7 = 2*u^2 + (b + 2*c)*x*t + (b + 2*c)*x^2;

cmd ansatz symmetry b0 b1 b2 b3 b4 b5 b6 b7;
