# A heat equation with coefficients that divide by a nonzero parameter g,
# and an ansatz in two generic parameters a and b whose elimination
# pivots are not units, so the solution holds under side conditions.

indep t x;
dep u;
param g nonzero;
param a b;

eq heat: D[u,t] = D[u,x,x] + u/g + x*D[u,x]/g^2;

char b1 = (a - b)*x;
char b2 = u;
char b3 = b*x*u;
char s = (a + b)*x/g - 2*a*t*u/g^3;
vector v = (u, -D[u,x]);

cmd symmetry-check s expect nonzero;
cmd ansatz symmetry b1 b2 b3;
cmd verify v expect nonzero;
