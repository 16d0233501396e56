# The Korteweg-de Vries equation u_t + 6 u u_x + u_xxx = 0, written so
# that every coefficient becomes an integer only after cancellation:
# halves and thirds that sum to integers, and units in the nonzero
# parameter a that cancel (a*u/a, (a + 1)*u - a*u).  In m4 the parameter
# b meets rational coefficients in one sum and cancels; in m5 it stays,
# so the symmetry ansatz has parameter rows.

indep t x;
dep u;
param a nonzero;
param b;

eq kdv: (1/2 + 1/2)*D[u,t] + 3/2*u*D[u,x] + 9/2*u*D[u,x]
    + a*D[u,x,x,x]/a = 0 leading D[u,t];

char m1 = a*u/a;
char m2 = (a + 1)*u^2 - a*u^2 + 2/3*u^2 + 4/3*u^2 + D[u,x,x]*a^2/a^2;
char m3 = 1/2*x + 1/2*x;
char m4 = b*u/a + (1 - b/a)*u;
char m5 = b*D[u,x]/a;

gen spaceTrans: eta = (-a*D[u,x]/a);
gen timeTrans: eta = (-3/3*D[u,t]);

vector mass = (a*u/a, 3/2*u^2 + 3/2*u^2 + 1/2*D[u,x,x] + 1/2*D[u,x,x]);
vector energy = (u^2/2 + u^2/2, 4/3*u^3 + 8/3*u^3 + 2*u*D[u,x,x]
    - D[u,x]^2);

cmd verify mass;
cmd verify energy;
cmd multiplier-check m4;
cmd conslaw spaceTrans m1;
cmd conslaw timeTrans m2;
cmd conslaw spaceTrans m4;
cmd ansatz multiplier m1 m2 m3 m4;
cmd ansatz symmetry m1 m3 m5;
