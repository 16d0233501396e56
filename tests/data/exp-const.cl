# The heat equation u_t = u_xx with exponentials of constant exponents:
# literals e^(1/2) and e^(-1/3), a product e^(1/2)*e^(1/2) that folds to
# e^1, and exponents that collapse to constants on solutions.

indep t x;
dep u;

eq heat: D[u,t] = D[u,x,x] leading D[u,t];

char half = exp(1/2)*u + exp(-1/3)*D[u,x];
char twice = exp(1/2)*exp(1/2);
# exponents that collapse on solutions: to 0, and to 1/2
char zero = exp(D[u,t] - D[u,x,x])*u;
char shift = exp(D[u,t] - D[u,x,x] + 1/2)*u;
# the equation inside an exponential: on solutions this is u_x
char m = exp(2*D[u,t] - 2*D[u,x,x] + 1/2)*exp(-1/2)*D[u,x];

gen spaceTrans: eta = (-D[u,x]);

# on solutions v is (u, -u_x), the conserved vector of mass
vector v = (exp(D[u,t] - D[u,x,x])*u, -D[u,x]);

cmd symmetry-check half;
cmd symmetry-check zero;
cmd symmetry-check shift;
cmd adjoint-check twice;
cmd adjoint-check half expect nonzero;
cmd conslaw spaceTrans twice;
cmd verify v;
cmd multiplier-check m expect nonzero;
