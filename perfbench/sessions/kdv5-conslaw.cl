# Fifth-order KdV (Lax) equation
#   u_t + 30 u^2 u_x + 20 u_x u_xx + 10 u u_xxx + u_xxxxx = 0.
# Not variational in u; the three lowest multipliers are Euler
# derivatives of conserved densities, and each pairs with a translation
# generator to give a verified conserved vector.

indep t x;
dep u;

eq kdv5: D[u,t] + 30*u^2*D[u,x] + 20*D[u,x]*D[u,x,x] + 10*u*D[u,x,x,x]
    + D[u,x,x,x,x,x] = 0 leading D[u,t];

char m1 = u;
char m2 = 3*u^2 + D[u,x,x];
char m3 = 10*u^3 + 5*D[u,x]^2 + 10*u*D[u,x,x] + D[u,x,x,x,x];

gen timeTrans: eta = (-D[u,t]);
gen spaceTrans: eta = (-D[u,x]);

cmd variational-check expect nonzero;
cmd adjoint-check m1;
cmd multiplier-check m1;
cmd multiplier-check m2;
cmd multiplier-check m3;
cmd conslaw timeTrans m1;
cmd conslaw timeTrans m2;
cmd conslaw timeTrans m3;
cmd conslaw spaceTrans m1;
cmd conslaw spaceTrans m2;
cmd conslaw spaceTrans m3;
