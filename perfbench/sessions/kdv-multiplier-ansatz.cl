# Korteweg-de Vries equation u_t + u u_x + u_xxx = 0, with a multiplier
# ansatz over the 56 monomials of degree <= 3 in {u, u_x, u_xx, x, t}.
# The multiplier space has dimension 4, spanned by 1, u, u^2/2 + u_xx
# and x - t u (mass, momentum, energy and Galilean boost).

indep t x;
dep u;

eq kdv: D[u,t] + u*D[u,x] + D[u,x,x,x] = 0 leading D[u,t];

char b_one = 1;
char b_u = u;
char b_ux = D[u,x];
char b_uxx = D[u,x,x];
char b_x = x;
char b_t = t;
char b_u2 = u^2;
char b_u_ux = u*D[u,x];
char b_u_uxx = u*D[u,x,x];
char b_u_x = u*x;
char b_u_t = u*t;
char b_ux2 = D[u,x]^2;
char b_ux_uxx = D[u,x]*D[u,x,x];
char b_ux_x = D[u,x]*x;
char b_ux_t = D[u,x]*t;
char b_uxx2 = D[u,x,x]^2;
char b_uxx_x = D[u,x,x]*x;
char b_uxx_t = D[u,x,x]*t;
char b_x2 = x^2;
char b_x_t = x*t;
char b_t2 = t^2;
char b_u3 = u^3;
char b_u2_ux = u^2*D[u,x];
char b_u2_uxx = u^2*D[u,x,x];
char b_u2_x = u^2*x;
char b_u2_t = u^2*t;
char b_u_ux2 = u*D[u,x]^2;
char b_u_ux_uxx = u*D[u,x]*D[u,x,x];
char b_u_ux_x = u*D[u,x]*x;
char b_u_ux_t = u*D[u,x]*t;
char b_u_uxx2 = u*D[u,x,x]^2;
char b_u_uxx_x = u*D[u,x,x]*x;
char b_u_uxx_t = u*D[u,x,x]*t;
char b_u_x2 = u*x^2;
char b_u_x_t = u*x*t;
char b_u_t2 = u*t^2;
char b_ux3 = D[u,x]^3;
char b_ux2_uxx = D[u,x]^2*D[u,x,x];
char b_ux2_x = D[u,x]^2*x;
char b_ux2_t = D[u,x]^2*t;
char b_ux_uxx2 = D[u,x]*D[u,x,x]^2;
char b_ux_uxx_x = D[u,x]*D[u,x,x]*x;
char b_ux_uxx_t = D[u,x]*D[u,x,x]*t;
char b_ux_x2 = D[u,x]*x^2;
char b_ux_x_t = D[u,x]*x*t;
char b_ux_t2 = D[u,x]*t^2;
char b_uxx3 = D[u,x,x]^3;
char b_uxx2_x = D[u,x,x]^2*x;
char b_uxx2_t = D[u,x,x]^2*t;
char b_uxx_x2 = D[u,x,x]*x^2;
char b_uxx_x_t = D[u,x,x]*x*t;
char b_uxx_t2 = D[u,x,x]*t^2;
char b_x3 = x^3;
char b_x2_t = x^2*t;
char b_x_t2 = x*t^2;
char b_t3 = t^3;

cmd ansatz multiplier
    b_one b_u b_ux b_uxx b_x b_t b_u2 b_u_ux b_u_uxx b_u_x b_u_t b_ux2
    b_ux_uxx b_ux_x b_ux_t b_uxx2 b_uxx_x b_uxx_t b_x2 b_x_t b_t2 b_u3
    b_u2_ux b_u2_uxx b_u2_x b_u2_t b_u_ux2 b_u_ux_uxx b_u_ux_x b_u_ux_t
    b_u_uxx2 b_u_uxx_x b_u_uxx_t b_u_x2 b_u_x_t b_u_t2 b_ux3 b_ux2_uxx
    b_ux2_x b_ux2_t b_ux_uxx2 b_ux_uxx_x b_ux_uxx_t b_ux_x2 b_ux_x_t b_ux_t2
    b_uxx3 b_uxx2_x b_uxx2_t b_uxx_x2 b_uxx_x_t b_uxx_t2 b_x3 b_x2_t b_x_t2
    b_t3;
