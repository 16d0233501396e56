# The Thomas equation's adjoint-symmetry ansatz at scale: the exponential
# of corpus/thomas.cl times every monomial of degree <= 4 in
# {t, x, D[u,t], D[u,x]}, plus the constant 1 (71 elements).  Every
# elimination pivot is a unit, a rational times a monomial in the
# nonzero parameters; the solution space is the four-constant family.

indep t x;
dep u;
param alpha beta gamma nonzero;

eq thomas: D[u,x,t] + alpha*D[u,x] + beta*D[u,t] + gamma*D[u,x]*D[u,t] = 0
    leading D[u,x,t];

char b1 = exp(2*(gamma*u + alpha*t + beta*x));
char b2 = exp(2*(gamma*u + alpha*t + beta*x))*t;
char b3 = exp(2*(gamma*u + alpha*t + beta*x))*x;
char b4 = exp(2*(gamma*u + alpha*t + beta*x))*D[u,t];
char b5 = exp(2*(gamma*u + alpha*t + beta*x))*D[u,x];
char b6 = exp(2*(gamma*u + alpha*t + beta*x))*t^2;
char b7 = exp(2*(gamma*u + alpha*t + beta*x))*t*x;
char b8 = exp(2*(gamma*u + alpha*t + beta*x))*t*D[u,t];
char b9 = exp(2*(gamma*u + alpha*t + beta*x))*t*D[u,x];
char b10 = exp(2*(gamma*u + alpha*t + beta*x))*x^2;
char b11 = exp(2*(gamma*u + alpha*t + beta*x))*x*D[u,t];
char b12 = exp(2*(gamma*u + alpha*t + beta*x))*x*D[u,x];
char b13 = exp(2*(gamma*u + alpha*t + beta*x))*D[u,t]^2;
char b14 = exp(2*(gamma*u + alpha*t + beta*x))*D[u,t]*D[u,x];
char b15 = exp(2*(gamma*u + alpha*t + beta*x))*D[u,x]^2;
char b16 = exp(2*(gamma*u + alpha*t + beta*x))*t^3;
char b17 = exp(2*(gamma*u + alpha*t + beta*x))*t^2*x;
char b18 = exp(2*(gamma*u + alpha*t + beta*x))*t^2*D[u,t];
char b19 = exp(2*(gamma*u + alpha*t + beta*x))*t^2*D[u,x];
char b20 = exp(2*(gamma*u + alpha*t + beta*x))*t*x^2;
char b21 = exp(2*(gamma*u + alpha*t + beta*x))*t*x*D[u,t];
char b22 = exp(2*(gamma*u + alpha*t + beta*x))*t*x*D[u,x];
char b23 = exp(2*(gamma*u + alpha*t + beta*x))*t*D[u,t]^2;
char b24 = exp(2*(gamma*u + alpha*t + beta*x))*t*D[u,t]*D[u,x];
char b25 = exp(2*(gamma*u + alpha*t + beta*x))*t*D[u,x]^2;
char b26 = exp(2*(gamma*u + alpha*t + beta*x))*x^3;
char b27 = exp(2*(gamma*u + alpha*t + beta*x))*x^2*D[u,t];
char b28 = exp(2*(gamma*u + alpha*t + beta*x))*x^2*D[u,x];
char b29 = exp(2*(gamma*u + alpha*t + beta*x))*x*D[u,t]^2;
char b30 = exp(2*(gamma*u + alpha*t + beta*x))*x*D[u,t]*D[u,x];
char b31 = exp(2*(gamma*u + alpha*t + beta*x))*x*D[u,x]^2;
char b32 = exp(2*(gamma*u + alpha*t + beta*x))*D[u,t]^3;
char b33 = exp(2*(gamma*u + alpha*t + beta*x))*D[u,t]^2*D[u,x];
char b34 = exp(2*(gamma*u + alpha*t + beta*x))*D[u,t]*D[u,x]^2;
char b35 = exp(2*(gamma*u + alpha*t + beta*x))*D[u,x]^3;
char b36 = exp(2*(gamma*u + alpha*t + beta*x))*t^4;
char b37 = exp(2*(gamma*u + alpha*t + beta*x))*t^3*x;
char b38 = exp(2*(gamma*u + alpha*t + beta*x))*t^3*D[u,t];
char b39 = exp(2*(gamma*u + alpha*t + beta*x))*t^3*D[u,x];
char b40 = exp(2*(gamma*u + alpha*t + beta*x))*t^2*x^2;
char b41 = exp(2*(gamma*u + alpha*t + beta*x))*t^2*x*D[u,t];
char b42 = exp(2*(gamma*u + alpha*t + beta*x))*t^2*x*D[u,x];
char b43 = exp(2*(gamma*u + alpha*t + beta*x))*t^2*D[u,t]^2;
char b44 = exp(2*(gamma*u + alpha*t + beta*x))*t^2*D[u,t]*D[u,x];
char b45 = exp(2*(gamma*u + alpha*t + beta*x))*t^2*D[u,x]^2;
char b46 = exp(2*(gamma*u + alpha*t + beta*x))*t*x^3;
char b47 = exp(2*(gamma*u + alpha*t + beta*x))*t*x^2*D[u,t];
char b48 = exp(2*(gamma*u + alpha*t + beta*x))*t*x^2*D[u,x];
char b49 = exp(2*(gamma*u + alpha*t + beta*x))*t*x*D[u,t]^2;
char b50 = exp(2*(gamma*u + alpha*t + beta*x))*t*x*D[u,t]*D[u,x];
char b51 = exp(2*(gamma*u + alpha*t + beta*x))*t*x*D[u,x]^2;
char b52 = exp(2*(gamma*u + alpha*t + beta*x))*t*D[u,t]^3;
char b53 = exp(2*(gamma*u + alpha*t + beta*x))*t*D[u,t]^2*D[u,x];
char b54 = exp(2*(gamma*u + alpha*t + beta*x))*t*D[u,t]*D[u,x]^2;
char b55 = exp(2*(gamma*u + alpha*t + beta*x))*t*D[u,x]^3;
char b56 = exp(2*(gamma*u + alpha*t + beta*x))*x^4;
char b57 = exp(2*(gamma*u + alpha*t + beta*x))*x^3*D[u,t];
char b58 = exp(2*(gamma*u + alpha*t + beta*x))*x^3*D[u,x];
char b59 = exp(2*(gamma*u + alpha*t + beta*x))*x^2*D[u,t]^2;
char b60 = exp(2*(gamma*u + alpha*t + beta*x))*x^2*D[u,t]*D[u,x];
char b61 = exp(2*(gamma*u + alpha*t + beta*x))*x^2*D[u,x]^2;
char b62 = exp(2*(gamma*u + alpha*t + beta*x))*x*D[u,t]^3;
char b63 = exp(2*(gamma*u + alpha*t + beta*x))*x*D[u,t]^2*D[u,x];
char b64 = exp(2*(gamma*u + alpha*t + beta*x))*x*D[u,t]*D[u,x]^2;
char b65 = exp(2*(gamma*u + alpha*t + beta*x))*x*D[u,x]^3;
char b66 = exp(2*(gamma*u + alpha*t + beta*x))*D[u,t]^4;
char b67 = exp(2*(gamma*u + alpha*t + beta*x))*D[u,t]^3*D[u,x];
char b68 = exp(2*(gamma*u + alpha*t + beta*x))*D[u,t]^2*D[u,x]^2;
char b69 = exp(2*(gamma*u + alpha*t + beta*x))*D[u,t]*D[u,x]^3;
char b70 = exp(2*(gamma*u + alpha*t + beta*x))*D[u,x]^4;
char b71 = 1;

cmd ansatz adjoint-symmetry b1 b2 b3 b4 b5 b6 b7 b8 b9 b10 b11 b12 b13 b14
    b15 b16 b17 b18 b19 b20 b21 b22 b23 b24 b25 b26 b27 b28 b29 b30 b31 b32
    b33 b34 b35 b36 b37 b38 b39 b40 b41 b42 b43 b44 b45 b46 b47 b48 b49 b50
    b51 b52 b53 b54 b55 b56 b57 b58 b59 b60 b61 b62 b63 b64 b65 b66 b67 b68
    b69 b70 b71;
