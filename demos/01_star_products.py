"""A tour of the star products on the trivial product model.

The model is M_red x g* x G with a symplectic plane as base.  The base
carries the exponential bidifferential product; the cotangent factor of the
group carries a standard-ordered product and its Hermitian normalization.
Everything is exact: coefficients are Gaussian rationals and all identities
hold coefficient by coefficient.
"""

from redstar import (
    ModelSpace,
    abelian_lie,
    heisenberg3,
    moyal,
    neumaier_N,
    schroedinger_rep,
    star_G,
    star_std,
)
from redstar.scalars import GaussRational

# -- the abelian line: one group coordinate g, one momentum J ---------------

m = ModelSpace(abelian_lie(1), base_dim=2, order=4)
q, p = m.var("q"), m.var("p")
print("model:", m)

print("\nbase product (canonical pair):")
print("  q * p         =", moyal(m, q, p))
print("  [q, p]        =", moyal(m, q, p) - moyal(m, p, q))

# momenta are the negatives of the fiber-linear coordinates
P = m.momentum(0) * GaussRational(-1)
g = m.var("g")

print("\nstandard-ordered product on the cotangent factor:")
print("  P *std g      =", star_std(m, P, g))
print("  g *std P      =", star_std(m, g, P), "   (pullbacks multiply pointwise)")

print("\nHermitian normalization:")
N = neumaier_N(m)
print("  N(gP)         =", N.apply(g * P))
print("  P *G g        =", star_G(m, P, g), "   (symmetric ordering)")

print("\nposition-space representation on a Gaussian fiber state:")
psi = m.fiber_state(g)
print("  psi           =", psi)
print("  rho(P) psi    =", schroedinger_rep(m, P, psi))
print("  rho(g) psi    =", schroedinger_rep(m, g, psi))

# -- the nilpotent group of class two ---------------------------------------

h = ModelSpace(heisenberg3(), base_dim=2, order=3)
print("\nnilpotent model:", h)
print("momentum commutators quantize the structure constants:")
for (a, b) in [(0, 1), (0, 2), (1, 2)]:
    comm = star_G(h, h.momentum(a), h.momentum(b)) - star_G(
        h, h.momentum(b), h.momentum(a))
    print(f"  [J{a+1}, J{b+1}]_*  =", comm)
