"""Phase-space reduction through the quantized Koszul complex.

The constraint surface is the zero level of the momenta.  Classically,
restriction and the ray homotopy resolve the vanishing ideal; after
quantization, the corrected differential produces a left ideal, a deformed
restriction, and a bimodule whose induced product on the base reproduces
the base star product on the nose.
"""

from fractions import Fraction

from redstar import (
    ModelSpace,
    ReductionConfig,
    SuperObservable,
    abelian_lie,
    aff1,
    deformed_restriction,
    homotopy_h,
    koszul,
    left_module,
    moyal,
    quantized_koszul,
    reduced_star,
    right_module,
)
from redstar.scalars import GaussRational

m = ModelSpace(abelian_lie(1), base_dim=2, order=4)
cfg = ReductionConfig(m, Fraction(1, 2))
J = m.momentum(0)

print("classical complex on the abelian line:")
x = SuperObservable(m, {(0,): m.var("q") * J})
print("  d(q J e1)     =", koszul(m, x).comps[()])
h0 = homotopy_h(m, SuperObservable.scalar(m, J * J), 0)
print("  h0(J^2)       =", h0.comps[(0,)], " (wedge e1)")

print("\nquantized restriction:")
gP = m.var("g") * (J * GaussRational(-1))
print("  iota*_k(g P)  =", deformed_restriction(cfg, gP))
print("  iota*_k(P^2)  =", deformed_restriction(cfg, J * J))

print("\nthe reduced product reproduces the base product:")
u, v = m.var("q") * m.var("q"), m.var("p")
print("  u *red v      =", reduced_star(cfg, u, v))
print("  u *base v     =", moyal(m, u, v))

print("\nbimodule structure on fiber states:")
phi = m.fiber_state(m.var("g") * m.var("q"))
print("  J . phi       =", left_module(cfg, J, phi))
print("  phi . p       =", right_module(cfg, phi, m.var("p")))

print("\nthe affine line carries a modular weight (momentum level only):")
a = ModelSpace(aff1(), base_dim=2, order=3)
acfg = ReductionConfig(a, Fraction(1, 2))
f = a.var("q")
x = SuperObservable(a, {(0,): f})
print("  d_k(q e1)     =", quantized_koszul(acfg, x).comps[()])
print("  J1 . q        =", left_module(acfg, a.momentum(0), f))
