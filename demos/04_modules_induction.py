"""The algebra-valued inner product, finite-rank structure, kernels, and
induction of representations.

Fiber states with Gaussian decay pair to base functions; a normalized
Gaussian has norm exactly one at every order, rank-one operators close
under composition and adjoints, kernels on the doubled fiber realize the
classical crossed product, and tensoring with the position-space module
induces representations of the full algebra.
"""

from fractions import Fraction

from redstar import ModelSpace, ReductionConfig, abelian_lie
from redstar.morita import (
    InducedVector,
    InnerProductModule,
    KernelSpace,
    RankOneOperator,
    VerticalOperator,
    deformation_comparison_H,
    fullness_element,
    inner_product_red,
    rieffel_induce,
    schroedinger_class,
    vertical_sqrt,
)
from redstar.scalars import GaussRational

m = ModelSpace(abelian_lie(1), base_dim=2, order=3)
cfg = ReductionConfig(m, Fraction(1, 2))

print("the unit-norm state:")
ehat = fullness_element(m)
print("  <e, e>        =", inner_product_red(cfg, ehat, ehat))

phi = m.fiber_state(m.var("g") * m.var("q"))
psi = m.fiber_state(m.var("g"))
print("\nan algebra-valued pairing of two states:")
print("  <phi, psi>    =", inner_product_red(cfg, phi, psi))

print("\nrank-one operators and the dual basis property:")
theta = RankOneOperator(cfg, phi, ehat)
print("  Theta_{phi,e}(e) - phi = ", (theta(ehat) - phi))

print("\nvertical operators: a planted deformation and its recovery:")
l0 = VerticalOperator.fundamental(m, 0)
pert = VerticalOperator.identity(m) + l0.compose(l0).lam_shift(1)
h = deformation_comparison_H(cfg, pert.apply, g_cap=1, word_cap=2, probe_cap=2)
print("  recovered === planted:", (h - pert).is_zero())
v = vertical_sqrt(cfg, h)
print("  V* o V === H:", (v.adjoint().compose(v) - h).is_zero())

print("\nkernels on the doubled fiber (classical crossed product):")
ks = KernelSpace(m)
k = ks.from_pair(phi, psi)
print("  (phi x conj psi) acting on psi =", ks.act(k, psi))

print("\ninduction through the position-space module:")
module = InnerProductModule.canonical(cfg)
act = rieffel_induce(cfg, module)
chi = m.fiber_state(m.var("g"))
beta = schroedinger_class(m, chi)
vec = InducedVector([(beta, m.one())])
out = act(m.momentum(0) * GaussRational(-1), vec)
print("  P . ([chi] x 1) has position-space leg:", out.terms[0][0])
