"""Weighted involutions of the reduced algebra and their modular structure.

A real positive density on the constraint surface produces a positive
functional, a pre-Hilbert structure, and through adjoints of the right
module action a *-involution of the reduced algebra.  The translation
invariant weight gives back complex conjugation; a Gaussian weight deforms
it, and the first-order deformation is the modular vector field.
"""

from fractions import Fraction

from redstar import (
    ModelSpace,
    ReductionConfig,
    abelian_lie,
    gaussian_base_weight,
    lebesgue_weight,
    lift_density,
    modular_vector_field,
)
from redstar.involution import (
    PositiveFunctional,
    density_ratio_hat,
    kms_check,
    modular_class,
    reduced_involution,
)

m = ModelSpace(abelian_lie(1), base_dim=2, order=4)
cfg = ReductionConfig(m, Fraction(1, 2))
leb = lebesgue_weight(m)
gauss = gaussian_base_weight(m, 1)

q, p = m.var("q"), m.var("p")
print("translation-invariant weight (a trace):")
print("  q*            =", reduced_involution(m, q, leb))

print("\nGaussian weight:")
print("  q*            =", reduced_involution(m, q, gauss))
print("  modular field of the weight applied to q:",
      modular_vector_field(m, gauss).apply(q))

print("\nKMS identity for the Gaussian weight:")
u, v = q * p, q + p * p
rep = kms_check(m, u, v, gauss)
print("  tau(v * u)    =", rep["lhs"])
print("  tau(I(u) * v) =", rep["rhs"])
print("  holds:", rep["holds"])

print("\ndensity ratio between scaled weights:")
rho = m.one() + q * q
print("  rho_hat       =", density_ratio_hat(m, gauss, rho))

print("\nmodular class data:")
mc = modular_class(m, gauss, cap=2)
print("  D(q) =", mc["D"](q))
print("  first order is -i times the modular field:",
      mc["first_order_is_minus_i_delta"])

print("\npositivity of the functional:")
mu = lift_density(m, gauss)
posf = PositiveFunctional(cfg, mu)
f = m.fiber_state(m.var("g") + q)
print("  omega(conj f * f) positive:", posf.positivity(f))
