"""redstar: exact deformation quantization and phase-space reduction on a
trivial product model, with order-by-order verification of the algebraic
identities of the reduced *-algebra and its representation theory.

The package re-exports the engine only, scalars through involution;
redstar.suites and redstar.morita load with `redstar verify` or on an
explicit import."""

from .scalars import GaussRational
from .poly import Poly
from .series import LambdaSeries, series_inverse, series_sqrt
from .funcs import Func
from .diffop import DiffOperator
from .integrate import gaussian_integrate
from .geometry import (
    LieAlgebraData,
    ModelSpace,
    abelian_lie,
    aff1,
    classical_BC_member,
    classical_reduced_bracket,
    density_weight,
    fiber_integral,
    gaussian_base_weight,
    heisenberg3,
    lebesgue_weight,
    lift_density,
    modular_vector_field,
    poisson_bracket,
)
from .starprod import (
    StarProduct,
    check_strong_invariance,
    moyal,
    neumaier_N,
    schroedinger_rep,
    star_G,
    star_std,
    stdrep,
)
from .koszul import (
    ReductionConfig,
    SuperObservable,
    deformed_homotopy,
    deformed_restriction,
    homotopy_h,
    koszul,
    left_module,
    quantized_BC_member,
    quantized_koszul,
    reduced_star,
    right_module,
)
from .involution import (
    PositiveFunctional,
    conj_transport,
    density_ratio_hat,
    gns_check,
    inner_product_mu,
    involution_comparison,
    kms_check,
    modular_class,
    omega_mu,
    reduced_involution,
)

__version__ = "0.1.0"
