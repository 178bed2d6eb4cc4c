"""Identity batteries, grouped into named suites for the command line.

Every check is exact: a record fails when some lam coefficient of a defect
is a nonzero polynomial, and the first failing order plus the offending
coefficient are reported; an exception raised inside a check gives status
error instead.  Random inputs are drawn reproducibly from the
scene seed with uniform small-integer coefficients and bounded degree, so
failures can be replayed.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from .funcs import Func
from .geometry import (
    ModelSpace,
    fiber_integral,
    gaussian_base_weight,
    lebesgue_weight,
    lift_density,
    modular_vector_field,
    monomial,
    monomials,
    poisson_bracket,
    random_poly,
)
from .involution import (
    conj_transport_check,
    density_ratio_hat,
    gns_check,
    inner_product_mu,
    inner_product_mu_alt,
    involution_comparison,
    is_positive_scalar,
    kms_check,
    kms_functional,
    modular_class,
    modular_inner_difference,
    omega_mu,
    PositiveFunctional,
    reduced_involution,
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
from .morita import (
    InducedVector,
    InnerProductModule,
    KernelSpace,
    RankOneOperator,
    VerticalOperator,
    classical_inner_product,
    complete_positivity_sample,
    deformation_comparison_H,
    external_inner_product,
    fullness_element,
    fullness_element_sqrt_path,
    inner_product_red,
    inner_product_red_closed_form,
    rieffel_induce,
    schroedinger_class,
    vertical_sqrt,
)
from .scalars import GaussRational, I as IMAG
from .starprod import (
    _mul_ilam,
    check_strong_invariance,
    moyal,
    neumaier_N,
    neumaier_N_inverse,
    schroedinger_rep,
    star_G,
    star_std,
    stdrep,
)

KAPPA_VALUES = (0, Fraction(1, 2), (Fraction(1, 2), 1))


class SuiteContext:
    """A configured model plus reproducible random input generators."""

    def __init__(self, model: ModelSpace, seed: int = 0, trials: int = 8,
                 degree_cap: int = 3):
        self.model = model
        self.seed = seed
        self.trials = trials
        self.degree_cap = degree_cap
        self.rng = random.Random(seed)
        self.records: list = []

    # -- random inputs -----------------------------------------------------

    def reseed(self):
        self.rng = random.Random(self.seed)

    def rand_poly(self, deg=None, gens=None, nterms=3) -> Func:
        deg = self.degree_cap if deg is None else deg
        return random_poly(self.rng, self.model, deg, gens, nterms)

    def rand_base(self, deg=None, nterms=3) -> Func:
        return self.rand_poly(deg, self.model.base_names, nterms)

    def rand_surface(self, deg=None, nterms=3) -> Func:
        names = self.model.base_names + self.model.group_names
        return self.rand_poly(deg, names, nterms)

    def rand_state(self, deg=None, nterms=3) -> Func:
        if self.model.has_group:
            return self.model.fiber_state(self.rand_surface(deg, nterms))
        return self.rand_base(deg, nterms)

    def rand_super(self, degree: int, deg=2, nterms=2) -> SuperObservable:
        import itertools

        comps = {}
        for idx in itertools.combinations(range(self.model.lie.dim), degree):
            comps[idx] = self.rand_poly(deg, None, nterms)
        return SuperObservable(self.model, comps)

    # -- recording ----------------------------------------------------------

    def check(self, ident: str, statement: str, defects) -> bool:
        t0 = time.perf_counter()
        first = None
        detail = ""
        status = "pass"
        try:
            for d in defects() if callable(defects) else defects:
                if d is None:
                    continue
                if isinstance(d, bool):
                    if not d:
                        status = "fail"
                        detail = "predicate failed"
                    continue
                if not d.is_zero():
                    status = "fail"
                    r, c = d.series.lowest_order()
                    if first is None or (r is not None and r < first):
                        first = r
                        detail = repr(c)
        except Exception as exc:  # an engine error, kept apart from a defect
            status = "error"
            detail = f"{type(exc).__name__}: {exc}"
        self.records.append({
            "id": ident,
            "statement": statement,
            "status": status,
            "first_bad_order": first,
            "detail": detail,
            "seconds": round(time.perf_counter() - t0, 3),
        })
        return status == "pass"

    def check_on_plane(self, ident: str, statement: str, defects) -> bool:
        """check for a battery written in the coordinates (q, p) of the
        standard plane; skipped on any other base."""
        if self.model.base_names == ("q", "p"):
            return self.check(ident, statement, defects)
        self.skip(ident, statement,
                  "skipped: out of model class (base is not the (q, p) plane)")
        return True

    def skip(self, ident: str, statement: str, reason: str):
        self.records.append({
            "id": ident,
            "statement": statement,
            "status": "skip",
            "first_bad_order": None,
            "detail": reason,
            "seconds": 0.0,
        })


# ---------------------------------------------------------------------------
# star products
# ---------------------------------------------------------------------------


def suite_star(ctx: SuiteContext) -> list:
    ctx.reseed()
    m = ctx.model
    products = {"moyal": lambda f, g: moyal(m, f, g),
                "total": lambda f, g: star_G(m, f, g)}
    if m.has_group:
        products["std"] = lambda f, g: star_std(m, f, g)
        products["weyl_g"] = lambda f, g: star_G(m, f, g)
    else:
        ctx.skip("star.std", "standard-ordered product laws",
                 "skipped: out of model class (no group coordinates)")

    assoc_deg = min(ctx.degree_cap, 4)
    for name, mul in products.items():
        def assoc():
            for _ in range(ctx.trials):
                f, g, h = (ctx.rand_poly(assoc_deg), ctx.rand_poly(assoc_deg),
                           ctx.rand_poly(assoc_deg))
                yield mul(mul(f, g), h) - mul(f, mul(g, h))
        ctx.check(f"star.assoc.{name}", f"associativity of {name}", assoc)

        def unital():
            for _ in range(ctx.trials):
                f = ctx.rand_poly()
                yield mul(m.one(), f) - f
                yield mul(f, m.one()) - f
        ctx.check(f"star.unit.{name}", f"two-sided unit for {name}", unital)

        def first_commutator():
            for _ in range(ctx.trials):
                if name == "moyal":
                    f, g = ctx.rand_base(), ctx.rand_base()
                else:
                    f, g = ctx.rand_poly(), ctx.rand_poly()
                diff = mul(f, g) - mul(g, f)
                br = poisson_bracket(m, f, g)
                yield diff.coeff(min(1, m.order)) - (br * IMAG).coeff(0)
        ctx.check(f"star.bracket.{name}",
                  f"first commutator of {name} is i times the bracket",
                  first_commutator)

    for name in [k for k in ("moyal", "weyl_g", "total") if k in products]:
        mul = products[name]

        def hermit():
            for _ in range(ctx.trials):
                f, g = ctx.rand_poly(), ctx.rand_poly()
                yield mul(f, g).conj() - mul(g.conj(), f.conj())
        ctx.check(f"star.hermitian.{name}", f"{name} is Hermitian", hermit)

    if m.has_group:
        fiber_gens = m.group_names + m.momentum_names

        def std_ordered():
            for _ in range(ctx.trials):
                phi = ctx.rand_poly(gens=m.group_names)
                f = ctx.rand_poly(gens=fiber_gens)
                yield star_std(m, phi, f) - phi * f
        ctx.check("star.std_ordered",
                  "group pullbacks multiply pointwise from the left in std",
                  std_ordered)

        def std_not_hermitian():
            pairs = [(ctx.rand_poly(), ctx.rand_poly()) for _ in range(ctx.trials)]
            # a fixed witness, drawn after the random pairs: its defect is
            # -i lam, so random inputs that happen to be Hermitian cannot
            # make the control fail
            pairs.append((m.var(m.group_names[0]), m.momentum(0)))
            yield any(not (star_std(m, f, g).conj()
                           - star_std(m, g.conj(), f.conj())).is_zero()
                      for f, g in pairs)
        ctx.check("star.std_hermitian_fails",
                  "std violates the Hermitian property (negative control)",
                  std_not_hermitian)

        def std_adjoint_relation():
            n = neumaier_N(m)
            for _ in range(max(2, ctx.trials // 3)):
                f = ctx.rand_poly(2, gens=fiber_gens)
                phi = m.fiber_state(ctx.rand_poly(2, gens=m.group_names))
                psi = m.fiber_state(ctx.rand_poly(2, gens=m.group_names))
                lhs = fiber_integral(m, phi.conj() * stdrep(m, f).apply(psi))
                rhs = fiber_integral(
                    m, stdrep(m, n.apply(n.apply(f.conj()))).apply(phi).conj() * psi
                )
                yield lhs - rhs
        ctx.check("star.std_adjoint",
                  "integral adjoint of the std representation twists by N^2",
                  std_adjoint_relation)

        def n_ops():
            yield neumaier_N(m).apply(m.one()) - m.one()
            for _ in range(ctx.trials):
                f = ctx.rand_poly()
                yield neumaier_N_inverse(m).apply(neumaier_N(m).apply(f)) - f
        ctx.check("star.normalizer", "N fixes 1 and is invertible", n_ops)

        def strong_inv():
            funcs = [ctx.rand_poly() for _ in range(ctx.trials)]
            fails = check_strong_invariance(m, products["weyl_g"], funcs)
            yield not fails
        ctx.check("star.strong_invariance",
                  "momenta implement Lie derivatives as quasi-inner derivations",
                  strong_inv)

        def schroed_hom():
            for _ in range(max(2, ctx.trials // 2)):
                f, g = ctx.rand_poly(2), ctx.rand_poly(2)
                psi = ctx.rand_state(2)
                lhs = schroedinger_rep(m, star_G(m, f, g), psi)
                rhs = schroedinger_rep(m, f, schroedinger_rep(m, g, psi))
                yield lhs - rhs
        ctx.check("star.schroedinger_hom",
                  "the position-space representation is multiplicative",
                  schroed_hom)

    def covariance():
        for a in range(m.lie.dim):
            for b in range(m.lie.dim):
                mul = products.get("weyl_g", products["total"])
                lhs = mul(m.momentum(a), m.momentum(b)) - mul(m.momentum(b), m.momentum(a))
                br = m.lie.bracket_vec(m.basis_vector(a), m.basis_vector(b))
                yield lhs - _mul_ilam(m.momentum_of(br))
    ctx.check("star.covariance",
              "momentum commutators quantize the structure constants", covariance)
    return ctx.records


# ---------------------------------------------------------------------------
# classical Koszul complex
# ---------------------------------------------------------------------------


def suite_koszul(ctx: SuiteContext) -> list:
    ctx.reseed()
    m = ctx.model
    dim = m.lie.dim

    def square_zero():
        for k in range(1, dim + 1):
            for _ in range(max(1, ctx.trials // dim)):
                x = ctx.rand_super(k)
                yield from (f for f in koszul(m, koszul(m, x)).comps.values())
    ctx.check("koszul.square_zero", "the classical differential squares to zero",
              square_zero)

    def homotopy_ids():
        for k in range(1, dim + 1):
            for _ in range(max(1, ctx.trials // dim)):
                x = ctx.rand_super(k)
                lhs = homotopy_h(m, koszul(m, x), k - 1) + koszul(m, homotopy_h(m, x, k))
                yield from (lhs - x).comps.values()
    ctx.check("koszul.homotopy", "the ray homotopy contracts every degree",
              homotopy_ids)

    def augmented():
        for _ in range(ctx.trials):
            f = ctx.rand_poly()
            x0 = SuperObservable.scalar(m, f)
            lhs = SuperObservable.scalar(m, m.prolong(m.restrict(f))) + koszul(
                m, homotopy_h(m, x0, 0)
            )
            yield from (lhs - x0).comps.values()
            phi = m.restrict(ctx.rand_poly())
            yield m.restrict(m.prolong(phi)) - phi
    ctx.check("koszul.augmented", "degree-zero exactness through the restriction",
              augmented)

    def h0_prol():
        for _ in range(ctx.trials):
            phi = m.restrict(ctx.rand_poly())
            yield from homotopy_h(
                m, SuperObservable.scalar(m, m.prolong(phi)), 0
            ).comps.values()
    ctx.check("koszul.h0_prol", "the homotopy annihilates prolongations", h0_prol)

    def iota_k1():
        for _ in range(ctx.trials):
            x = ctx.rand_super(1)
            yield m.restrict(koszul(m, x).comps.get((), m.zero()))
    ctx.check("koszul.restriction_kills_image",
              "the restriction annihilates the image in degree one", iota_k1)

    def insertion_anticommute():
        for a in range(dim):
            for b in range(dim):
                x = ctx.rand_super(min(2, dim))
                lhs = x.insert_basis(a).insert_basis(b) + x.insert_basis(b).insert_basis(a)
                yield from lhs.comps.values()
    ctx.check("koszul.insertion", "insertions anticommute", insertion_anticommute)
    return ctx.records


# ---------------------------------------------------------------------------
# quantized Koszul and the reduced product
# ---------------------------------------------------------------------------


def suite_reduction(ctx: SuiteContext) -> list:
    ctx.reseed()
    m = ctx.model
    dim = m.lie.dim
    small = max(1, ctx.trials // 4)

    for kap in KAPPA_VALUES:
        cfg = ReductionConfig(m, kap)
        tag = {0: "0", Fraction(1, 2): "half"}.get(kap, "half_plus_lam")

        def q_square():
            for k in range(1, dim + 1):
                for _ in range(max(1, small // 2) if k > 1 else small):
                    x = ctx.rand_super(k, 2)
                    yield from quantized_koszul(
                        cfg, quantized_koszul(cfg, x)
                    ).comps.values()
        ctx.check(f"reduction.square_zero.{tag}",
                  "the quantized differential squares to zero", q_square)

        def q_left_linear():
            for _ in range(small):
                f = ctx.rand_poly(2)
                x = ctx.rand_super(1, 2)
                fx = x.map(lambda c: cfg.star(f, c))
                lhs = quantized_koszul(cfg, fx)
                rhs = quantized_koszul(cfg, x).map(lambda c: cfg.star(f, c))
                yield from (lhs - rhs).comps.values()
        ctx.check(f"reduction.left_linear.{tag}",
                  "the quantized differential is left star-linear", q_left_linear)

        def q_classical_limit():
            for _ in range(small):
                x = ctx.rand_super(1, 2)
                q = quantized_koszul(cfg, x)
                c = koszul(m, x)
                for f in (q - c).comps.values():
                    yield f.coeff(0)
        ctx.check(f"reduction.classical_limit.{tag}",
                  "the classical limit of the quantized differential",
                  q_classical_limit)

        def q_restriction():
            for _ in range(small):
                x = ctx.rand_super(1, 2)
                yield deformed_restriction(
                    cfg, quantized_koszul(cfg, x).comps.get((), m.zero())
                )
                phi = m.restrict(ctx.rand_poly(2))
                yield deformed_restriction(cfg, m.prolong(phi)) - phi
        ctx.check(f"reduction.restriction.{tag}",
                  "the deformed restriction kills the ideal and inverts prol",
                  q_restriction)

        def q_homotopy0():
            for _ in range(small):
                f = ctx.rand_poly(2)
                lhs = SuperObservable.scalar(m, m.prolong(deformed_restriction(cfg, f)))
                lhs = lhs + quantized_koszul(
                    cfg, deformed_homotopy(cfg, SuperObservable.scalar(m, f), 0)
                )
                yield from (lhs - SuperObservable.scalar(m, f)).comps.values()
        ctx.check(f"reduction.homotopy0.{tag}",
                  "degree-zero deformed homotopy identity", q_homotopy0)

    cfg = ReductionConfig(m, Fraction(1, 2))

    def q_homotopy_higher():
        for k in range(1, dim + 1):
            for _ in range(max(1, small // 2) if k == 1 else 1):
                x = ctx.rand_super(k, 2)
                lhs = deformed_homotopy(cfg, quantized_koszul(cfg, x), k - 1)
                lhs = lhs + quantized_koszul(cfg, deformed_homotopy(cfg, x, k))
                yield from (lhs - x).comps.values()
    ctx.check("reduction.homotopy_higher",
              "deformed homotopy identities in every positive degree",
              q_homotopy_higher)

    def q_equivariance():
        for a in range(dim):
            x = ctx.rand_super(1, 2)
            lhs = quantized_koszul(cfg, _rho_action(m, a, x))
            rhs = _rho_action(m, a, quantized_koszul(cfg, x))
            yield from (lhs - rhs).comps.values()
    ctx.check("reduction.equivariance",
              "the quantized differential commutes with the infinitesimal action",
              q_equivariance)

    def q_delta_anticommute():
        cfg0 = ReductionConfig(m, 0)
        for _ in range(small):
            x = ctx.rand_super(min(2, dim), 2)
            lhs = quantized_koszul(cfg0, x.insert_covector(m.lie.modular))
            lhs = lhs + quantized_koszul(cfg0, x).insert_covector(m.lie.modular)
            yield from lhs.comps.values()
    ctx.check("reduction.modular_anticommute",
              "the kappa-free differential anticommutes with the modular insertion",
              q_delta_anticommute)

    if m.has_group:
        def closed_form():
            n_op = neumaier_N(m)
            for _ in range(max(ctx.trials, 8)):
                f = ctx.rand_poly()
                yield deformed_restriction(cfg, f) - m.restrict(n_op.apply(f))
        ctx.check("reduction.closed_form",
                  "the deformed restriction equals restriction after N",
                  closed_form)

        def reduced_is_base():
            for _ in range(small):
                u, v = ctx.rand_base(), ctx.rand_base()
                yield reduced_star(cfg, u, v) - moyal(m, u, v)
        ctx.check("reduction.reduced_product",
                  "the induced base product reproduces the base star product",
                  reduced_is_base)

        def right_explicit():
            for _ in range(small):
                phi = ctx.rand_state(2)
                u = ctx.rand_base(2)
                yield right_module(cfg, phi, u) - moyal(m, phi, u)
        ctx.check("reduction.right_explicit",
                  "the right action is base multiplication in the model",
                  right_explicit)

        def left_explicit():
            n_op = neumaier_N(m)
            for _ in range(max(1, small // 2)):
                f = ctx.rand_poly(2)
                phi = ctx.rand_state(2)
                yield left_module(cfg, f, phi) - stdrep(m, n_op.apply(f)).apply(phi)
        ctx.check("reduction.left_explicit",
                  "the left action is the normalized symbol representation",
                  left_explicit)
    else:
        ctx.skip("reduction.closed_form", "closed form of the deformed restriction",
                 "skipped: out of model class (no group coordinates)")

    def momentum_action():
        for a in range(dim):
            for _ in range(max(1, small // 2)):
                phi = ctx.rand_state(2)
                lhs = left_module(cfg, m.momentum(a), phi)
                rhs = m.zero()
                if m.has_group:
                    rhs = _mul_ilam(m.lie_derivative_C(a, phi)) * GaussRational(-1)
                mod = m.lie.modular[a]
                if mod:
                    rhs = rhs - _mul_ilam(phi * cfg.kappa) * GaussRational(mod)
                yield lhs - rhs
    ctx.check("reduction.momentum_action",
              "momenta act by Lie derivatives plus the modular weight",
              momentum_action)

    def representation_property():
        for a in range(dim):
            for b in range(dim):
                phi = ctx.rand_state(1)
                lhs = left_module(cfg, m.momentum(a), left_module(cfg, m.momentum(b), phi))
                lhs = lhs - left_module(cfg, m.momentum(b),
                                        left_module(cfg, m.momentum(a), phi))
                br = m.lie.bracket_vec(m.basis_vector(a), m.basis_vector(b))
                rhs = _mul_ilam(left_module(cfg, m.momentum_of(br), phi))
                yield lhs - rhs
    ctx.check("reduction.representation",
              "the momentum action represents the bracket", representation_property)

    def module_law():
        for _ in range(max(1, small // 2)):
            f, g = ctx.rand_poly(2), ctx.rand_poly(2)
            phi = ctx.rand_state(1)
            yield left_module(cfg, cfg.star(f, g), phi) - left_module(
                cfg, f, left_module(cfg, g, phi)
            )
    ctx.check("reduction.left_module_law", "the left action is a module structure",
              module_law)

    def bimodule():
        for _ in range(max(1, small // 2)):
            f = ctx.rand_poly(2)
            u = ctx.rand_base(2)
            phi = ctx.rand_state(1)
            yield right_module(cfg, left_module(cfg, f, phi), u) - left_module(
                cfg, f, right_module(cfg, phi, u)
            )
    ctx.check("reduction.bimodule", "left and right actions commute", bimodule)

    def right_law():
        for _ in range(max(1, small // 2)):
            u, v = ctx.rand_base(2), ctx.rand_base(2)
            phi = ctx.rand_state(1)
            yield right_module(cfg, phi, reduced_star(cfg, u, v)) - right_module(
                cfg, right_module(cfg, phi, u), v
            )
    ctx.check("reduction.right_module_law", "the right action is a module structure",
              right_law)

    def unit_right():
        for _ in range(small):
            u = ctx.rand_base(2)
            yield right_module(cfg, m.one(), u) - u
            phi = ctx.rand_state(1)
            yield right_module(cfg, phi, m.one()) - phi
    ctx.check("reduction.unit_right", "units act trivially on the right", unit_right)

    def ideal():
        for _ in range(small):
            a = ctx.rand_poly(2)
            x = ctx.rand_super(1, 2)
            elt = quantized_koszul(cfg, x).comps.get((), m.zero())
            yield deformed_restriction(cfg, cfg.star(a, elt))
    ctx.check("reduction.left_ideal", "the image in degree one is a left ideal",
              ideal)

    def normalizer():
        for _ in range(small):
            u = ctx.rand_base(2)
            yield quantized_BC_member(cfg, m.prolong(u))
            x = ctx.rand_super(1, 1)
            elt = quantized_koszul(cfg, x).comps.get((), m.zero())
            yield quantized_BC_member(cfg, elt)
        if m.has_group:
            yield not quantized_BC_member(cfg, m.var(m.group_names[0]))
    ctx.check("reduction.normalizer",
              "normalizer membership is invariance of the restriction", normalizer)

    if not m.has_group:
        def kappa_effect():
            cfg0 = ReductionConfig(m, 0)
            cfg2 = ReductionConfig(m, Fraction(1, 2))
            for a in range(dim):
                mod = m.lie.modular[a]
                if not mod:
                    continue
                phi = ctx.rand_base(1)
                diff = left_module(cfg2, m.momentum(a), phi) - left_module(
                    cfg0, m.momentum(a), phi
                )
                expected = _mul_ilam(phi) * GaussRational(Fraction(-mod, 2))
                yield diff - expected
        ctx.check("reduction.modular_weight",
                  "kappa shifts the momentum action by the modular weight",
                  kappa_effect)
    return ctx.records


def _rho_action(m: ModelSpace, a: int, x: SuperObservable) -> SuperObservable:
    """The infinitesimal action -L_{xi_M} x + sum_{b,c} C_ab^c e_c ^ ins(e^b) x:
    minus the Lie derivative plus the adjoint action."""
    out = x.map(m.fundamental_field_M(m.basis_vector(a)).apply).scale(GaussRational(-1))
    for b in range(m.lie.dim):
        inserted = x.insert_basis(b)
        if inserted.is_zero():
            continue
        for c in range(m.lie.dim):
            v = m.lie.c(a, b, c)
            if v:
                out = out + inserted.wedge_basis(c).scale(GaussRational(v))
    return out


# ---------------------------------------------------------------------------
# involutions and KMS structures
# ---------------------------------------------------------------------------


def suite_involution(ctx: SuiteContext) -> list:
    ctx.reseed()
    m = ctx.model
    cfg = ReductionConfig(m, Fraction(1, 2))
    gauss = gaussian_base_weight(m, 1)
    leb = lebesgue_weight(m)
    small = max(2, ctx.trials // 3)

    def transport():
        for kap in KAPPA_VALUES:
            cfgk = ReductionConfig(m, kap)
            for _ in range(max(1, small // 2)):
                rep = conj_transport_check(cfgk, ctx.rand_poly(2))
                yield rep["display_one"]
                yield rep["display_two"]
                yield rep["contraction"]
    ctx.check("involution.transport",
              "conjugation transport of the resolvent and its contraction",
              transport)

    def reduced_hermitian():
        for _ in range(small):
            u, v = ctx.rand_base(2), ctx.rand_base(2)
            yield reduced_star(cfg, u, v).conj() - reduced_star(
                cfg, v.conj(), u.conj()
            )
    ctx.check("involution.reduced_hermitian",
              "the reduced product is Hermitian", reduced_hermitian)

    def lebesgue_conj():
        for _ in range(small):
            u = ctx.rand_base(2) + ctx.rand_base(1) * IMAG
            yield reduced_involution(m, u, leb) - u.conj()
    ctx.check("involution.trace_density",
              "the translation-invariant weight gives complex conjugation",
              lebesgue_conj)

    def axioms():
        for _ in range(small):
            u, v = ctx.rand_base(2), ctx.rand_base(2)
            su = reduced_involution(m, u, gauss)
            sv = reduced_involution(m, v, gauss)
            yield reduced_involution(m, su, gauss) - u
            yield reduced_involution(m, moyal(m, u, v), gauss) - moyal(m, sv, su)
            yield reduced_involution(m, u * IMAG, gauss) + su * IMAG
        yield reduced_involution(m, m.one(), gauss) - m.one()
    ctx.check("involution.axioms",
              "the weighted involution is antilinear, involutive, antimultiplicative",
              axioms)

    def first_order():
        q = m.var("q")
        us = reduced_involution(m, q, gauss)
        corr = us - q
        want = _mul_ilam(modular_vector_field(m, gauss).apply(q))
        yield corr.coeff(1) - want.coeff(1)
        delta = modular_vector_field(m, gauss)
        yield delta.apply(q) - m.var("p") * (-2 * m.poisson_matrix[1][0])
        yield delta.apply(m.one())
    ctx.check_on_plane("involution.first_order",
                       "the first correction of the involution is the modular field",
                       first_order)

    def adjointness():
        mu = lift_density(m, gauss) if m.has_group else gauss
        for _ in range(max(1, small // 2)):
            u = ctx.rand_base(2)
            us = reduced_involution(m, u, gauss)
            phi, psi = ctx.rand_state(2), ctx.rand_state(2)
            lhs = inner_product_mu(cfg, phi, right_module(cfg, psi, u), mu)
            rhs = inner_product_mu(cfg, right_module(cfg, phi, us), psi, mu)
            yield lhs == rhs
    ctx.check("involution.adjointness",
              "the defining adjointness of the involution", adjointness)

    def comparisons():
        one = m.one()
        us = [m.var("q"), m.var("p"), ctx.rand_base(2)]
        rho_l = one + (m.var("q") * m.var("q")).shift(1)
        for rep in involution_comparison(m, gauss, [one, one * 2, rho_l], us):
            yield rep["holds"]
    ctx.check_on_plane("involution.comparison",
                       "involutions of scaled weights differ by an inner conjugation",
                       comparisons)

    def ratio():
        one = m.one()
        mul = lambda a, b: moyal(m, a, b)
        yield density_ratio_hat(m, gauss, one) - one
        yield density_ratio_hat(m, gauss, one * 2) - one * 2
        rho = one + m.var("q") * m.var("q")
        rh = density_ratio_hat(m, gauss, rho)
        yield rh.coeff(0) - rho
        for mono in [m.var("q") * m.var("p"), m.var("p") * m.var("p")]:
            lhs = kms_functional(m, mono * rho, gauss)
            rhs = kms_functional(m, mul(rh, mono), gauss)
            yield lhs == rhs
    ctx.check_on_plane("involution.density_ratio",
                       "the density ratio intertwines the weighted functionals", ratio)

    def modular():
        mul = lambda a, b: moyal(m, a, b)
        mc = modular_class(m, gauss, cap=2)
        yield mc["first_order_is_minus_i_delta"]
        imap = mc["I"]
        for _ in range(2):
            u, v = ctx.rand_base(1, 2), ctx.rand_base(1, 2)
            yield imap(mul(u, v)) - mul(imap(u), imap(v))
        d0 = modular_class(m, leb, cap=2)["D"]
        for e in monomials(m.base_names, 2):
            yield d0(monomial(m, m.base_names, e))
        # infinitesimal KMS display
        for e in [(1, 0), (0, 1)]:
            u = monomial(m, m.base_names, e)
            d1u = mc["D"](u).coeff(1)
            for v in [m.var("q"), m.var("p"), m.var("q") * m.var("q")]:
                t1 = kms_functional(m, poisson_bracket(m, u, v), gauss).coeff(0) * IMAG
                t2 = kms_functional(m, d1u * v, gauss).coeff(0)
                yield (t1 + t2).is_zero()
    ctx.check_on_plane("involution.modular_class",
                       "the modular derivation: logarithm, first order, display",
                       modular)

    def inner_difference():
        rho_l = m.one() + (m.var("q") * m.var("q")).shift(1)
        rep = modular_inner_difference(m, gauss, gauss * rho_l, cap=1)
        yield rep["inner"]
    ctx.check_on_plane("involution.inner_difference",
                       "modular derivations of scaled weights differ by an inner one",
                       inner_difference)
    return ctx.records


def suite_gns(ctx: SuiteContext) -> list:
    ctx.reseed()
    m = ctx.model
    if not m.has_group:
        # without fiber coordinates no density can carry the modular
        # equivariance the positivity argument rests on
        ctx.skip("gns", "positive functional and its representation",
                 "skipped: out of model class (no group coordinates)")
        return ctx.records
    cfg = ReductionConfig(m, Fraction(1, 2))
    gauss = gaussian_base_weight(m, 1)
    mu = lift_density(m, gauss)
    posf = PositiveFunctional(cfg, mu)
    small = max(2, ctx.trials // 3)

    def positivity():
        damp = {g: Fraction(1, 2) for g in m.group_names}
        for _ in range(ctx.trials):
            f = ctx.rand_poly(2).with_profile(damp)
            yield posf.positivity(f)
    ctx.check("gns.positivity",
              "the functional is positive on starred squares", positivity)

    def gelfand():
        for _ in range(small):
            x = ctx.rand_super(1, 1).map(
                lambda c: m.fiber_state(c) if not c.is_zero() else c)
            elt = quantized_koszul(cfg, x).comps.get((), m.zero())
            yield posf.in_gelfand_ideal(elt)
            yield omega_mu(cfg, cfg.star(elt.conj(), elt), mu).is_zero()
    ctx.check("gns.gelfand", "the Gel'fand ideal is the kernel of the restriction",
              gelfand)

    def isometry():
        for _ in range(small):
            f, g = ctx.rand_state(2), ctx.rand_state(2)
            rep = gns_check(cfg, f, g, mu)
            yield rep["isometry"]
            yield rep["intertwining"]
    ctx.check("gns.isometry", "the functional realizes the module inner product",
              isometry)

    def pre_hilbert():
        for _ in range(small):
            phi, psi = ctx.rand_state(2), ctx.rand_state(2)
            a = inner_product_mu(cfg, phi, psi, mu)
            yield a == inner_product_mu(cfg, psi, phi, mu).conj()
            yield a == inner_product_mu_alt(cfg, phi, psi, mu)
            yield is_positive_scalar(inner_product_mu(cfg, phi, phi, mu))
    ctx.check("gns.pre_hilbert",
              "sesquilinearity, symmetry, positivity of the state pairing",
              pre_hilbert)

    def conj_integral():
        for _ in range(small):
            a, b = ctx.rand_state(2), ctx.rand_state(2)
            f = cfg.star(a, b)
            lhs = omega_mu(cfg, f, mu)
            rhs = omega_mu(cfg, f.conj(), mu).conj()
            yield lhs == rhs
    ctx.check("gns.conj_integral",
              "conjugation passes through the deformed integral", conj_integral)
    return ctx.records


def suite_kms(ctx: SuiteContext) -> list:
    ctx.reseed()
    m = ctx.model
    gauss = gaussian_base_weight(m, 1)
    leb = lebesgue_weight(m)
    mul = lambda a, b: moyal(m, a, b)
    small = max(2, ctx.trials // 2)

    def kms_gaussian():
        for _ in range(small):
            u, v = ctx.rand_base(3, 2), ctx.rand_base(3, 2)
            rep = kms_check(m, u, v, gauss)
            yield rep["holds"]
    ctx.check("kms.gaussian", "the KMS identity for the Gaussian weight",
              kms_gaussian)

    def kms_trace():
        damp = {n: Fraction(1, 2) for n in m.base_names}
        for _ in range(small):
            u = ctx.rand_base(2).with_profile(damp)
            v = ctx.rand_base(2).with_profile(damp)
            yield kms_functional(m, mul(v, u), leb) == kms_functional(m, mul(u, v), leb)
    ctx.check("kms.trace", "the translation-invariant weight is a trace",
              kms_trace)

    def kms_constants():
        u = m.constant(Fraction(3, 2))
        v = ctx.rand_base(2)
        rep = kms_check(m, u, v, gauss)
        yield rep["holds"]
        yield rep["ustar"] - u
    ctx.check("kms.constants", "constants are fixed by the modular structure",
              kms_constants)
    return ctx.records


# ---------------------------------------------------------------------------
# Morita data, crossed product, induction
# ---------------------------------------------------------------------------


def suite_morita(ctx: SuiteContext) -> list:
    ctx.reseed()
    m = ctx.model
    if not m.has_group:
        ctx.skip("morita", "module inner product and finite-rank structure",
                 "skipped: out of model class (no group coordinates)")
        return ctx.records
    cfg = ReductionConfig(m, Fraction(1, 2))
    ip = lambda a, b: inner_product_red(cfg, a, b)
    small = max(2, ctx.trials // 3)

    def fullness():
        ehat = fullness_element(m)
        yield ip(ehat, ehat) - m.one()
        e2 = fullness_element_sqrt_path(cfg)
        yield ip(e2, e2) - m.one()
    ctx.check("morita.fullness", "a unit-norm state exists (both constructions)",
              fullness)

    def laws():
        for _ in range(small):
            phi, psi = ctx.rand_state(2), ctx.rand_state(2)
            u = ctx.rand_base(2)
            base = ip(phi, psi)
            lhs = ip(phi, right_module(cfg, psi, u))
            rhs = moyal(m, base, u)
            yield lhs - rhs
            yield ip(phi, psi).conj() - ip(psi, phi)
            yield ip(phi, psi) - inner_product_red_closed_form(cfg, phi, psi)
            yield _positive_at_points(m, ip(phi, phi))
    ctx.check("morita.inner_product",
              "right linearity, symmetry, classical positivity", laws)

    def adjoint_action():
        for _ in range(small):
            phi, psi = ctx.rand_state(2), ctx.rand_state(2)
            f = ctx.rand_poly(2)
            yield ip(phi, left_module(cfg, f, psi)) - ip(
                left_module(cfg, f.conj(), phi), psi
            )
    ctx.check("morita.star_representation",
              "the big algebra acts adjointably", adjoint_action)

    def infinitesimal_invariance():
        for a in range(m.lie.dim):
            phi, psi = ctx.rand_state(1), ctx.rand_state(1)
            yield ip(m.lie_derivative_C(a, phi), psi) + ip(
                phi, m.lie_derivative_C(a, psi)
            )
    ctx.check("morita.infinitesimal_unitarity",
              "the infinitesimal action is skew for the module pairing",
              infinitesimal_invariance)

    def rank_one():
        ehat = fullness_element(m)
        for _ in range(small):
            phi = ctx.rand_state(1)
            yield RankOneOperator(cfg, phi, ehat)(ehat) - phi
            a, b = ctx.rand_state(1), ctx.rand_state(1)
            chi, xi = ctx.rand_state(1), ctx.rand_state(1)
            t = RankOneOperator(cfg, a, b)
            yield ip(t(chi), xi) - ip(chi, t.adjoint()(xi))
            t2 = RankOneOperator(cfg, chi, xi)
            probe = ctx.rand_state(1)
            yield t.compose(t2)(probe) - t(t2(probe))
        th = RankOneOperator(cfg, ehat, ehat)
        yield th(ehat) - ehat
    ctx.check("morita.rank_one", "rank-one algebra, adjoints, dual basis",
              rank_one)

    def gram():
        states = [ctx.rand_state(1) for _ in range(3)]
        pts = [{"q": Fraction(k, 2), "p": Fraction(1 - k, 3)} for k in range(5)]
        rep = complete_positivity_sample(cfg, states, pts)
        yield rep["all_psd"]
        yield rep["witness"]
    ctx.check_on_plane(
        "morita.gram_psd",
        "sampled Gram matrices are positive semidefinite at lowest order", gram)

    def vertical():
        can = lambda a, b: inner_product_red_closed_form(cfg, a, b)
        d1 = VerticalOperator.fundamental(m, 0)
        d2 = VerticalOperator.multiplication(
            m, m.var("q") + m.var(m.group_names[0]))
        for _ in range(small):
            phi, psi = ctx.rand_state(1), ctx.rand_state(1)
            de = d1.compose(d2)
            yield de.apply(phi) - d1.apply(d2.apply(phi))
            yield can(phi, d1.apply(psi)) - can(d1.adjoint().apply(phi), psi)
            dd = d1.compose(d2) + d2
            yield can(phi, dd.apply(psi)) - can(dd.adjoint().apply(phi), psi)
    ctx.check_on_plane("morita.vertical",
                       "deformed vertical operators compose and are adjointable",
                       vertical)

    def comparison():
        can = lambda a, b: inner_product_red_closed_form(cfg, a, b)
        h0 = deformation_comparison_H(cfg, lambda psi: psi, g_cap=1,
                                      word_cap=1, probe_cap=1)
        # an operator's defect is its word coefficients
        yield from (h0 - VerticalOperator.identity(m)).terms.values()
        l0 = VerticalOperator.fundamental(m, 0)
        pert = VerticalOperator.identity(m) + l0.compose(l0).lam_shift(1)
        h = deformation_comparison_H(cfg, pert.apply, g_cap=1, word_cap=2,
                                     probe_cap=2)
        yield from (h - pert).terms.values()
        yield from (h - h.adjoint()).terms.values()
        v = vertical_sqrt(cfg, h)
        yield from (v.adjoint().compose(v) - h).terms.values()
        for _ in range(2):
            phi, psi = ctx.rand_state(1), ctx.rand_state(1)
            yield can(phi, pert.apply(psi)) - can(v.apply(phi), v.apply(psi))
    ctx.check("morita.comparison",
              "the comparison operator recovers a planted deformation and splits",
              comparison)
    return ctx.records


def _positive_at_points(m: ModelSpace, f: Func) -> bool:
    pts = [{n: Fraction(k, 3) for n in m.base_names} for k in range(3)]
    for pt in pts:
        v = f.evaluate(pt).series.lowest_order()[1]
        if v is not None:
            c = v.constant_term()
            if not (c.is_real() and c.re >= 0):
                return False
    return True


def suite_crossed(ctx: SuiteContext) -> list:
    ctx.reseed()
    m = ctx.model
    if not m.has_group:
        ctx.skip("crossed", "classical crossed product on kernels",
                 "skipped: out of model class (no group coordinates)")
        return ctx.records
    cfg = ReductionConfig(m, Fraction(1, 2))
    ks = KernelSpace(m)
    small = max(2, ctx.trials // 3)

    def rand_kernel():
        return ks.kernel(random_poly(ctx.rng, m, 2, nterms=2, bound=2, space=ks.gens))

    def assoc():
        for _ in range(small):
            k1, k2, k3 = rand_kernel(), rand_kernel(), rand_kernel()
            yield ks.conv(ks.conv(k1, k2), k3) - ks.conv(k1, ks.conv(k2, k3))
    ctx.check("crossed.assoc", "kernel composition is associative", assoc)

    def involution():
        for _ in range(small):
            k1, k2 = rand_kernel(), rand_kernel()
            yield ks.star(ks.conv(k1, k2)) - ks.conv(ks.star(k2), ks.star(k1))
            yield ks.star(ks.star(k1)) - k1
    ctx.check("crossed.involution", "the kernel involution is an anti-automorphism",
              involution)

    def module():
        for _ in range(small):
            k1, k2 = rand_kernel(), rand_kernel()
            phi = ctx.rand_state(1)
            yield ks.act(ks.conv(k1, k2), phi) - ks.act(k1, ks.act(k2, phi))
    ctx.check("crossed.module", "kernels act as a module on fiber states", module)

    def embedding():
        for _ in range(small):
            a, b = ctx.rand_state(1), ctx.rand_state(1)
            chi = ctx.rand_state(1)
            emb = ks.from_pair(a, b)
            lhs = ks.act(emb, chi)
            cl = classical_inner_product(m, b, chi)
            rhs = a * cl
            yield lhs - rhs
            c, d = ctx.rand_state(1), ctx.rand_state(1)
            lhs2 = ks.conv(ks.from_pair(a, b), ks.from_pair(c, d))
            mid = classical_inner_product(m, b, c)
            rhs2 = ks.from_pair(a * mid, d)
            yield lhs2 - rhs2
    ctx.check("crossed.embedding",
              "rank-one operators embed as kernels, homomorphically", embedding)
    return ctx.records


def suite_rieffel(ctx: SuiteContext) -> list:
    ctx.reseed()
    m = ctx.model
    if not m.has_group:
        ctx.skip("rieffel", "induction through the position-space module",
                 "skipped: out of model class (no group coordinates)")
        return ctx.records
    cfg = ReductionConfig(m, Fraction(1, 2))
    module = InnerProductModule.canonical(cfg)
    act = rieffel_induce(cfg, module)
    small = max(2, ctx.trials // 3)

    def rand_fiber():
        return m.fiber_state(random_poly(ctx.rng, m, 2, m.group_names, nterms=2, bound=2))

    def display():
        for _ in range(small):
            b1, b2 = rand_fiber(), rand_fiber()
            u1, u2 = ctx.rand_base(2), ctx.rand_base(2)
            v1 = InducedVector([(schroedinger_class(m, b1), u1)])
            v2 = InducedVector([(schroedinger_class(m, b2), u2)])
            lhs = external_inner_product(cfg, module, v1, v2)
            om_part = fiber_integral(m, m.restrict(
                neumaier_N(m).apply(star_G(m, b1.conj(), b2))))
            rhs0 = moyal(m, u1.conj(), u2)
            rhs = om_part * rhs0
            yield lhs - rhs
    ctx.check("rieffel.display", "the external inner product factorizes", display)

    def quotient():
        x = SuperObservable(m, {(0,): m.fiber_state(m.var(m.group_names[0]))})
        elt = quantized_koszul(cfg, x).comps.get((), m.zero())
        yield schroedinger_class(m, elt)
    ctx.check("rieffel.quotient", "ideal elements have zero position-space class",
              quotient)

    def momentum_action():
        p_sym = m.momentum(0) * GaussRational(-1)
        chi = rand_fiber()
        beta = schroedinger_class(m, chi)
        vec = InducedVector([(beta, m.one())])
        out = act(p_sym, vec)
        got_beta = m.zero()
        got_x = None
        for (nb, nx) in out.terms:
            got_beta = got_beta + nb
            got_x = nx
        lx = m.left_invariant_field(0).apply(beta)
        expect = lx.shift(1) * (-IMAG)
        yield got_beta - expect
        yield got_x - m.one()
        unit_out = act(m.one(), vec)
        total = m.zero()
        for (nb, nx) in unit_out.terms:
            total = total + nb * nx
        yield total - beta
    ctx.check("rieffel.momentum", "the induced momentum action differentiates",
              momentum_action)

    def star_rep():
        for _ in range(small):
            f = ctx.rand_poly(2)
            w1 = InducedVector([(rand_fiber(), ctx.rand_base(1))])
            w2 = InducedVector([(rand_fiber(), ctx.rand_base(1))])
            lhs = external_inner_product(cfg, module, w1, act(f, w2))
            rhs = external_inner_product(cfg, module, act(f.conj(), w1), w2)
            yield lhs - rhs
    ctx.check("rieffel.star_representation",
              "the induced action is adjointable", star_rep)

    def associativity_unitary():
        for _ in range(small):
            b1, b2 = rand_fiber(), rand_fiber()
            u1, u2 = ctx.rand_base(1), ctx.rand_base(1)
            h1, h2 = ctx.rand_base(1), ctx.rand_base(1)
            om_part = fiber_integral(m, m.restrict(
                neumaier_N(m).apply(star_G(m, b1.conj(), b2))))
            ip_alg = moyal(m, u1.conj(), u2)
            lhs = moyal(m, h1.conj(), moyal(m, om_part * ip_alg, h2))
            wv1 = InducedVector([(schroedinger_class(m, b1), moyal(m, u1, h1))])
            wv2 = InducedVector([(schroedinger_class(m, b2), moyal(m, u2, h2))])
            yield lhs - external_inner_product(cfg, module, wv1, wv2)
    ctx.check("rieffel.associativity",
              "the associativity rearrangement is isometric on spanning vectors",
              associativity_unitary)
    return ctx.records


SUITES = {
    "star": suite_star,
    "koszul": suite_koszul,
    "reduction": suite_reduction,
    "involution": suite_involution,
    "gns": suite_gns,
    "kms": suite_kms,
    "morita": suite_morita,
    "crossed": suite_crossed,
    "rieffel": suite_rieffel,
}


def run_suite(ctx: SuiteContext, name: str) -> list:
    if name == "all":
        for key in SUITES:
            SUITES[key](ctx)
        return ctx.records
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](ctx)
