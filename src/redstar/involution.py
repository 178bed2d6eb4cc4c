"""Conjugation transport, the positive functional, the reduced *-involution,
KMS functionals and the deformed modular class.

The reduced involution is extracted from the weighted transpose of one-sided
multiplication operators evaluated on the constant function: for base
functions u and v the statement "integral of (w * u) against the base weight
equals integral of (v * w)" for all damped test functions w pins down
v = conj(u^*), because the transpose of left multiplication by v starts
with v itself.  The map v -> (transpose of left multiplication by v)(1) is
a differential operator P = id + O(lam), built with its inverse once per
model and weight from one adjoint_sum over the moyal table, so each
involution is one formal adjoint, that of the right multiplication by u,
and one application of P^-1.  The target, that adjoint evaluated at 1, is
read off as its d = 0 column (the entries without derivatives), with no
application.  Both adjoints come from the same first-order adjoints of the
weight.  The same P^-1 gives the density ratio between two weights,
rho_hat = P^-1(rho).  Both take plain polynomial series on the base only.
The comparison of involutions inverts conj(rho_hat) under moyal with
series.series_inverse, which takes the Func as it is.

The modular automorphism I(u) = conj(u*) and its logarithm D are two linear
maps on base polynomials, given as plain callables that share one cache of
involved base monomials; D is the series of log(id + (I - id)), summed by
series.terminating_series.

The positive functional omega_mu, the pre-Hilbert product <., .>_mu and the
KMS functional tau_Omega take values in C[[lam]] times a power of pi.  They
return Funcs constant in all coordinates, so sums and products of their
values follow the grade rules of Func.
"""

from __future__ import annotations

from fractions import Fraction

from .diffop import DiffOperator, adjoint_sum
from .funcs import Func
from .geometry import (ModelSpace, density_weight, memo, modular_vector_field, monomial,
                       monomials)
from .integrate import gaussian_integrate
from .koszul import (
    ReductionConfig,
    SuperObservable,
    _neumann_resolve,
    deformed_restriction,
    homotopy_h,
    left_module,
)
from .linalg import poly_equations, solve_linear
from .scalars import GaussRational, I as IMAG
from .series import series_inverse, terminating_series
from .starprod import _mul_ilam, moyal, moyal_commutator, moyal_table, mult_operator


# ---------------------------------------------------------------------------
# conjugation transport
# ---------------------------------------------------------------------------


def transport_inner(cfg: ReductionConfig, g: Func) -> SuperObservable:
    """h_0 conj(R conj(g)) with R = sum_k T^k and T = -(qk_1 - k_1) h_0:
    the part of the transport sums shared by every contraction."""
    model = cfg.model
    resolved = _neumann_resolve(cfg, g.conj()).conj()
    return homotopy_h(model, SuperObservable.scalar(model, resolved), 0)


def transport(cfg: ReductionConfig, inner: SuperObservable, covector) -> Func:
    """sum_{m,j} T^j ins(covector) h_0 conj(T^m conj(g)) for
    inner = transport_inner(cfg, g).

    The basis covector e^a gives A^a(g) and the modular covector gives
    B(g).  Every term with m + j > K vanishes, since T raises the lam order,
    so the double sum is the resolvent R applied to the contracted inner sum.
    """
    seed = inner.insert_covector(covector).comps.get((), cfg.model.zero())
    return _neumann_resolve(cfg, seed)


def conj_transport(cfg: ReductionConfig, f: Func) -> dict:
    """The transport decomposition {A^a(f), B(f)} of the conjugated resolvent."""
    model = cfg.model
    inner = transport_inner(cfg, f)
    return {
        "A": [transport(cfg, inner, model.basis_vector(a)) for a in range(model.lie.dim)],
        "B": transport(cfg, inner, model.lie.modular),
    }


def conj_transport_check(cfg: ReductionConfig, f: Func) -> dict:
    """Verify both commutation displays and the contraction identity."""
    model = cfg.model
    fc = f.conj()
    lhs = _neumann_resolve(cfg, f).conj()
    base = _neumann_resolve(cfg, fc)
    kk = cfg.kappa + cfg.kappa.conj()
    inner_fc = transport_inner(cfg, fc)
    b_fc = transport(cfg, inner_fc, model.lie.modular)

    term_a1 = model.zero()
    for a in range(model.lie.dim):
        term_a1 = term_a1 + model.fundamental_field_M(model.basis_vector(a)).apply(
            transport(cfg, inner_fc, model.basis_vector(a))
        )
    first = base + _mul_ilam(term_a1) + _mul_ilam(b_fc * kk)

    term_a2 = model.zero()
    for a in range(model.lie.dim):
        lie_fc = model.fundamental_field_M(model.basis_vector(a)).apply(fc)
        term_a2 = term_a2 + transport(cfg, transport_inner(cfg, lie_fc), model.basis_vector(a))
    second = base + _mul_ilam(term_a2) + _mul_ilam(b_fc * (kk - 1))

    ops = conj_transport(cfg, f)
    contraction = model.zero()
    for a in range(model.lie.dim):
        mod = model.lie.modular[a]
        if mod:
            contraction = contraction + ops["A"][a] * GaussRational(Fraction(mod))

    return {
        "display_one": (lhs - first).is_zero(),
        "display_two": (lhs - second).is_zero(),
        "contraction": (contraction - ops["B"]).is_zero(),
    }


# ---------------------------------------------------------------------------
# positive functional and GNS data
# ---------------------------------------------------------------------------


def is_positive_scalar(val: Func) -> bool:
    """The lowest nonzero lam coefficient of the constant Func val is a
    positive real (pi^(pi4/4) > 0 does not change the sign); true for zero."""
    r, c = val.scalar().series.lowest_order()
    if r is None:
        return True
    c = c.constant_term()
    return c.is_real() and c.re > 0


def omega_mu(cfg: ReductionConfig, f: Func, mu: Func) -> Func:
    """omega_mu(f) = integral over the constraint surface of iota*_def(f) mu,
    a constant Func."""
    model = cfg.model
    rest = deformed_restriction(cfg, f)
    block = list(model.base_names) + list(model.group_names)
    return gaussian_integrate(rest * mu, block).scalar()


def inner_product_mu(cfg: ReductionConfig, phi: Func, psi: Func,
                     mu: Func) -> Func:
    """<phi, psi>_mu = omega_mu(conj(prol phi) * prol psi)."""
    model = cfg.model
    if mu != mu.conj():
        raise ValueError("the pre-Hilbert structure needs a real weight")
    return omega_mu(cfg, cfg.star(model.prolong(phi).conj(), model.prolong(psi)), mu)


def inner_product_mu_alt(cfg: ReductionConfig, phi: Func, psi: Func,
                         mu: Func) -> Func:
    """Alternative form: integrate (conj(prol phi) bullet psi) mu."""
    model = cfg.model
    val = left_module(cfg, model.prolong(phi).conj(), psi)
    block = list(model.base_names) + list(model.group_names)
    return gaussian_integrate(val * mu, block).scalar()


class PositiveFunctional:
    """The functional f -> integral of iota*_def(f) mu and its Gel'fand data."""

    def __init__(self, cfg: ReductionConfig, mu: Func):
        if mu != mu.conj():
            raise ValueError("positive functionals need real weights")
        self.cfg = cfg
        self.mu = mu

    def __call__(self, f: Func) -> Func:
        return omega_mu(self.cfg, f, self.mu)

    def positivity(self, f: Func) -> bool:
        """Lowest nonvanishing coefficient of omega(conj f * f) is positive."""
        return is_positive_scalar(self(self.cfg.star(f.conj(), f)))

    def in_gelfand_ideal(self, f: Func) -> bool:
        return deformed_restriction(self.cfg, f).is_zero()


def gns_check(cfg: ReductionConfig, f: Func, g: Func, mu: Func) -> dict:
    """omega(conj f * g) = <iota* f, iota* g>_mu and the intertwining property."""
    lhs = omega_mu(cfg, cfg.star(f.conj(), g), mu)
    rf = deformed_restriction(cfg, f)
    rg = deformed_restriction(cfg, g)
    rhs = inner_product_mu(cfg, rf, rg, mu)
    inter_lhs = deformed_restriction(cfg, cfg.star(f, g))
    inter_rhs = left_module(cfg, f, rg)
    return {
        "isometry": lhs == rhs,
        "intertwining": (inter_lhs - inter_rhs).is_zero(),
    }


# ---------------------------------------------------------------------------
# one-sided multiplication operators on the base
# ---------------------------------------------------------------------------


@memo("involution_steps")
def _involution_steps(model: ModelSpace, omega: Func) -> tuple:
    """(P, P^-1) for the weight, with P(w) = T(L_w), shared by
    reduced_involution and density_ratio_hat.

    T(D) = conj(D^+(1)) is the transpose at 1 for the pairing integral(f g
    omega), and L_w = sum lam^r c^r_(alpha beta) (d^alpha w) d^beta over
    the moyal table is the left multiplication w *_red (.).  (d^beta)^+ is
    real, so P is one adjoint_sum over the moyal table's beta,

        P = sum_beta (d^beta)^+ o C_beta,
        C_beta = sum_(r, alpha) lam^r c^r_(alpha beta) d^alpha.

    P = id + O(lam), so P^-1 is the terminating series sum_(k <= K)
    (id - P)^k, by Horner's rule at rising truncation orders: the k-th
    partial sum is composed under K - k more factors id - P, so only its
    orders <= k count.  It is the one lam-series of the engine not summed
    by series.terminating_series, whose terms (id - P) o t are composed at
    the full order K: that form builds the same operator slower (medians of
    15 cold builds, 2 vCPU, CPython 3.11.7: heis3 at K = 3 0.56 against
    0.63 ms, at K = 4 1.62 against 2.16 ms, heis3 on a 4-dimensional base
    at K = 5 37.1 against 64.1 ms).
    """
    gens, order = model.gens, model.order
    tails = {}
    for r, level in enumerate(moyal_table(model, order)):
        for (alpha, beta), c in level.items():
            tails.setdefault(beta, [{} for _ in range(order + 1)])[r][alpha] = c
    tails = {beta: DiffOperator(gens, order, tabs) for beta, tabs in tails.items()}
    step = adjoint_sum(omega, gens, order, tails)
    rest = DiffOperator.identity(gens, order) - step
    inverse = DiffOperator.identity(gens, 0)
    for k in range(1, order + 1):
        inverse = DiffOperator.identity(gens, k) + DiffOperator(
            gens, k, rest.tables).compose(DiffOperator(gens, k, inverse.tables))
    return step, inverse


def _check_plain_base(model: ModelSpace, f: Func, what: str) -> None:
    """Raise ValueError unless f is a plain polynomial series on the base:
    no envelope, no pi-grade, no group or momentum coordinate."""
    if f.profile or f.pi4 or not model.is_base_only(f):
        raise ValueError(f"{what} is a plain polynomial series on the base")


def reduced_involution(model: ModelSpace, u: Func, omega: Func) -> Func:
    """The unique u* adjoint to right multiplication by u for the weight,
    for u a plain polynomial series on the base.

    v = conj(u*) solves T(L_v) = T(R_u) for the transpose at 1 of
    _involution_steps.  The target T(R_u) is the formal adjoint of
    mult_operator(u) at 1, conjugated: its d = 0 column (DiffOperator.at_one),
    read off with no application.  v = P^-1(T(R_u)) with the cached inverse
    of P: w -> T(L_w).
    """
    _check_plain_base(model, u, "the involution's argument")
    _, inverse = _involution_steps(model, omega)
    target = mult_operator(model, u).formal_adjoint(omega).at_one().conj()
    return inverse.apply(target).conj()


def kms_functional(model: ModelSpace, u: Func, omega: Func) -> Func:
    """tau_Omega(u): integral over the base against the weight, a constant
    Func."""
    return gaussian_integrate(u * omega, list(model.base_names)).scalar()


def kms_check(model: ModelSpace, u: Func, v: Func, omega: Func) -> dict:
    """tau(v * u) = tau(I(u) * v) with I(u) = conj(u*), * the base product."""
    ustar = reduced_involution(model, u, omega)
    lhs = kms_functional(model, moyal(model, v, u), omega)
    rhs = kms_functional(model, moyal(model, ustar.conj(), v), omega)
    return {"holds": lhs == rhs, "lhs": lhs, "rhs": rhs, "ustar": ustar}


# ---------------------------------------------------------------------------
# density ratios and comparison of involutions
# ---------------------------------------------------------------------------


def density_ratio_hat(model: ModelSpace, omega: Func, rho: Func) -> Func:
    """The rho_hat with tau_{rho Omega}(u) = tau_Omega(rho_hat * u) for all u.

    tau_Omega(w * u) = tau_Omega(P(w) u) for the step operator P: w ->
    T(L_w) of _involution_steps, so the identity says P(rho_hat) = rho and
    rho_hat = P^-1(rho), one application of the cached inverse.
    """
    if not omega.profile:
        raise ValueError("the density ratio needs a Gaussian base weight")
    _check_plain_base(model, rho, "the density ratio")
    _, inverse = _involution_steps(model, omega)
    return inverse.apply(rho)


def involution_comparison(model: ModelSpace, omega: Func, rhos: list,
                          us: list) -> list:
    """For each rho in rhos, u^{*'} = conj(rho_hat) * u^* * conj(rho_hat)^{-1}
    for the weight omega * rho, with rho_hat = density_ratio_hat(model,
    omega, rho); one report per rho.

    Each u is involved once under omega, and a weight omega * rho equal to
    omega reuses those images.
    """
    images = [reduced_involution(model, u, omega) for u in us]
    reports = []
    for rho in rhos:
        rho_hat = density_ratio_hat(model, omega, rho)
        omega_p = density_weight(omega * rho)
        crh = rho_hat.conj()
        crh_inv = series_inverse(crh, lambda a, b: moyal(model, a, b))
        primed = images if omega_p == omega else [
            reduced_involution(model, u, omega_p) for u in us]
        failures = [k for k, (lhs, ustar) in enumerate(zip(primed, images))
                    if not (lhs - moyal(model, moyal(model, crh, ustar), crh_inv)).is_zero()]
        reports.append({"holds": not failures, "failures": failures, "rho_hat": rho_hat})
    return reports


# ---------------------------------------------------------------------------
# the modular automorphism and its logarithm
# ---------------------------------------------------------------------------


def _modular_maps(model: ModelSpace, omega: Func) -> tuple:
    """(I, D): the modular automorphism I(u) = conj(u*) and its logarithm
    D(u) = sum_(k <= K) (-1)^(k+1) (I - id)^k u / k, linear maps on plain
    base polynomials.  I goes monomial by monomial and the pair involves
    each base monomial once; D is a terminating_series from (I - id) u,
    term k being (I - id) of term k - 1 times -k/(k + 1).  Images that
    leave the base (a weight in group coordinates) make D raise ValueError."""
    images = {}

    def i_map(u: Func) -> Func:
        _check_plain_base(model, u, "the modular automorphism's argument")
        total = model.zero()
        for r, poly in enumerate(u.series.coeffs):
            for expo, c in poly.terms.items():
                if expo not in images:
                    mono = monomial(model, model.gens, expo)
                    images[expo] = reduced_involution(model, mono, omega).conj()
                total = total + (images[expo] * c).shift(r)
        return total

    def d_map(u: Func) -> Func:
        first = i_map(u) - u
        if not first.series.coeffs[0].is_zero():
            raise ValueError("logarithm needs a map starting at the identity")
        return terminating_series(first, lambda t, k: (i_map(t) - t) * GaussRational(
            Fraction(-k, k + 1)), model.order - 1)

    return i_map, d_map


def modular_class(model: ModelSpace, omega: Func, cap: int = 4) -> dict:
    """I_Omega, its logarithm D (both callables on base polynomials), and the
    first-order comparison.

    Under the pinned conventions X_u = {., u} and Delta(u) = X_u(log w), the
    working identities are D^(1) = -i Delta on the basis and the classical
    infinitesimal KMS display; the conjugate-coefficient derivation carries
    +i Delta and governs the corrections of u* itself.
    """
    i_map, d_map = _modular_maps(model, omega)
    delta = modular_vector_field(model, omega)
    monos = (monomial(model, model.base_names, e) for e in monomials(model.base_names, cap))
    first_ok = all((delta.apply(m).shift(1) * (-IMAG) - d_map(m).coeff(1).shift(1)).is_zero()
                   for m in monos)
    return {"I": i_map, "D": d_map, "first_order_is_minus_i_delta": first_ok}


def modular_inner_difference(model: ModelSpace, om1: Func,
                             om2: Func, cap: int = 2) -> dict:
    """Solve D_1 - D_2 = ad_star(w) on the monomial basis up to the cap.

    The certificate is finite: w is sought with degree at most unknown_cap
    = cap + 2K, since the conjugator degree grows with the lam order, and
    both sides are compared coefficient by coefficient, for every basis
    monomial of degree at most cap and every lam order.

    moyal commutes with lam^s, so the commutators ad_star(x^e) with the
    basis are built once per unknown monomial x^e, each in one
    moyal_commutator pass, and the column of the unknown lam^s x^e is their
    lam^s shift.
    """
    unknown_cap = cap + 2 * model.order
    _, d1 = _modular_maps(model, om1)
    _, d2 = _modular_maps(model, om2)
    monos = [monomial(model, model.base_names, e)
             for e in monomials(model.base_names, cap)]

    ads = []
    for em in monomials(model.base_names, unknown_cap):
        w = monomial(model, model.base_names, em)
        ads.append([moyal_commutator(model, w, m) for m in monos])
    columns = [poly_equations([c for ad in col for c in ad.shift(s).series.coeffs])
               for s in range(model.order) for col in ads]
    diffs = [d1(m) - d2(m) for m in monos]
    target = poly_equations([c for d in diffs for c in d.series.coeffs])
    sol = solve_linear(columns, target)
    return {"inner": sol is not None, "cap": cap, "unknown_cap": unknown_cap}
