"""The algebra-valued inner product on fiber states, rank-one operators,
complete-positivity sampling, deformed vertical operators, the classical
crossed product on kernels, and induction of representations through the
external tensor product with the position-space module.

The group average in the inner product is evaluated as a plain fiber
integral: the structure group is nilpotent, Haar measure is Lebesgue in
exponential coordinates, and the action is by translations, so the average
over translates of an integrable function is the fiber integral itself.

The star square root and inverse that normalize a fiber state
(series_sqrt, series_inverse) and the vertical square root are binomial and
geometric series in lam, each summed by series.terminating_series.  The
first two act on the norm's Func under moyal: its pi-grade is taken off
before the root and half of it put back on the inverse, both by with_pi4.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from operator import add

from .funcs import Func
from .geometry import FIBER_EXPONENT, ModelSpace, fiber_integral, monomial, monomials
from .integrate import gaussian_integrate, gaussian_integrate_shifted
from .koszul import ReductionConfig, deformed_restriction, right_module
from .linalg import is_psd_hermitian, poly_equations, solve_linear
from .poly import Poly
from .scalars import GaussRational
from .series import LambdaSeries, series_inverse, series_sqrt, terminating_series
from .starprod import (SymbolOp, moyal, neumaier_N, pbw_words, schroedinger_rep,
                       word_actions)


# ---------------------------------------------------------------------------
# the reduced inner product and fullness
# ---------------------------------------------------------------------------


def inner_product_red(cfg: ReductionConfig, phi: Func, psi: Func) -> Func:
    """<phi, psi>_red: fiber integral of the restricted starred product."""
    model = cfg.model
    if not model.has_group:
        raise ValueError("the algebra-valued inner product needs group coordinates")
    integrand = deformed_restriction(
        cfg, cfg.star(model.prolong(phi).conj(), model.prolong(psi))
    )
    return fiber_integral(model, integrand)


def inner_product_red_closed_form(cfg: ReductionConfig, phi: Func, psi: Func) -> Func:
    """The closed form: fiber integral of conj(phi) *_red psi."""
    model = cfg.model
    return fiber_integral(model, moyal(model, phi.conj(), psi))


def fullness_element(model: ModelSpace) -> Func:
    """A base-independent unit-norm fiber state: the normalized Gaussian."""
    return model.fiber_state(model.one()).with_pi4(-model.lie.dim)


def fullness_element_sqrt_path(cfg: ReductionConfig) -> Func:
    """The generic construction: normalize a state by the star square root
    of its norm; exercises the square root with the reduced product."""
    model = cfg.model
    eps = model.fiber_state(model.one())
    norm2 = inner_product_red(cfg, eps, eps)
    if norm2.pi4 % 2:
        raise ValueError("norm square has an odd pi grade")
    mul = partial(moyal, model)
    root = series_sqrt(norm2.with_pi4(-norm2.pi4), mul)
    normalizer = series_inverse(root, mul).with_pi4(-norm2.pi4 // 2)
    return moyal(model, eps, normalizer)


# ---------------------------------------------------------------------------
# rank-one and finite-rank operators
# ---------------------------------------------------------------------------


class RankOneOperator:
    """Theta_{phi,psi}: chi -> phi bullet_red <psi, chi>_red."""

    def __init__(self, cfg: ReductionConfig, phi: Func, psi: Func):
        self.cfg = cfg
        self.phi = phi
        self.psi = psi

    def __call__(self, chi: Func) -> Func:
        val = inner_product_red(self.cfg, self.psi, chi)
        return right_module(self.cfg, self.phi, val)

    def adjoint(self) -> "RankOneOperator":
        return RankOneOperator(self.cfg, self.psi, self.phi)

    def compose(self, other: "RankOneOperator") -> "RankOneOperator":
        mid = inner_product_red(self.cfg, self.psi, other.phi)
        new_phi = right_module(self.cfg, self.phi, mid)
        return RankOneOperator(self.cfg, new_phi, other.psi)

    def __repr__(self):
        return f"RankOneOperator({self.phi!r}, {self.psi!r})"


# ---------------------------------------------------------------------------
# complete positivity sampling
# ---------------------------------------------------------------------------


def complete_positivity_sample(cfg: ReductionConfig, states, points) -> dict:
    """Evaluate the Gram matrix of the states at base points and certify
    lowest-order positive semidefiniteness, plus the factorization witness
    through the unit-norm state."""
    model = cfg.model
    n = len(states)
    gram = [[inner_product_red(cfg, states[i], states[j]) for j in range(n)]
            for i in range(n)]
    grades = {gram[i][j].pi4 for i in range(n) for j in range(n)
              if not gram[i][j].is_zero()}
    if len(grades) > 1:
        raise ValueError("states must share a common pi grade for the Gram test")
    psd = []
    for pt in points:
        mat = []
        for i in range(n):
            row = []
            for j in range(n):
                val = gram[i][j].evaluate(pt).series.coeffs[0].constant_term()
                row.append(val)
            mat.append(row)
        psd.append(is_psd_hermitian(mat))

    ehat = fullness_element(model)
    witness_ok = True
    for i in range(n):
        for j in range(n):
            lhs = RankOneOperator(cfg, states[i], states[j])
            rhs = RankOneOperator(cfg, states[i], ehat).compose(
                RankOneOperator(cfg, ehat, states[j])
            )
            probe = ehat
            if not (lhs(probe) - rhs(probe)).is_zero():
                witness_ok = False
    return {"psd_at_points": psd, "all_psd": all(psd), "witness": witness_ok}


# ---------------------------------------------------------------------------
# deformed vertical differential operators
# ---------------------------------------------------------------------------


class VerticalOperator(SymbolOp):
    """A vertical operator sum_I D^I e_I in fundamental-field words.

    It is the word calculus of SymbolOp with generator factor F = 1: the
    words are PBW-ordered left-invariant derivatives, each fundamental
    generator contributing one sign.  The deformed action
    D bullet' phi = sum_I D^I *_red e_I(phi) is apply, and the deformed
    composition star' is compose.
    """

    def __init__(self, model: ModelSpace, terms=None):
        if not model.has_group:
            raise ValueError("vertical operators need group coordinates")
        super().__init__(model, terms)

    @staticmethod
    def _factor(f: Func, times: int = 1) -> Func:
        return f

    @staticmethod
    def identity(model: ModelSpace) -> "VerticalOperator":
        return VerticalOperator.from_fundamental_terms(
            model, {(): Func.one(model.gens, model.order)}
        )

    @staticmethod
    def from_fundamental_terms(model: ModelSpace, terms: dict) -> "VerticalOperator":
        op = VerticalOperator(model)
        for word, coeff in terms.items():
            word = tuple(word)
            sign = GaussRational(-1 if len(word) % 2 else 1)
            op._add_normal_ordered(word, coeff * sign)
        return op

    @staticmethod
    def fundamental(model: ModelSpace, a: int) -> "VerticalOperator":
        """The Lie derivative along the fundamental field of basis vector a."""
        return VerticalOperator.from_fundamental_terms(
            model, {(a,): Func.one(model.gens, model.order)}
        )

    @staticmethod
    def multiplication(model: ModelSpace, c: Func) -> "VerticalOperator":
        return VerticalOperator.from_fundamental_terms(model, {(): c})

    def lam_shift(self, k: int) -> "VerticalOperator":
        return self._new({w: c.shift(k) for w, c in self.terms.items()})

    def lam_slice(self, r: int) -> "VerticalOperator":
        return self._new({w: c.coeff(r).shift(r) for w, c in self.terms.items()})

    def adjoint(self) -> "VerticalOperator":
        """The unique adjoint for the canonical inner product.

        Generators: fundamental Lie derivatives pick up -Delta(xi) - L_xi
        (the modular term vanishes for nilpotent groups), coefficient
        multiplications conjugate.
        """
        minus_one = Func.one(self.model.gens, self.model.order) * GaussRational(-1)
        total = self._new()
        for word, c in self.terms.items():
            # (M_c o L_{w})^* = L_{w_k}^* o ... o L_{w_1}^* o M_{conj c}
            # with L_{X_a}^* = -L_{X_a} for the unimodular model.
            piece = self._new({(): c.conj()})
            for a in word:
                piece = self._new({(a,): minus_one}).compose(piece)
            total = total + piece
        return total


def deformation_comparison_H(cfg: ReductionConfig, ket, g_cap: int = 2,
                             word_cap: int = 2, probe_cap: int = 2) -> VerticalOperator:
    """Solve <phi, ket(psi)>_red = <phi, H bullet' psi>_red for a vertical H.

    <,>_red is inner_product_red_closed_form and ket a linear map on fiber
    states, such as a deformed vertical operator's apply.  H = id + O(lam)
    is sought order by order with coefficients polynomial in the group
    coordinates up to degree g_cap and words up to length word_cap; the
    probes phi, psi are Gaussian fiber monomials up to degree probe_cap.
    Raises ValueError on a negative cap, on a ket that differs from the
    identity on the probes at order 0 and when the caps are too small to
    carry the solution.

    The unknown (w, e) enters linearly with the column <phi, g^e L_w psi>_red.
    Fields and probes carry no lam, so the columns are lam-free.  An unknown
    solved at order r then changes <phi, H psi>_red at order r only, and the
    system of order r has the lam^r coefficients of the target.
    """
    for cap in (g_cap, word_cap, probe_cap):
        if cap < 0:
            raise ValueError(f"negative cap {cap} for the comparison operator")
    model = cfg.model
    gnames = model.group_names
    words = pbw_words(model.lie.dim, word_cap)
    gexps = monomials(gnames, g_cap)
    columns, values = _comparison_system(model, ket, monomials(gnames, probe_cap),
                                         words, gexps)
    columns = [poly_equations(col) for col in columns]
    # column 0 is the unknown ((), g^0), whose entries are <phi, psi>_red
    if poly_equations([v.series.coeffs[0] for v in values]) != columns[0]:
        raise ValueError("ket differs from the identity at order 0")
    h = VerticalOperator.identity(model)
    for r in range(1, model.order + 1):
        target = poly_equations([v.series.coeffs[r] for v in values])
        if not target:
            continue
        sol = solve_linear(columns, target)
        if sol is None:
            raise ValueError("caps too small to determine the comparison operator")
        for u, coeff in enumerate(sol):
            if not coeff.is_zero():
                k, l = divmod(u, len(gexps))
                h._add_term(words[k], (monomial(model, gnames, gexps[l]) * coeff).shift(r))
    return h


def _comparison_system(model: ModelSpace, ket, pexps, words, gexps) -> tuple:
    """The comparison solve's columns at order 0 and its target.

    For the probes phi_i = g^(pexps[i]) env, slot i * n + j of column
    k * len(gexps) + l holds <phi_i, g^e L_w psi_j>_red for (w, e) =
    (words[k], gexps[l]), and slot i * n + j of the target is the Func
    <phi_i, ket(psi_j)>_red.  A probe is real and base-free, so
    <phi_i, g^e f>_red is the moment of f env shifted by pexps[i] + e: one
    moment pass per (psi_j, w) gives the columns and one per psi_j the
    target, over one memo.
    """
    gnames = model.group_names
    env = model.fiber_state(model.one())
    n, width = len(pexps), len(gexps)
    shifts = [tuple(map(add, a, e)) for a in pexps for e in gexps]
    memo: dict = {}

    def moments(f: Func, at, top: int) -> list:
        return gaussian_integrate_shifted(f * env, gnames, at, top, memo)

    zero = Poly.zero(model.gens)    # most entries vanish by parity
    columns = [[zero] * (n * n) for _ in range(len(words) * width)]
    values = [None] * (n * n)
    for j, a in enumerate(pexps):
        psi = model.fiber_state(monomial(model, gnames, a))
        values[j::n] = moments(ket(psi), pexps, model.order)
        act = word_actions(model, psi)
        for k, w in enumerate(words):
            for s, val in enumerate(moments(act(w), shifts, 0)):
                if not val.is_zero():
                    i, l = divmod(s, width)
                    columns[k * width + l][i * n + j] = val.series.coeffs[0]
    return columns, values


def vertical_sqrt(cfg: ReductionConfig, h: VerticalOperator) -> VerticalOperator:
    """Hermitian square root V of a Hermitian H = id + O(lam) with
    V* star' V = H: the binomial series sum_(k <= K) binom(1/2, k) X^k in
    X = H - id under star', summed as in series.series_sqrt.  Its real
    coefficients keep it Hermitian, so V* star' V = V star' V = H.
    V* star' V is Hermitian for every V, so a non-Hermitian H raises
    ValueError, and so does an H whose lam^0 part is not the identity, on
    which the binomial series does not terminate."""
    if not (h.adjoint() - h).is_zero():
        raise ValueError("the vertical square root needs a Hermitian operator")
    one = VerticalOperator.identity(cfg.model)
    x = h - one
    if not x.lam_slice(0).is_zero():
        raise ValueError("the vertical square root needs H = id + O(lam)")
    return terminating_series(one, lambda t, k: x.compose(t).scale(
        GaussRational(Fraction(3 - 2 * k, 2 * k))), cfg.model.order)


# ---------------------------------------------------------------------------
# the classical crossed product on kernel functions
# ---------------------------------------------------------------------------


class KernelSpace:
    """Functions of (base, g, g') with Gaussian decay in both fiber slots."""

    def __init__(self, model: ModelSpace):
        if not model.has_group:
            raise ValueError("kernels need group coordinates")
        self.model = model
        self.left_names = model.group_names
        self.right_names = tuple(n + "_r" for n in model.group_names)
        self.aux_names = tuple(n + "_s" for n in model.group_names)
        self.gens = model.base_names + self.left_names + self.right_names
        self.big_gens = self.gens + self.aux_names

    def kernel(self, f: Func) -> Func:
        """Attach the fiber profiles to a polynomial on the kernel space."""
        prof = {n: FIBER_EXPONENT for n in self.left_names + self.right_names}
        return f.with_profile(prof)

    def from_pair(self, phi: Func, psi: Func) -> Func:
        """phi (x) conj(psi): the image of a rank-one operator."""
        left = phi.rename({}, self.gens)
        right = psi.conj().rename(dict(zip(self.left_names, self.right_names)), self.gens)
        return left * right

    def conv(self, k1: Func, k2: Func) -> Func:
        """Kernel composition: integrate the middle fiber slot."""
        a = k1.rename(dict(zip(self.right_names, self.aux_names)), self.big_gens)
        b = k2.rename(dict(zip(self.left_names, self.aux_names)), self.big_gens)
        prod = a * b
        out = gaussian_integrate(prod, list(self.aux_names))
        return out.rename({}, self.gens)

    def act(self, k: Func, phi: Func) -> Func:
        """Apply a kernel to a fiber state."""
        a = k.rename(dict(zip(self.right_names, self.aux_names)),
                     self.model.base_names + self.left_names + self.aux_names)
        b = phi.rename(dict(zip(self.left_names, self.aux_names)),
                       self.model.base_names + self.left_names + self.aux_names)
        prod = a * b
        out = gaussian_integrate(prod, list(self.aux_names))
        return out.rename({}, self.model.gens)

    def star(self, k: Func) -> Func:
        """Kernel involution: swap the slots and conjugate."""
        swap = dict(zip(self.left_names, self.right_names))
        swap.update(dict(zip(self.right_names, self.left_names)))
        return k.conj().rename(swap, self.gens)


def classical_inner_product(model: ModelSpace, phi: Func, psi: Func) -> Func:
    """The order-zero inner product: fiber integral of conj(phi) psi."""
    return fiber_integral(model, phi.conj() * psi)


# ---------------------------------------------------------------------------
# external tensor products and induction
# ---------------------------------------------------------------------------


class InnerProductModule:
    """A right module with an algebra-valued inner product and a left action
    of the algebra (the canonical module over the base algebra by default)."""

    def __init__(self, ip, left_action, right_action):
        self.ip = ip
        self.left_action = left_action
        self.right_action = right_action

    @staticmethod
    def canonical(cfg: ReductionConfig) -> "InnerProductModule":
        model = cfg.model
        return InnerProductModule(lambda u, v: moyal(model, u.conj(), v),
                                  lambda u, h: moyal(model, u, h),
                                  lambda h, u: moyal(model, h, u))


def schroedinger_class(model: ModelSpace, b: Func) -> Func:
    """The position-space representative of a class: restrict after N."""
    return model.restrict(neumaier_N(model).apply(b))


class InducedVector:
    """A finite sum of simple tensors (position-space state) x (module element)."""

    def __init__(self, terms):
        self.terms = list(terms)

    def __add__(self, other):
        return InducedVector(self.terms + other.terms)


def external_inner_product(cfg: ReductionConfig, module: InnerProductModule,
                           v1: InducedVector, v2: InducedVector) -> Func:
    """<beta (x) x, beta' (x) y> = <beta, beta'>_0 * ip(x, y), with the
    plain fiber L^2 pairing classical_inner_product on position-space states."""
    model = cfg.model
    total = model.zero()
    for (b1, x1) in v1.terms:
        for (b2, x2) in v2.terms:
            total = total + classical_inner_product(model, b1, b2) * module.ip(x1, x2)
    return total


def external_tensor(cfg: ReductionConfig, module: InnerProductModule) -> InnerProductModule:
    """The external tensor of the position-space module with a right module
    over the base algebra: simple tensors, the factorized inner product, the
    induced left action of the full algebra and the slotwise right action.
    Degenerate simple tensors are exactly those with a zero position-space
    class, so no extra quotient is needed on representatives."""
    return InnerProductModule(
        lambda v1, v2: external_inner_product(cfg, module, v1, v2),
        rieffel_induce(cfg, module),
        lambda vec, u: InducedVector([(b, module.right_action(x, u)) for b, x in vec.terms]))


def rieffel_induce(cfg: ReductionConfig, module: InnerProductModule):
    """The induced action of the full algebra on simple tensors.

    A symbol acts through the position-space representation on the first
    leg after splitting off its base-coordinate monomials, which act on the
    module leg through the left action.
    """
    model = cfg.model

    def act(f: Func, vec: InducedVector) -> InducedVector:
        out = []
        for (beta, x) in vec.terms:
            for u_part, w_part in _base_split(model, f):
                new_beta = schroedinger_rep(model, w_part, beta)
                out.append((new_beta, module.left_action(u_part, x)))
        return InducedVector(out)

    return act


def _base_split(model: ModelSpace, f: Func):
    """Write f as a finite sum of (base monomial) x (fiber-and-momentum part)."""
    base = {model.gens.index(n) for n in model.base_names}
    buckets: dict = {}    # base exponents -> per lam order {other exponents: c}
    for r, p in enumerate(f.series.coeffs):
        for expo, c in p.terms.items():
            key = tuple(e if i in base else 0 for i, e in enumerate(expo))
            parts = buckets.setdefault(key, [{} for _ in range(model.order + 1)])
            parts[r][tuple(e - k for e, k in zip(expo, key))] = c
    return [(Func.from_poly(Poly(model.gens, {key: GaussRational(1)}), model.order),
             Func(LambdaSeries([Poly(model.gens, t) for t in parts], model.order),
                  dict(f.profile), f.pi4))
            for key, parts in buckets.items()]
