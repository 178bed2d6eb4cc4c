"""Classical and quantized Koszul complexes over the product model.

The complex lives on antisymmetric-algebra-valued functions; insertion of
the momentum covector is the classical differential, and the quantized
differential adds the right star multiplication, the structure-constant
correction and the modular term weighted by the parameter kappa, a
constant Func like every value in C[[lam]].  The right star
multiplication by J_a is a differential operator, built once per model by
starprod.right_momentum_operator, so a Koszul step applies it to each
component and makes no star_G call.  The classical differential
and the homotopy h_k are exponent shifts and rescalings of single terms,
done on term dicts by funcs.koszul_insertion and funcs.koszul_homotopy,
and the right multiplications that land on one output component are one
diffop.apply_sum: each output component is built once.  The inverses
behind the deformed restriction and the deformed homotopy are geometric
series that terminate by lam-grading, summed by
series.terminating_series, so every identity is exact modulo lam^(K+1).
Three steps skip work that returns zero: the series stop at their first
zero term, since their perturbations are linear; the resolvent returns a
momentum-free input as it is, since h_0 sends it to zero; and the
structure-constant term of the quantized differential is skipped on inputs
without a component of exterior degree 2 or more, where the double
insertion vanishes.  The perturbation subtracts the degree-0 components
of qk_1 h_0 f and k_1 h_0 f as Funcs.
"""

from __future__ import annotations

from fractions import Fraction

from .diffop import apply_sum
from .funcs import Func, koszul_homotopy, koszul_insertion
from .geometry import ModelSpace
from .scalars import GaussRational, I as IMAG
from .series import terminating_series
from .starprod import right_momentum_operator, star_G


class ReductionConfig:
    """The model, kappa and the ambient product star_G.

    kappa is a rational, or a list of rationals c_r, and is kept as the
    constant Func sum_r c_r lam^r; anything else raises TypeError."""

    def __init__(self, model: ModelSpace, kappa=Fraction(1, 2)):
        self.model = model
        coeffs = kappa if isinstance(kappa, (list, tuple)) else [kappa]
        self.kappa = sum((model.constant(c).shift(r) for r, c in enumerate(coeffs)),
                         model.zero())

    def star(self, f: Func, g: Func) -> Func:
        return star_G(self.model, f, g)


class SuperObservable:
    """Map from strictly increasing index tuples to coefficient functions."""

    def __init__(self, model: ModelSpace, comps=None):
        self.model = model
        self.comps: dict = {}
        if comps:
            for idx, f in comps.items():
                idx = tuple(idx)
                if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
                    raise ValueError(f"indices must be strictly increasing: {idx}")
                if not f.is_zero():
                    self._add(idx, f)

    def _add(self, idx, f):
        cur = self.comps.get(idx)
        s = f if cur is None else cur + f
        if s.is_zero():
            self.comps.pop(idx, None)
        else:
            self.comps[idx] = s

    @staticmethod
    def scalar(model: ModelSpace, f: Func) -> "SuperObservable":
        return SuperObservable(model, {(): f})

    def is_zero(self) -> bool:
        return not self.comps

    def __add__(self, other: "SuperObservable") -> "SuperObservable":
        out = SuperObservable(self.model, dict(self.comps))
        for idx, f in other.comps.items():
            out._add(idx, f)
        return out

    def __sub__(self, other: "SuperObservable") -> "SuperObservable":
        return self + other.scale(GaussRational(-1))

    def scale(self, c) -> "SuperObservable":
        return SuperObservable(
            self.model, {i: f * c for i, f in self.comps.items()}
        )

    def map(self, fn) -> "SuperObservable":
        return SuperObservable(self.model, {i: fn(f) for i, f in self.comps.items()})

    def conj(self) -> "SuperObservable":
        """Complex conjugation; the basis vectors of the exterior factor are real."""
        return self.map(lambda f: f.conj())

    def wedge_basis(self, c: int) -> "SuperObservable":
        """e_c wedge x."""
        out = SuperObservable(self.model)
        for idx, f in self.comps.items():
            if c in idx:
                continue
            pos = sum(1 for i in idx if i < c)
            new = tuple(sorted(idx + (c,)))
            sign = GaussRational(-1 if pos % 2 else 1)
            out._add(new, f * sign)
        return out

    def insert_basis(self, a: int) -> "SuperObservable":
        """ins(e^a): graded derivation of degree -1, insertion at the front."""
        out = SuperObservable(self.model)
        for idx, f in self.comps.items():
            if a not in idx:
                continue
            m = idx.index(a)
            sign = GaussRational(-1 if m % 2 else 1)
            out._add(idx[:m] + idx[m + 1:], f * sign)
        return out

    def insert_covector(self, alpha) -> "SuperObservable":
        out = SuperObservable(self.model)
        for a, v in enumerate(alpha):
            if v:
                out = out + self.insert_basis(a).scale(GaussRational.coerce(Fraction(v)))
        return out

    def __eq__(self, other):
        if not isinstance(other, SuperObservable):
            return NotImplemented
        return (self - other).is_zero()

    def __repr__(self):
        if not self.comps:
            return "0"
        parts = []
        for idx in sorted(self.comps, key=lambda i: (len(i), i)):
            tag = "^".join(f"e{i+1}" for i in idx) if idx else "1"
            parts.append(f"({self.comps[idx]!r})*{tag}")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# classical complex
# ---------------------------------------------------------------------------


def _momentum_positions(model: ModelSpace) -> tuple:
    return tuple(model.gens.index(n) for n in model.momentum_names)


def koszul(model: ModelSpace, x: SuperObservable) -> SuperObservable:
    """Classical differential: multiply each insertion by the momentum, an
    exponent shift on the terms of each component (funcs.koszul_insertion)."""
    return SuperObservable(model, koszul_insertion(x.comps, _momentum_positions(model)))


def homotopy_h(model: ModelSpace, x: SuperObservable, k: int) -> SuperObservable:
    """h_k: wedge with e_a, differentiate by J_a and average the momentum ray.

    On a momentum monomial of degree d in antisymmetric degree k the ray
    integral contributes the exact rational 1/(k + d); the map is one pass
    over the terms of each component (funcs.koszul_homotopy).
    """
    return SuperObservable(model, koszul_homotopy(x.comps, _momentum_positions(model), k))


# ---------------------------------------------------------------------------
# quantized complex
# ---------------------------------------------------------------------------


def quantized_koszul(cfg: ReductionConfig, x: SuperObservable) -> SuperObservable:
    """ins(e^a)x * J_a + (i lam/2) C_ab^c e_c ins(e^a) ins(e^b) x
    + i lam kappa ins(Delta) x.

    The first term applies R_a = right_momentum_operator(model, a), with
    R_a f = star_G(f, J_a), to each component of ins(e^a)x, and each
    output component is one diffop.apply_sum of those applications."""
    model = cfg.model
    pairs: dict = {}
    for a in range(model.lie.dim):
        for idx, f in x.comps.items():
            if a in idx:
                m = idx.index(a)
                pairs.setdefault(idx[:m] + idx[m + 1:], []).append(
                    (right_momentum_operator(model, a), -f if m % 2 else f))
    out = SuperObservable(model, {idx: apply_sum(p) for idx, p in pairs.items()})
    half_i = IMAG * GaussRational(Fraction(1, 2))
    # the double insertion vanishes below exterior degree 2
    if any(len(idx) >= 2 for idx in x.comps):
        for a in range(model.lie.dim):
            for b in range(model.lie.dim):
                double = x.insert_basis(b).insert_basis(a)
                if double.is_zero():
                    continue
                for c in range(model.lie.dim):
                    v = model.lie.c(a, b, c)
                    if v:
                        term = double.wedge_basis(c).map(
                            lambda f, v=v: (f * (half_i * GaussRational(v))).shift(1)
                        )
                        out = out + term
    mod_term = x.insert_covector(model.lie.modular)
    if not mod_term.is_zero():
        ilk = (cfg.kappa * IMAG).shift(1)
        out = out + mod_term.scale(ilk)
    return out


def _perturbation(cfg: ReductionConfig, f: Func) -> Func:
    """(qk_1 - k_1) h_0 applied to a degree-zero function; O(lam).

    The degree-0 components of qk_1 h_0 f and k_1 h_0 f are subtracted as
    Funcs; a zero difference is the plain model.zero()."""
    model = cfg.model
    hx = homotopy_h(model, SuperObservable.scalar(model, f), 0)
    q = quantized_koszul(cfg, hx).comps.get(())
    c = koszul(model, hx).comps.get(())
    if c is not None:
        q = -c if q is None else q - c
    return model.zero() if q is None or q.is_zero() else q


def _neumann_resolve(cfg: ReductionConfig, f: Func) -> Func:
    """(id + (qk_1 - k_1) h_0)^{-1} f by the terminating geometric series
    sum_k (-P)^k f with P = (qk_1 - k_1) h_0.  A momentum-free f, which h_0
    sends to zero, is returned as it is, with no application of P."""
    if cfg.model.is_momentum_free(f):
        return f
    return terminating_series(f, lambda t, _: -_perturbation(cfg, t), cfg.model.order)


def deformed_restriction(cfg: ReductionConfig, f: Func) -> Func:
    """iota*_kappa: restriction after the geometric-series correction."""
    return cfg.model.restrict(_neumann_resolve(cfg, f))


def deformed_homotopy(cfg: ReductionConfig, x: SuperObservable, k: int) -> SuperObservable:
    """h^kappa_k = h_k (h_{k-1} qk_k + qk_{k+1} h_k)^{-1} in degree k >= 0.

    For k >= 1 the inverse is the terminating series sum_j (-P)^j x with
    P = h_{k-1} qk_k + qk_{k+1} h_k - id, summed like _neumann_resolve.
    """
    model = cfg.model
    if k == 0:
        out = SuperObservable(model)
        for idx, f in x.comps.items():
            if idx != ():
                raise ValueError("degree-0 homotopy expects a scalar input")
            resolved = SuperObservable.scalar(model, _neumann_resolve(cfg, f))
            out = out + homotopy_h(model, resolved, 0)
        return out

    def op(y: SuperObservable) -> SuperObservable:
        return homotopy_h(model, quantized_koszul(cfg, y), k - 1) + quantized_koszul(
            cfg, homotopy_h(model, y, k)
        )

    return homotopy_h(model, terminating_series(x, lambda y, _: y - op(y), model.order), k)


# ---------------------------------------------------------------------------
# bimodule structure and the reduced product
# ---------------------------------------------------------------------------


def left_module(cfg: ReductionConfig, f: Func, phi: Func) -> Func:
    """f bullet phi = iota*_kappa(f * prol phi)."""
    model = cfg.model
    return deformed_restriction(cfg, cfg.star(f, model.prolong(phi)))


def reduced_star(cfg: ReductionConfig, u: Func, v: Func) -> Func:
    """The induced product on the base through the quantized restriction."""
    model = cfg.model
    if not (model.is_base_only(u) and model.is_base_only(v)):
        raise ValueError("the reduced product takes base-only functions")
    return deformed_restriction(cfg, cfg.star(model.prolong(u), model.prolong(v)))


def right_module(cfg: ReductionConfig, phi: Func, u: Func) -> Func:
    """phi bullet_red u = iota*_kappa(prol phi * prol u)."""
    model = cfg.model
    if not model.is_base_only(u):
        raise ValueError("the right action is by base functions")
    return deformed_restriction(cfg, cfg.star(model.prolong(phi), model.prolong(u)))


def quantized_BC_member(cfg: ReductionConfig, f: Func) -> bool:
    """Normalizer membership: the deformed restriction must be invariant,
    which it is on a model without group coordinates."""
    model = cfg.model
    if not model.has_group:
        return True
    rest = deformed_restriction(cfg, f)
    for a in range(model.lie.dim):
        if not model.lie_derivative_C(a, rest).is_zero():
            return False
    return True
