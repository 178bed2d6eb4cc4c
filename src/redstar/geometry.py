"""The product model: base coordinates with a constant Poisson matrix,
momentum coordinates dual to a Lie algebra, and (for nilpotent algebras)
exponential group coordinates.

Conventions, pinned once and used by every sign-sensitive identity:

* bracket on the base  {f, g} = Lam^(ij) d_i f d_j g with constant
  antisymmetric Lam; Hamiltonian fields act by X_u = {., u};
* momenta J_a satisfy {J_a, J_b} = C_ab^c J_c and {phi, J_a} = -X_a phi
  for functions of the group coordinates, where X_a is the left-invariant
  field X_a = (psi(ad_g) e_a)^c d/dg_c with psi(z) = z/(1 - e^{-z});
* fundamental fields are (e_a)_C = -X_a on the constraint surface and
  (e_a)_M = -X_a + C_ab^d J_d d/dJ_a-type coadjoint part upstairs, so that
  [xi_M, eta_M] = -([xi, eta])_M.

A density weight, the formal series of smooth densities behind the reduced
*-involution, is a Func of pi-grade zero: a lam-series of polynomials times
a Gaussian envelope, checked by density_weight.  Integrating against a
weight w means integrating the product f * w.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial

from .diffop import DiffOperator
from .funcs import Func
from .integrate import gaussian_integrate
from .poly import Poly
from .scalars import GaussRational

FIBER_EXPONENT = Fraction(1, 2)


class LieAlgebraData:
    """Structure constants C[a][b][c] = e^c([e_a, e_b]) with exact checks."""

    def __init__(self, dim: int, structure: dict, label: str = ""):
        self.dim = int(dim)
        self.label = label or f"lie{dim}"
        c = {}
        for (a, b, k), v in structure.items():
            v = Fraction(v)
            if v == 0:
                continue
            for idx in (a, b, k):
                if not 0 <= idx < self.dim:
                    raise ValueError(f"structure index {idx} out of range")
            c[(a, b, k)] = v
        self.structure = c
        self.basis = tuple(tuple(Fraction(int(i == a)) for i in range(self.dim))
                           for a in range(self.dim))
        self._check_antisymmetry()
        self._check_jacobi()
        self.modular = tuple(
            sum((self.c(a, b, b) for b in range(self.dim)), Fraction(0))
            for a in range(self.dim)
        )
        self.nilpotency_class = self._nilpotency_class()
        # starprod's memoised PBW tables; they depend on the structure
        # constants only, so every model over this algebra shares them
        self.pbw_tables: dict = {}

    def c(self, a, b, k) -> Fraction:
        return self.structure.get((a, b, k), Fraction(0))

    def _check_antisymmetry(self):
        for a in range(self.dim):
            for b in range(self.dim):
                for k in range(self.dim):
                    if self.c(a, b, k) != -self.c(b, a, k):
                        raise ValueError(
                            f"antisymmetry violated at C[{a+1}][{b+1}]^{k+1}"
                        )

    def _check_jacobi(self):
        n = self.dim
        for a in range(n):
            for b in range(a + 1, n):
                for k in range(b + 1, n):
                    for e in range(n):
                        s = Fraction(0)
                        for d in range(n):
                            s += self.c(b, k, d) * self.c(a, d, e)
                            s += self.c(k, a, d) * self.c(b, d, e)
                            s += self.c(a, b, d) * self.c(k, d, e)
                        if s != 0:
                            raise ValueError(
                                f"Jacobi identity violated on basis triple "
                                f"({a+1},{b+1},{k+1}) component {e+1}"
                            )

    def bracket_vec(self, x, y):
        """Bracket of coefficient vectors over the basis."""
        n = self.dim
        out = [Fraction(0)] * n
        for a in range(n):
            if x[a] == 0:
                continue
            for b in range(n):
                if y[b] == 0:
                    continue
                for k in range(n):
                    v = self.c(a, b, k)
                    if v:
                        out[k] += x[a] * y[b] * v
        return tuple(out)

    def psi_terms(self, a: int, cap: int):
        """Yield the nonzero terms (word, b_k ad_{e_w1} ... ad_{e_wk} e_a),
        k = len(word) <= cap, of psi(ad) e_a, psi(z) = z/(1 - e^{-z}) =
        sum_k b_k z^k.  A vanishing bracket ends its word, so on a nilpotent
        algebra the series ends at the class."""
        layer = {(): self.basis[a]}
        for k, bk in enumerate(psi_coefficients(cap)):
            if bk:
                yield from ((w, tuple(bk * x for x in v)) for w, v in layer.items())
            if k < cap:
                pairs = (((b,) + w, self.bracket_vec(self.basis[b], v))
                         for w, v in layer.items() for b in range(self.dim))
                layer = {w: u for w, u in pairs if any(u)}

    def _nilpotency_class(self):
        from .linalg import rank

        n, basis = self.dim, self.basis
        layer = basis
        for k in range(1, n + 2):
            nxt = []
            for x in basis:
                for y in layer:
                    v = self.bracket_vec(x, y)
                    if any(v):
                        nxt.append(v)
            if not nxt:
                return k
            if rank([[GaussRational(c) for c in v] for v in nxt]) == rank(
                [[GaussRational(c) for c in v] for v in layer]
            ) and k > 1:
                return None  # series stabilized without dying: not nilpotent
            layer = nxt
        return None

    @property
    def is_nilpotent(self) -> bool:
        return self.nilpotency_class is not None

    @property
    def is_unimodular(self) -> bool:
        return all(v == 0 for v in self.modular)

    def __repr__(self):
        return f"LieAlgebraData({self.label!r}, dim={self.dim})"


def psi_coefficients(cap: int) -> list:
    """b_0, ..., b_cap of psi(z) = z/(1 - e^{-z}) = 1 + z/2 + z^2/12 - z^4/720
    + ..., from psi(z) (1 - e^{-z})/z = 1."""
    b = [Fraction(1)]
    for n in range(1, cap + 1):
        b.append(-sum(Fraction((-1) ** j, factorial(j + 1)) * b[n - j]
                      for j in range(1, n + 1)))
    return b


def abelian_lie(dim: int) -> LieAlgebraData:
    return LieAlgebraData(dim, {}, label=f"abelian{dim}")


def heisenberg3() -> LieAlgebraData:
    return LieAlgebraData(3, {(0, 1, 2): 1, (1, 0, 2): -1}, label="heis3")


def aff1() -> LieAlgebraData:
    return LieAlgebraData(2, {(0, 1, 1): 1, (1, 0, 1): -1}, label="aff1")


def _standard_symplectic(dim: int):
    if dim % 2:
        raise ValueError("base dimension must be even for the default matrix")
    m = dim // 2
    lam = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(m):
        lam[2 * i][2 * i + 1] = Fraction(1)
        lam[2 * i + 1][2 * i] = Fraction(-1)
    return lam


def _free_of(f: Func, names) -> bool:
    """True when f depends on none of names: an envelope on a name counts,
    and one pass over the exponents of the lam coefficients reads the rest."""
    if any(n in f.profile for n in names):
        return False
    idx = [f.gens.index(n) for n in names]
    return not any(e[i] for p in f.series.coeffs for e in p.terms for i in idx)


class ModelSpace:
    """Coordinates, truncation order and operator factory for one model."""

    def __init__(self, lie: LieAlgebraData, base_dim: int = 2, order: int = 4,
                 poisson_matrix=None, group_level=None):
        self.lie = lie
        self.order = int(order)
        if base_dim == 2:
            self.base_names = ("q", "p")
        else:
            self.base_names = tuple(
                n for i in range(base_dim // 2) for n in (f"q{i+1}", f"p{i+1}")
            ) if base_dim % 2 == 0 else tuple(f"x{i+1}" for i in range(base_dim))
        n = lie.dim
        if group_level is None:
            group_level = lie.is_nilpotent
        if group_level and not lie.is_nilpotent:
            raise ValueError("group coordinates require a nilpotent Lie algebra")
        self.has_group = bool(group_level)
        self.group_names = (
            (("g",) if n == 1 else tuple(f"g{i+1}" for i in range(n)))
            if self.has_group
            else ()
        )
        self.momentum_names = ("J",) if n == 1 else tuple(f"J{i+1}" for i in range(n))
        self.gens = self.base_names + self.group_names + self.momentum_names
        lam = poisson_matrix if poisson_matrix is not None else _standard_symplectic(base_dim)
        self.poisson_matrix = [[Fraction(v) for v in row] for row in lam]
        for i in range(base_dim):
            for j in range(base_dim):
                if self.poisson_matrix[i][j] != -self.poisson_matrix[j][i]:
                    raise ValueError(f"Poisson matrix not antisymmetric at ({i},{j})")
        self._field_cache: dict = {}

    # -- function constructors --------------------------------------------

    def zero(self) -> Func:
        return Func.zero(self.gens, self.order)

    def one(self) -> Func:
        return Func.one(self.gens, self.order)

    def constant(self, c) -> Func:
        return Func.constant(self.gens, c, self.order)

    def var(self, name: str) -> Func:
        return Func.var(self.gens, name, self.order)

    def momentum(self, a: int) -> Func:
        """J_a as a function (zero-indexed basis label), built once per model."""
        key = ("momentum", a)
        if key not in self._field_cache:
            self._field_cache[key] = self.var(self.momentum_names[a])
        return self._field_cache[key]

    def momentum_of(self, xi) -> Func:
        out = self.zero()
        for a, c in enumerate(xi):
            if c:
                out = out + self.momentum(a) * GaussRational.coerce(c)
        return out

    def fiber_state(self, f: Func | Poly | int) -> Func:
        """Attach the fixed Gaussian fiber profile exp(-g^2/2) per group coordinate."""
        if not self.has_group:
            raise ValueError("fiber states need group coordinates")
        if isinstance(f, (int, Fraction, GaussRational)):
            f = self.constant(f)
        elif isinstance(f, Poly):
            f = Func.from_poly(f, self.order)
        return f.with_profile({g: FIBER_EXPONENT for g in self.group_names})

    def is_momentum_free(self, f: Func) -> bool:
        return _free_of(f, self.momentum_names)

    def is_base_only(self, f: Func) -> bool:
        return _free_of(f, self.group_names + self.momentum_names)

    # -- vector fields -------------------------------------------------------

    def left_invariant_field(self, a: int) -> DiffOperator:
        """X_a = (psi(ad_g) e_a)^c d/dg_c in exponential coordinates, each
        word of LieAlgebraData.psi_terms a group monomial g_{w1} ... g_{wk}."""
        key = ("liv", a)
        if key in self._field_cache:
            return self._field_cache[key]
        if not self.has_group:
            raise ValueError("no group coordinates in this model")
        op = DiffOperator.zero(self.gens, self.order)
        for word, v in self.lie.psi_terms(a, self.lie.nilpotency_class):
            expo = tuple(sum(self.group_names[b] == g for b in word) for g in self.gens)
            op = op + DiffOperator.first_order(self.gens, self.order, {
                n: Poly(self.gens, {expo: x}) for n, x in zip(self.group_names, v) if x})
        self._field_cache[key] = op
        return op

    def fundamental_field_C(self, xi) -> DiffOperator:
        """(xi)_C = -X_xi acting on functions of the constraint surface."""
        out = DiffOperator.zero(self.gens, self.order)
        for a, c in enumerate(xi):
            if c:
                out = out + self.left_invariant_field(a) * GaussRational.coerce(-Fraction(c))
        return out

    def fundamental_field_M(self, xi) -> DiffOperator:
        """(xi)_M: group part -X_xi plus the coadjoint part on the momenta."""
        key = ("ffm", tuple(xi))
        if key in self._field_cache:
            return self._field_cache[key]
        out = DiffOperator.zero(self.gens, self.order)
        if self.has_group:
            out = out + self.fundamental_field_C(xi)
        coeffs = {}
        for b, cb in enumerate(xi):
            if not cb:
                continue
            for a in range(self.lie.dim):
                for d in range(self.lie.dim):
                    v = self.lie.c(a, b, d)
                    if v:
                        name = self.momentum_names[a]
                        add = Poly.var(self.gens, self.momentum_names[d]) * GaussRational(
                            Fraction(v) * Fraction(cb)
                        )
                        coeffs[name] = coeffs.get(name, Poly.zero(self.gens)) + add
        if coeffs:
            out = out + DiffOperator.first_order(self.gens, self.order, coeffs)
        self._field_cache[key] = out
        return out

    def basis_vector(self, a: int):
        return self.lie.basis[a]

    def lie_derivative_C(self, a: int, f: Func) -> Func:
        return self.fundamental_field_C(self.basis_vector(a)).apply(f)

    # -- restriction / prolongation -------------------------------------------

    def restrict(self, f: Func) -> Func:
        """iota^*: put all momenta to zero."""
        return f.set_zero(self.momentum_names)

    def prolong(self, phi: Func) -> Func:
        """prol: include a momentum-free function into the full model."""
        if not self.is_momentum_free(phi):
            raise ValueError("prolongation input must not depend on the momenta")
        return phi

    def __repr__(self):
        return (
            f"ModelSpace(base={self.base_names}, group={self.group_names}, "
            f"momenta={self.momentum_names}, lie={self.lie.label}, K={self.order})"
        )


def monomials(names, cap: int) -> list:
    """Exponent vectors over the coordinate block names of total degree
    <= cap, by degree and then lexicographically."""
    vecs = (e for e in product(range(cap + 1), repeat=len(names)) if sum(e) <= cap)
    return sorted(vecs, key=lambda e: (sum(e), e))


def monomial(model: ModelSpace, names, expo) -> Func:
    """The monomial with exponents expo in the coordinate block names."""
    full = [0] * len(model.gens)
    for n, k in zip(names, expo):
        full[model.gens.index(n)] = k
    return Func.from_poly(Poly(model.gens, {tuple(full): GaussRational(1)}), model.order)


def poisson_bracket(model: ModelSpace, f: Func, g: Func) -> Func:
    """{f, g} on the full model: base part plus the canonical momentum part."""
    out = model.zero()
    names = model.base_names
    for i, ni in enumerate(names):
        dfi = f.diff(ni)
        if dfi.is_zero():
            continue
        for j, nj in enumerate(names):
            lam = model.poisson_matrix[i][j]
            if lam:
                out = out + dfi * g.diff(nj) * GaussRational(lam)
    for a in range(model.lie.dim):
        ja = model.momentum_names[a]
        dfa = f.diff(ja)
        dga = g.diff(ja)
        if model.has_group:
            xa = model.left_invariant_field(a)
            if not dfa.is_zero():
                out = out + dfa * xa.apply(g)
            if not dga.is_zero():
                out = out - xa.apply(f) * dga
        for b in range(model.lie.dim):
            dgb = g.diff(model.momentum_names[b])
            if dfa.is_zero() or dgb.is_zero():
                continue
            for c in range(model.lie.dim):
                v = model.lie.c(a, b, c)
                if v:
                    out = out + dfa * dgb * model.momentum(c) * GaussRational(v)
    return out


def classical_BC_member(model: ModelSpace, f: Func) -> bool:
    """Whether {f, J_a} lies in the ideal generated by the momenta for all a."""
    for a in range(model.lie.dim):
        br = poisson_bracket(model, f, model.momentum(a))
        if not model.restrict(br).is_zero():
            return False
    return True


def classical_reduced_bracket(model: ModelSpace, u: Func, v: Func) -> Func:
    """{u, v}_red on the base through restriction of prolonged brackets."""
    if not (model.is_base_only(u) and model.is_base_only(v)):
        raise ValueError("reduced bracket takes base-only functions")
    return model.restrict(poisson_bracket(model, model.prolong(u), model.prolong(v)))


def density_weight(w: Func) -> Func:
    """Check that w is a density weight and return it.

    A weight is a Func of pi-grade zero: a lam-series of polynomials, the
    prefactor, times a Gaussian envelope that decays in every coordinate it
    involves.  Its leading prefactor must have a positive real constant term.
    """
    if w.pi4:
        raise ValueError("a weight carries no pi-grade")
    for name, a in w.profile.items():
        if a < 0:
            raise ValueError(f"weight envelope grows in {name!r}: coefficient {a}")
    c0 = w.series.coeffs[0].constant_term()
    if not (c0.is_real() and c0.re > 0):
        raise ValueError("weight must have a positive leading prefactor")
    return w


def lebesgue_weight(model: ModelSpace) -> Func:
    return model.one()


def gaussian_base_weight(model: ModelSpace, exponent=1, prefactor=1) -> Func:
    """prefactor * exp(-exponent * |x|^2) over the base coordinates; the
    prefactor is a scalar or a Func."""
    w = model.one() * prefactor
    return density_weight(w.with_profile({n: exponent for n in model.base_names}))


def lift_density(model: ModelSpace, omega: Func) -> Func:
    """Lift a base density to the constraint surface: Haar is Lebesgue in
    exponential coordinates, so the lift is the base weight itself."""
    if not model.lie.is_nilpotent:
        raise ValueError("the density lift needs a nilpotent structure group")
    if not model.is_base_only(omega):
        raise ValueError("base density may only involve base coordinates")
    return density_weight(omega)


def fiber_integral(model: ModelSpace, phi: Func) -> Func:
    """Integrate a fiber state over the group block; Haar = Lebesgue."""
    if not model.has_group:
        raise ValueError("fiber integration needs group coordinates")
    return gaussian_integrate(phi, list(model.group_names))


def modular_vector_field(model: ModelSpace, omega: Func) -> DiffOperator:
    """u -> X_u(log w) for the Gaussian weight function w of omega's order-0 part."""
    if not omega.series.coeffs[0].is_constant():
        raise ValueError("modular vector field needs a Gaussian times constant weight")
    n = len(model.base_names)
    coeffs = {}
    for j in range(n):
        cj = Poly.zero(model.gens)
        for i in range(n):
            lam = model.poisson_matrix[i][j]
            a = omega.profile.get(model.base_names[i], Fraction(0))
            if lam and a:
                cj = cj + Poly.var(model.gens, model.base_names[i]) * GaussRational(
                    -2 * a * lam
                )
        if not cj.is_zero():
            coeffs[model.base_names[j]] = cj
    return DiffOperator.first_order(model.gens, model.order, coeffs)
