"""Differential tests: the merged word calculus, transport and multiplication
operators against the separate constructions they replace.

The reference code below is the former implementation, kept here only as
the construction the merged code must reproduce exactly (equal values and
equal repr):

- a second PBW word algebra with its own symmetrization and inverse, which
  gave Gutt's symmetrization product on momentum-level models; its
  per-coefficient recursive normal ordering and its residue-loop inverse
  (the former _dequantize) are also the references for the memoised
  normal-ordering, symmetrization and inverse tables;
- the resolvent of koszul as the Neumann iteration y <- f - P(y), which
  applies P = (qk_1 - k_1) h_0 to the whole partial sum;
- the deformed homotopy h^kappa_k by the same partial-sum iteration
  y <- x - (op(y) - y) with op = h_{k-1} qk_k + qk_{k+1} h_k, which the
  one terminating series of koszul replaces for it and the resolvent;
- the infinitesimal action of the Koszul equivariance battery with each
  component's index tuple and sign worked out by hand, which
  insert_basis and wedge_basis replace; and those two methods with the
  index and sign worked out in each (ref_insert_basis, ref_wedge_basis),
  which funcs.insertions and funcs.wedges replace;
- the conjugation transports A^a and B as finite geometric tails of the
  operator T = (k_1 - qk_1) h_0;
- the left and right multiplication operators as mirror-image builders,
  each expanding exp((i lam/2) Lam^{ij} d_i (x) d_j) over pair sequences;
  the left builder is also the only left operator the references use;
- the base product as a Func-level recursion over pair sequences, with the
  two-pass envelope-aware Func.diff and the loop Poly.__mul__ and Poly.diff
  beneath it;
- the application of a word operator with every word's fields applied
  letter by letter, which word_actions replaces by one application per
  suffix;
- the symmetrized quantization with each coefficient d^alpha f at J = 0
  taken as a chain of Func.diff and a Func.set_zero, and its inverse as one
  Func product and one Func sum per inverse-table entry;
- the product of two symbols as the inverse of the symmetrization
  (_dequantize) of the composed operator, and the composition with each
  left word pushed past each right coefficient by a recursion on its last
  letter, one base product per (left word, right word, pushed word), which
  one split table per word and one base product per left word replace;
- that split table built letter by letter with a binomial per letter, which
  the multi-index splits of diffop's Leibniz rule on the word's letter
  counts replace;
- DiffOperator.apply asking Partials for the derivative of every entry,
  which the entries picked per term through the operator's index replace,
  and moyal cut at the total degree only, which the cut at each
  coordinate's degree replaces;
- the Koszul homotopy, the classical differential and the R_a sum of the
  quantized differential in SuperObservable and Func arithmetic (one
  Func.diff, degree weighting and wedge per component and momentum, one
  Func product per insertion, one apply per component of each insertion),
  which one pass over each component's terms and one apply_sum per output
  component replace;
- the formal adjoint as one operator per entry, the weight's prefactor
  multiplied in and each twisted partial composed on the left one at a
  time; the pointwise series inverse corrected against the whole defect
  at every order; the reduced involution transposing the left operator of
  the whole partial sum at every step, and as a running sum that
  transposes the left operator of each nonzero step, which one cached
  step operator w -> T(L_w) per weight and its inverse replace;
- the modular automorphism and its logarithm as maps realised monomial by
  monomial, each with its own image cache, the logarithm taken per base
  monomial and summed over the input's terms, which one pair of callables
  sharing one cache of involved monomials replaces;
- the density ratio solved with one integral per Gram entry, per target
  and per defect at every order, each defect with its own base product,
  and the inner-difference columns built anew for each lam shift of each
  unknown;
- the comparison operator's columns from one base product per (probe,
  word, probe), each integrated against every g^e and kept at every lam
  order, which one moment pass per (probe, word) at order 0 replaces; and
  its solve against a form ip2(phi, psi) evaluated once per (probe, probe)
  pair, which one moment pass per probe of the ket map replaces;
- the lam-shift and coefficient slice rebuilt by hand around a Func's
  envelope and grade, the right action that stripped an inner product's
  pi-grade and added it back, and SuperObservable.scale_series;
- the normalizer pair as exp of the exponent and exp of its negative, each
  power composed on the right, which one exp with each power composed on
  the left and, for N^-1, N with its odd lam orders negated replace; the
  base checks as one depends_on scan per coordinate name, which one pass
  over the exponents replaces;
- the Hermitian product with N applied to every operand and two
  momentum-free operands multiplied through the symbol calculus, which
  star_G replaces by leaving such operands alone and by the base product;
  the quantized Koszul differential with its structure-constant loop run
  on inputs of every exterior degree; the resolvent's full K-step
  iteration, which stops at its first zero term;
- the lam-series loops that series.terminating_series replaces: exp's
  power loop, the ad-series of right_momentum_operator, the modular
  logarithm's power loop, the pointwise inverse's Cauchy recursion, the
  inverse and square root corrected against their whole defect at every
  order, and the vertical square root corrected the same way;
- the right multiplication of quantized_koszul by a momentum as one full
  star_G(f, J_a) call per component, which right_momentum_operator
  replaces by one cached differential operator per generator;
- that operator's Gutt part read from the PBW tables (symmetrization,
  normal ordering and inverse per word, then a Taylor inversion) and the
  left-invariant fields as the two-term formula d/dg_a + (1/2) ad_g, which
  the one psi-series of LieAlgebraData.psi_terms replaces for both;
- the validating Poly constructor on sums of GaussRational products,
  which Poly._trusted and Poly._trusted_sums (one normalisation per sum of
  unnormalised triples) replace for the output of the term-dict kernels,
  and
  the validating LambdaSeries and Func constructors, which
  LambdaSeries._trusted and Func._trusted replace for results whose
  coefficients, order, envelope and grade are already normal;
- the warm step's former scaffolding: DiffOperator.compose looping over
  pairs of lam orders and differentiating each right coefficient anew for
  every left entry and split, with perm read on every coordinate of the
  remainder; the involution's target as the adjoint applied to 1, which
  its d = 0 column (DiffOperator.at_one) replaces; the perturbation as a
  difference of SuperObservables, which the difference of their degree-0
  Funcs replaces; and one finisher call per empty lam order, which one
  shared zero Poly replaces;
- the Gaussian moment pass pairing every term with every shift, over a
  moment memo made anew per call and with one result built per shift,
  which one process-wide moment table, shift buckets by parity and one
  shared zero per pass for the shifts that no term meets replace; the
  comparison system integrating f times the fiber state of 1 and testing
  each column entry with Func.is_zero, which the envelope added by
  with_profile and a read of order 0 replace; and a Partials built on
  every call of Func.partials, which one kept per Func replaces;
- the base product rescaling its left operand by each table coefficient
  anew per entry and order, the product of two symbols as one moyal Func
  per left word re-added through _accumulate, and the symmetrization as
  one Func shift, scale and sum per table entry (SymbolOp._add_table),
  which the kernel _moyal_into summing into one accumulator and one sum
  of triples per output word replace; and each commutator as two moyal
  products, which moyal_commutator's one pass over the odd levels
  replaces.

suites.py and koszul.py leave the envelope and grade bookkeeping to Func
and never call its constructor.  Unvalidated Poly, LambdaSeries, Func and
GaussRational construction stays in the kernel modules, away from cli and
suites, where user input arrives, and from the modules that combine kernel
results.
"""

import ast
import importlib.util
import pkgutil
import random
import sys
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial, gcd, perm, prod
from operator import add, mul, sub

import pytest

import redstar
from redstar import diffop, starprod
from redstar.diffop import DiffOperator, _leibniz_splits
from redstar.funcs import Func, Partials, insertions, wedges
from redstar.geometry import (
    LieAlgebraData,
    ModelSpace,
    abelian_lie,
    aff1,
    density_weight,
    gaussian_base_weight,
    heisenberg3,
    lebesgue_weight,
    memo,
    monomial,
    monomials,
    random_poly,
)
from redstar import integrate, involution
from redstar.involution import (
    conj_transport,
    density_ratio_hat,
    kms_functional,
    modular_class,
    modular_inner_difference,
    mult_operator,
    reduced_involution,
    transport,
    transport_inner,
)
from redstar.koszul import (
    ReductionConfig,
    SuperObservable,
    _neumann_resolve,
    _perturbation,
    deformed_homotopy,
    homotopy_h,
    koszul,
    quantized_koszul,
    right_module,
)
from redstar.linalg import poly_equations, solve_linear
from redstar.morita import (
    VerticalOperator,
    _comparison_system,
    deformation_comparison_H,
    fullness_element,
    inner_product_red,
    inner_product_red_closed_form,
    vertical_sqrt,
)
from redstar.poly import Poly, _accumulate, _diff_terms, _mul_into, _scale
from redstar.integrate import gaussian_integrate_shifted
from redstar.scalars import GaussRational, I as IMAG, _make, double_factorial, rational_sqrt
from redstar.series import LambdaSeries, _leading_constant, series_inverse, series_sqrt
from redstar.starprod import (
    SymbolOp,
    _IMAG_POWERS,
    _mul_ilam,
    _normal_order,
    _sym_table,
    _symmetrize,
    moyal,
    moyal_commutator,
    moyal_table,
    neumaier_N,
    neumaier_N_inverse,
    pbw_words,
    right_momentum_operator,
    star_G,
    star_std,
    stdrep,
    word_actions,
)
from redstar.suites import _rho_action


# ---------------------------------------------------------------------------
# reference: the enveloping-algebra product without group data
# ---------------------------------------------------------------------------


class RefUElement:
    """sum_w c_w J_{w_1}...J_{w_k} with [J_a, J_b] = i lam C_ab^c J_c."""

    def __init__(self, model, terms=None):
        self.model = model
        self.terms = {}
        if terms:
            for w, c in terms.items():
                if not c.is_zero():
                    self._add(tuple(w), c)

    def _add(self, word, coeff):
        if coeff.is_zero():
            return
        cur = self.terms.get(word)
        s = coeff if cur is None else cur + coeff
        if s.is_zero():
            self.terms.pop(word, None)
        else:
            self.terms[word] = s

    def _add_normal_ordered(self, word, coeff):
        if coeff.is_zero():
            return
        for k in range(len(word) - 1):
            a, b = word[k], word[k + 1]
            if a > b:
                swapped = word[:k] + (b, a) + word[k + 2:]
                self._add_normal_ordered(swapped, coeff)
                for c in range(self.model.lie.dim):
                    v = self.model.lie.c(a, b, c)
                    if v:
                        shorter = word[:k] + (c,) + word[k + 2:]
                        self._add_normal_ordered(
                            shorter, _mul_ilam(coeff) * GaussRational(v)
                        )
                return
        self._add(word, coeff)

    def multiply(self, other):
        out = RefUElement(self.model)
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                out._add_normal_ordered(w1 + w2, moyal(self.model, c1, c2))
        return out

    def subtract(self, other):
        out = RefUElement(self.model, dict(self.terms))
        for w, c in other.terms.items():
            out._add(w, -c)
        return out


def ref_word_symmetrize(model, f):
    jnames = model.momentum_names
    out = RefUElement(model)
    degree = max(p.degree_in(jnames) for p in f.series.coeffs) if not f.is_zero() else 0
    multis = [()]
    all_multis = [()]
    for _ in range(degree):
        multis = [m + (a,) for m in multis for a in range(model.lie.dim) if not m or a >= m[-1]]
        all_multis.extend(multis)
    for multi in all_multis:
        g = f
        for a in multi:
            g = g.diff(jnames[a])
        g = g.set_zero(jnames)
        if g.is_zero():
            continue
        r = len(multi)
        seen = set()
        for arrangement in permutations(multi):
            if arrangement in seen:
                continue
            seen.add(arrangement)
            out._add_normal_ordered(
                arrangement, g * GaussRational(Fraction(1, factorial(r)))
            )
    return out


def ref_unsymmetrize(model, u):
    """The residue loop: peel off the longest words as a momentum
    polynomial and subtract its symmetrization, until nothing is left."""
    jnames = model.momentum_names
    residue = RefUElement(model, dict(u.terms))
    total = Func.zero(model.gens, model.order)
    while residue.terms:
        length = max(len(w) for w in residue.terms)
        if length == 0:
            total = total + residue.terms[()]
            break
        piece = None
        for w, c in residue.terms.items():
            if len(w) != length:
                continue
            mono = Func.one(model.gens, model.order)
            for a in w:
                mono = mono * Func.var(model.gens, jnames[a], model.order)
            contrib = c * mono
            piece = contrib if piece is None else piece + contrib
        total = total + piece
        residue = residue.subtract(ref_word_symmetrize(model, piece))
    return total


def ref_gutt(model, f, g):
    """Base product tensor the symmetrization product on the momenta."""
    return ref_unsymmetrize(model, ref_word_symmetrize(model, f).multiply(ref_word_symmetrize(model, g)))


# ---------------------------------------------------------------------------
# reference: the resolvent as a Neumann iteration on the partial sum
# ---------------------------------------------------------------------------


def ref_neumann_resolve(cfg, f):
    y = f
    for _ in range(cfg.model.order):
        y = f - _perturbation(cfg, y)
    return y


def homotopy_perturbation(cfg, x, k):
    """P x = (h_{k-1} qk_k + qk_{k+1} h_k - id) x in degree k >= 1."""
    model = cfg.model
    op = homotopy_h(model, quantized_koszul(cfg, x), k - 1) + quantized_koszul(
        cfg, homotopy_h(model, x, k)
    )
    return op - x


def ref_deformed_homotopy(cfg, x, k):
    model = cfg.model
    if k == 0:
        out = SuperObservable(model)
        for f in x.comps.values():
            resolved = SuperObservable.scalar(model, _neumann_resolve(cfg, f))
            out = out + homotopy_h(model, resolved, 0)
        return out
    y = x
    for _ in range(model.order):
        y = x - homotopy_perturbation(cfg, y, k)
    return homotopy_h(model, y, k)


# ---------------------------------------------------------------------------
# reference: the exterior insertion and wedge, each index and sign by hand
# ---------------------------------------------------------------------------


def ref_wedge_basis(x, c):
    """e_c wedge x."""
    out = SuperObservable(x.model)
    for idx, f in x.comps.items():
        if c in idx:
            continue
        pos = sum(1 for i in idx if i < c)
        new = tuple(sorted(idx + (c,)))
        sign = GaussRational(-1 if pos % 2 else 1)
        out._add(new, f * sign)
    return out


def ref_insert_basis(x, a):
    """ins(e^a): graded derivation of degree -1, insertion at the front."""
    out = SuperObservable(x.model)
    for idx, f in x.comps.items():
        if a not in idx:
            continue
        m = idx.index(a)
        sign = GaussRational(-1 if m % 2 else 1)
        out._add(idx[:m] + idx[m + 1:], f * sign)
    return out


def ref_insert_covector(x, alpha):
    """One SuperObservable sum of ref_insert_basis per covector entry."""
    out = SuperObservable(x.model)
    for a, v in enumerate(alpha):
        if v:
            out = out + ref_insert_basis(x, a).scale(GaussRational.coerce(Fraction(v)))
    return out


# ---------------------------------------------------------------------------
# reference: the conjugation transports as geometric tails
# ---------------------------------------------------------------------------


def ref_transport_T(cfg, f):
    """(k_1 - qk_1) h_0 f."""
    model = cfg.model
    hx = homotopy_h(model, SuperObservable.scalar(model, f), 0)
    diff = koszul(model, hx) - quantized_koszul(cfg, hx)
    return diff.comps.get((), model.zero())


def ref_geometric_tail(cfg, seed, budget):
    acc = seed
    val = seed
    for _ in range(budget):
        val = ref_transport_T(cfg, val)
        acc = acc + val
    return acc


def _ref_transport(cfg, g, contract):
    model = cfg.model
    order = model.order
    inner = [g.conj()]
    for _ in range(order):
        inner.append(ref_transport_T(cfg, inner[-1]))
    total = model.zero()
    for m in range(order + 1):
        h0 = homotopy_h(model, SuperObservable.scalar(model, inner[m].conj()), 0)
        seed = contract(h0).comps.get((), model.zero())
        if seed.is_zero():
            continue
        total = total + ref_geometric_tail(cfg, seed, order - m)
    return total


def ref_transport_A(cfg, a, g):
    return _ref_transport(cfg, g, lambda h0: ref_insert_basis(h0, a))


def ref_transport_B(cfg, g):
    return _ref_transport(cfg, g, lambda h0: ref_insert_covector(h0, cfg.model.lie.modular))


# ---------------------------------------------------------------------------
# reference: one-sided multiplication operators
# ---------------------------------------------------------------------------


def _base_pairs(model):
    """(i, j, Lam^{ij}) for every nonzero entry of the Poisson matrix."""
    names = model.base_names
    out = []
    for i in range(len(names)):
        for j in range(len(names)):
            lam = model.poisson_matrix[i][j]
            if lam:
                out.append((i, j, GaussRational(lam)))
    return out


def _ref_mult(model, u, left):
    if u.profile:
        raise ValueError("multiplication operators need polynomial symbols")
    gens = model.gens
    order = model.order
    pairs = _base_pairs(model)
    tables = [dict() for _ in range(order + 1)]
    half_i = IMAG * GaussRational(Fraction(1, 2))
    for r in range(order + 1):
        scale = half_i ** r * GaussRational(Fraction(1, factorial(r)))
        for seq in product(pairs, repeat=r):
            d = [0] * len(gens)
            du = u
            factor = scale
            for (i, j, lam) in seq:
                if left:
                    d[j] += 1
                    du = du.diff(model.base_names[i])
                else:
                    d[i] += 1
                    du = du.diff(model.base_names[j])
                factor = factor * lam
            if du.is_zero():
                continue
            for s, p in enumerate(du.series.coeffs):
                if r + s > order or p.is_zero():
                    continue
                key = tuple(d)
                tables[r + s][key] = tables[r + s].get(key, Poly.zero(gens)) + p * factor
    return DiffOperator(gens, order, tables)


def ref_right_mult_operator(model, u):
    """w -> w *_red u."""
    return _ref_mult(model, u, left=False)


def ref_left_mult_operator(model, v):
    """w -> v *_red w."""
    return _ref_mult(model, v, left=True)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def rand_poly(rng, model, gens, deg, nterms=3):
    out = model.zero()
    for _ in range(nterms):
        t = model.one()
        for _ in range(rng.randint(0, deg)):
            t = t * model.var(rng.choice(gens))
        out = out + t * GaussRational(rng.randint(-3, 3), rng.randint(-1, 1))
    return out


def lam_shifted(f, r):
    return Func(f.series.shift(r), f.profile, f.pi4)


def assert_same(got, expect):
    assert (got - expect).is_zero()
    assert repr(got) == repr(expect)
    assert got.profile == expect.profile and got.pi4 == expect.pi4


MOMENTUM_MODELS = {
    "aff1": lambda: ModelSpace(aff1(), 2, 3),
    "heis3": lambda: ModelSpace(heisenberg3(), 2, 3, group_level=False),
    "abelian1": lambda: ModelSpace(abelian_lie(1), 2, 3, group_level=False),
    "abelian2": lambda: ModelSpace(abelian_lie(2), 2, 3, group_level=False),
}


# ---------------------------------------------------------------------------
# star_G on momentum-level models is the reference Gutt product
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(MOMENTUM_MODELS))
def test_star_G_is_gutt_product(name):
    m = MOMENTUM_MODELS[name]()
    assert not m.has_group
    rng = random.Random(7)
    pairs = [(m.momentum(a), m.momentum(b))
             for a in range(m.lie.dim) for b in range(m.lie.dim)]
    for _ in range(4):
        f = rand_poly(rng, m, m.gens, 3)
        g = rand_poly(rng, m, m.gens, 3)
        pairs.append((f, g))
        pairs.append((lam_shifted(f, 1), g))
        pairs.append((f, lam_shifted(g, 2)))
    pairs.append((m.zero(), rand_poly(rng, m, m.gens, 2)))
    pairs.append((m.one(), m.one()))
    for f, g in pairs:
        assert_same(star_G(m, f, g), ref_gutt(m, f, g))


def test_star_G_is_gutt_product_with_envelope():
    m = MOMENTUM_MODELS["aff1"]()
    rng = random.Random(11)
    for _ in range(3):
        f = rand_poly(rng, m, m.gens, 2).with_profile({"q": Fraction(1, 2)})
        g = rand_poly(rng, m, m.gens, 2).with_profile({"q": Fraction(1, 2)})
        assert_same(star_G(m, f, g), ref_gutt(m, f, g))


def test_reference_sees_the_commutator():
    """The momenta do not commute under either product on heis3, so the
    comparison above exercises the reordering, not only the base product."""
    m = MOMENTUM_MODELS["heis3"]()
    j1, j2 = m.momentum(0), m.momentum(1)
    ref = ref_gutt(m, j1, j2) - ref_gutt(m, j2, j1)
    assert not ref.is_zero()
    assert_same(star_G(m, j1, j2) - star_G(m, j2, j1), ref)


# ---------------------------------------------------------------------------
# the memoised PBW tables against the recursion and the residue loop
# ---------------------------------------------------------------------------


def sl2():
    """[e1, e2] = 2 e2, [e1, e3] = -2 e3, [e2, e3] = e1."""
    return LieAlgebraData(3, {(0, 1, 1): 2, (1, 0, 1): -2, (0, 2, 2): -2,
                              (2, 0, 2): 2, (1, 2, 0): 1, (2, 1, 0): -1}, "sl2")


def so3():
    """[e1, e2] = e3, [e2, e3] = e1, [e3, e1] = e2."""
    return LieAlgebraData(3, {(0, 1, 2): 1, (1, 0, 2): -1, (1, 2, 0): 1,
                              (2, 1, 0): -1, (2, 0, 1): 1, (0, 2, 1): -1}, "so3")


PBW_MODELS = {
    "heis3": lambda: ModelSpace(heisenberg3(), 2, 3, group_level=False),
    "heis3_group": lambda: ModelSpace(heisenberg3(), 2, 3),
    "aff1": lambda: ModelSpace(aff1(), 2, 3),
    "sl2": lambda: ModelSpace(sl2(), 2, 3),
    "so3": lambda: ModelSpace(so3(), 2, 3),
}


def assert_same_terms(got, expect):
    """Equal word sets and equal coefficients; the insertion order of the
    words may differ where a word cancels and comes back."""
    assert set(got) == set(expect)
    for w in expect:
        assert_same(got[w], expect[w])


def ref_factor(op, f, times):
    """F^times f for the generator factor of op's type: (i lam)^times for
    the symbol calculus, none for vertical operators."""
    return _mul_ilam(f, times) if type(op) is SymbolOp else f


def ref_add_table(op, table, length, coeff):
    """The former SymbolOp._add_table: insert sum_v r_v F^{length - |v|}
    coeff F^{|v|} L_v into op for a table {v: r_v}, one Func shift, scale
    and sum per entry."""
    if coeff.is_zero():
        return
    shifted = {}
    for v, r in table.items():
        k = length - len(v)
        c = shifted.get(k)
        if c is None:
            c = shifted[k] = ref_factor(op, coeff, k)
        if not c.is_zero():
            op._add_term(v, c if r == 1 else c * r)


def symbol_inputs(m, seed):
    """Momentum polynomials: plain, lam-shifted, enveloped in a base
    coordinate, pi-graded, the repeated letters J2^2 and J2^4, and zero."""
    rng = random.Random(seed)
    base = m.base_names
    j1, j2 = (m.var(n) for n in m.momentum_names[:2])
    j22 = j2 * j2
    return [
        rand_poly(rng, m, m.gens, 3),
        rand_poly(rng, m, m.gens, 2) + lam_shifted(rand_poly(rng, m, m.gens, 3), 1),
        (rand_poly(rng, m, base, 2) * j22 * j1).with_profile({base[0]: Fraction(1, 2)}),
        (j22 * rand_poly(rng, m, m.gens, 2) + lam_shifted(j2, 2)).with_pi4(3),
        j22 * j22 + j1 * j22,
        m.zero(),
    ]


@pytest.mark.parametrize("name", sorted(PBW_MODELS))
def test_normal_order_matches_recursion(name):
    """Every word up to length 4, sorted or not: its _normal_order table
    gives the recursion's terms on the coefficient one, and the coefficient
    composed with the word's letters one by one gives them on a
    lam-shifted, enveloped, pi-graded coefficient."""
    m = PBW_MODELS[name]()
    lie = m.lie
    rng = random.Random(13)
    coeffs = [m.one(),
              lam_shifted(rand_poly(rng, m, m.base_names, 2), 1)
              .with_profile({m.base_names[1]: Fraction(1, 3)}).with_pi4(-2)]
    brackets = 0
    for n in range(5):
        for word in product(range(lie.dim), repeat=n):
            table = _normal_order(lie, word)
            assert all(list(v) == sorted(v) for v in table)
            ref = RefUElement(m)
            ref._add_normal_ordered(word, m.one())
            assert set(table) == set(ref.terms)
            for v, r in table.items():
                k = len(word) - len(v)
                assert_same(ref.terms[v], _mul_ilam(m.one(), k) * r)
            brackets += any(len(v) < n for v in table)
            for c in coeffs[1:]:
                got = SymbolOp(m, {(): c})
                for a in word:
                    got = got.compose(SymbolOp(m, {(a,): m.one()}))
                ref = RefUElement(m)
                ref._add_normal_ordered(word, c)
                assert_same_terms(got.terms, ref.terms)
    assert brackets > 0
    assert starprod._insert(lie, 1, (0,)) is lie.pbw_tables[("insert", 1, (0,))]
    assert all(k[0] != "order" for k in lie.pbw_tables)


def ref_normal_order(lie, word, seen):
    """The recursion _normal_order once was: the first descent of the word
    swapped, its bracket giving one shorter word per structure constant,
    each word's table kept in seen."""
    if word in seen:
        return seen[word]
    k = next((k for k in range(len(word) - 1) if word[k] > word[k + 1]), None)
    if k is None:
        table = {word: GaussRational(1)}
    else:
        a, b = word[k], word[k + 1]
        table = dict(ref_normal_order(lie, word[:k] + (b, a) + word[k + 2:], seen))
        for c in range(lie.dim):
            v = lie.c(a, b, c)
            if v:
                for u, r in ref_normal_order(lie, word[:k] + (c,) + word[k + 2:],
                                             seen).items():
                    t = table[u] + r * v if u in table else r * v
                    if t.is_zero():
                        table.pop(u, None)
                    else:
                        table[u] = t
    seen[word] = table
    return table


@memo("ref_inverse")
def ref_inverse_table(lie, word):
    """{sorted beta: t_beta} with
    _symmetrize(sum_beta t_beta F^{|w|-|beta|} J^beta) = F^{|w|} L_w, the
    triangular inverse of _sym_table, which _sorted_symbol read once:
    _symmetrize(J^w) is F^{|w|} L_w plus shorter words."""
    table = {word: GaussRational(1)}
    mult = prod(factorial(word.count(a)) for a in set(word))
    for v, s in _sym_table(lie, word).items():
        if v != word:
            starprod._add_scaled(table, ref_inverse_table(lie, v), -s * mult)
    return table


def ref_word_symbol(model, word, jidx):
    """The per-push exponent loop _word_symbol once was: the word's normal
    ordering, then the inverse table of each sorted word, each beta spelled
    as an exponent afresh, every level kept."""
    out = {}
    lie = model.lie
    for v, r in ref_normal_order(lie, word, {}).items():
        for beta, t in ref_inverse_table(lie, v).items():
            expo = [0] * len(model.gens)
            for x in beta:
                expo[jidx[x]] += 1
            group = out.setdefault(len(word) - len(beta), {})
            e = tuple(expo)
            group[e] = group[e] + r * t if e in group else r * t
    return out


@pytest.mark.parametrize("name", sorted(PBW_MODELS))
def test_normal_order_matches_recursion_on_random_words(name):
    """400 random words up to length 7: insertion into the longest sorted
    suffix gives the first-descent recursion's table, and a sorted word is
    its own table."""
    lie = PBW_MODELS[name]().lie
    rng = random.Random(41)
    seen = {}
    brackets = 0
    for _ in range(400):
        word = tuple(rng.randrange(lie.dim) for _ in range(rng.randint(0, 7)))
        table = _normal_order(lie, word)
        assert table == ref_normal_order(lie, word, seen), word
        brackets += any(len(v) < len(word) for v in table)
        if list(word) == sorted(word):
            assert table == {word: 1}
    assert brackets > 0


def test_pbw_tables_hold_sorted_words_only(monkeypatch):
    """200 star_G calls on degree-4 heis3 inputs at K = 4, as in the
    benchmark's call stream: every word in a key of pbw_tables and every
    sorted_symbol key is sorted, though most words pushed are not; and
    _word_symbol gives the per-push exponent loop's symbol on every word
    met, on the levels j <= K that it keeps."""
    m = ModelSpace(heisenberg3(), 2, 4)
    rng = random.Random(3)
    met = set()
    word_symbol = starprod._word_symbol

    def recording(model, word):
        met.add(word)
        return word_symbol(model, word)

    monkeypatch.setattr(starprod, "_word_symbol", recording)
    for _ in range(200):
        star_G(m, random_poly(rng, m, 4), random_poly(rng, m, 4))

    def is_sorted(w):
        return list(w) == sorted(w)

    words = [w for key in m.lie.pbw_tables for w in key[1:] if isinstance(w, tuple)]
    assert words and all(map(is_sorted, words))
    symbols = [k[1] for k in m._field_cache if k[0] == "sorted_symbol"]
    assert symbols and all(map(is_sorted, symbols))
    assert sum(not is_sorted(w) for w in met) > len(symbols)
    jidx = [m.gens.index(n) for n in m.momentum_names]
    for word in met:
        expect = {j: t for j, t in ref_word_symbol(m, word, jidx).items() if j <= m.order}
        assert word_symbol(m, word) == expect, word


# the algebras and orders on which the sorted words' symbols are checked:
# (algebra, group level, orders, longest word)
SORTED_SYMBOL_CASES = {
    "heis3": (heisenberg3, False, range(7), 7),
    "heis3_group": (heisenberg3, True, range(7), 7),
    "aff1": (aff1, None, range(7), 7),
    "sl2": (sl2, None, range(7), 7),
    "so3": (so3, None, range(7), 7),
    "filiform4": (lambda: filiform4(), False, range(9), 6),
    "filiform4_group": (lambda: filiform4(), True, range(9), 6),
    "abelian2": (lambda: abelian_lie(2), None, range(9), 6),
}


@pytest.mark.parametrize("name", sorted(SORTED_SYMBOL_CASES))
def test_sorted_symbol_matches_the_inverse_table(name):
    """Every sorted word up to the longest length, at every order K listed:
    _sorted_symbol, built by the Gutt right multiplication, holds the
    levels j <= K of the inverse table with each beta spelled as an
    exponent, and no level above K (sl2 and so3 have a psi-series that
    does not terminate)."""
    build, group_level, orders, longest = SORTED_SYMBOL_CASES[name]
    lie = build()
    for order in orders:
        m = ModelSpace(lie, 2, order, group_level=group_level)
        jidx = [m.gens.index(n) for n in m.momentum_names]
        for word in pbw_words(lie.dim, longest):
            got = starprod._sorted_symbol(m, word)
            assert all(j <= order for j in got), (word, order)
            expect = {j: t for j, t in ref_word_symbol(m, word, jidx).items() if j <= order}
            assert got == expect, (word, order)


@pytest.mark.parametrize("name", sorted(PBW_MODELS))
def test_symmetrize_matches_reference(name):
    m = PBW_MODELS[name]()
    for f in symbol_inputs(m, 29):
        assert_same_terms(_symmetrize(m, f).terms, ref_word_symmetrize(m, f).terms)


@pytest.mark.parametrize("name", sorted(PBW_MODELS))
def test_dequantize_matches_residue_loop(name):
    """The inverse table against the residue loop, on symmetrized symbols,
    on their products and on operators with arbitrary coefficients; and the
    round trip _dequantize(_symmetrize(f)) == f."""
    m = PBW_MODELS[name]()
    rng = random.Random(31)
    fs = symbol_inputs(m, 37)
    ops = [_symmetrize(m, f) for f in fs]
    ops += [ops[k].compose(ops[k + 1]) for k in range(0, len(ops) - 1, 2)]
    words = pbw_words(m.lie.dim, 3)
    fiber = m.base_names + m.group_names
    ops.append(SymbolOp(m, {w: lam_shifted(rand_poly(rng, m, fiber, 2), len(w) % 2)
                            for w in rng.sample(words, 8)}))
    ops.append(SymbolOp(m, {w: rand_poly(rng, m, m.base_names, 1)
                            .with_profile({m.base_names[0]: 1}).with_pi4(5)
                            for w in [(1, 1), (0, 1, 1), (2, 2, 2), (0,), ()]
                            if max(w, default=0) < m.lie.dim}))
    for op in ops:
        assert_same(_dequantize(m, op), ref_unsymmetrize(m, op))
    for f in fs:
        assert_same(_dequantize(m, _symmetrize(m, f)), f)


def test_symmetrize_weights_repeated_letters():
    """_symmetrize(J^alpha) is alpha! times _sym_table(alpha), whose leading
    entry is 1/alpha!; the inverse table starts with the word itself."""
    m = PBW_MODELS["sl2"]()
    for alpha, mult in (((1, 1), 2), ((0, 1, 1), 2), ((1, 1, 1), 6), ((0, 1, 2), 1)):
        table = _sym_table(m.lie, alpha)
        assert table[alpha] * mult == 1
        assert next(iter(ref_inverse_table(m.lie, alpha).items())) == (alpha, 1)
        mono = m.one()
        for a in alpha:
            mono = mono * m.momentum(a)
        expect = SymbolOp(m)
        ref_add_table(expect, table, len(alpha), m.one() * mult)
        assert_same_terms(_symmetrize(m, mono).terms, expect.terms)
    assert len(_sym_table(m.lie, (0, 1, 2))) > 1  # brackets reach shorter words


SYM_ALGEBRAS = {
    "abelian2": lambda: abelian_lie(2),
    "heis3": heisenberg3,
    "filiform4": lambda: filiform4(),
    "aff1": aff1,
    "sl2": sl2,
}


@pytest.mark.parametrize("name", sorted(SYM_ALGEBRAS))
def test_sym_table_matches_the_permutation_walk(name):
    """Every sorted word up to length 7: _sym_table equals the table summed
    over dict.fromkeys(permutations(word)), the walk over all |word|!
    permutations, in value and in key order once the walk's table is put in
    the stated order, longest word first and lexicographic within a length
    (the walk meets the keys of some sl2 and filiform4 words in another)."""
    lie = SYM_ALGEBRAS[name]()
    for word in pbw_words(lie.dim, 7):
        walk = {}
        weight = GaussRational(Fraction(1, factorial(len(word))))
        for arrangement in dict.fromkeys(permutations(word)):
            starprod._add_scaled(walk, _normal_order(lie, arrangement), weight)
        expect = [(v, walk[v]) for v in sorted(walk, key=lambda v: (-len(v), v))]
        assert list(_sym_table(lie, word).items()) == expect, word


# ---------------------------------------------------------------------------
# reference: the symbol calculus through whole Funcs
# ---------------------------------------------------------------------------


def ref_symmetrize(model, f):
    """Each coefficient g = d^alpha f at J = 0 from a chain of Func.diff and
    a Func.set_zero per sorted multi-index."""
    op = SymbolOp(model)
    jnames = model.momentum_names
    degree = max(p.degree_in(jnames) for p in f.series.coeffs) if not f.is_zero() else 0
    for multi in pbw_words(model.lie.dim, degree):
        g = f
        for a in multi:
            g = g.diff(jnames[a])
        g = g.set_zero(jnames)
        ref_add_table(op, _sym_table(model.lie, multi), len(multi), g)
    return op


def ref_dequantize(model, op):
    """One Func product and one Func sum per inverse-table entry."""
    gens, order = model.gens, model.order
    jidx = [gens.index(n) for n in model.momentum_names]
    total = Func.zero(gens, order)
    for w, c in op.terms.items():
        for beta, t in ref_inverse_table(model.lie, w).items():
            ck = _mul_ilam(c, len(w) - len(beta))
            if ck.is_zero():
                continue
            expo = [0] * len(gens)
            for a in beta:
                expo[jidx[a]] += 1
            total = total + ck * Func.from_poly(Poly(gens, {tuple(expo): t}), order)
    return total


def assert_identical(got, expect):
    """Equal value, repr, hash, envelope items in order and grade, and a
    series of exactly order + 1 Polys over the Func's generators."""
    assert got == expect and repr(got) == repr(expect) and hash(got) == hash(expect)
    assert list(got.profile.items()) == list(expect.profile.items())
    assert type(got.pi4) is int and got.pi4 == expect.pi4
    coeffs = got.series.coeffs
    assert type(coeffs) is tuple and len(coeffs) == got.order + 1
    assert all(type(p) is Poly and p.gens == got.gens for p in coeffs)


def symbol_cases(m, seed):
    """symbol_inputs, random symbols of degree 4, and an enveloped,
    lam-shifted, pi-graded symbol."""
    rng = random.Random(seed)
    base = m.base_names
    fs = symbol_inputs(m, seed)
    fs += [rand_poly(rng, m, m.gens, 4, nterms=5) for _ in range(3)]
    fs.append(lam_shifted(rand_poly(rng, m, m.gens, 3) * rand_poly(rng, m, base, 1), 1)
              .with_profile({base[-1]: Fraction(2, 5)}).with_pi4(-1))
    return fs


@pytest.mark.parametrize("name", sorted(PBW_MODELS))
def test_symmetrize_matches_diff_chain(name):
    """The one pass over f's terms gives the chain's words in its order and
    coefficients identical to the chain's; an envelope in a momentum
    coordinate raises the chain's error."""
    m = PBW_MODELS[name]()
    for f in symbol_cases(m, 43):
        got, expect = _symmetrize(m, f), ref_symmetrize(m, f)
        assert list(got.terms) == list(expect.terms)
        for w, c in expect.terms.items():
            assert_identical(got.terms[w], c)
    j = m.momentum_names[-1]
    for f in (m.var(m.base_names[0]) * m.momentum(0), m.zero()):
        f = f.with_profile({j: Fraction(1, 2)})
        with pytest.raises(ValueError) as expect:
            ref_symmetrize(m, f)
        with pytest.raises(ValueError) as got:
            _symmetrize(m, f)
        assert str(got.value) == str(expect.value)


@pytest.mark.parametrize("name", sorted(PBW_MODELS))
def test_dequantize_matches_func_sums(name):
    """Symmetrized symbols, their products, operators with lam-shifted,
    enveloped and pi-graded coefficients, words longer than the order, the
    zero operator and cancelling operators give the Func sums' value and
    repr, zero results included; mismatched envelopes raise as they do."""
    m = PBW_MODELS[name]()
    rng = random.Random(47)
    base, dim = m.base_names, m.lie.dim
    fiber = base + m.group_names
    ops = [_symmetrize(m, f) for f in symbol_cases(m, 53)]
    ops += [ops[k].compose(ops[k + 1]) for k in range(0, len(ops) - 1, 2)]
    words = pbw_words(dim, m.order + 2)
    ops.append(SymbolOp(m, {w: lam_shifted(rand_poly(rng, m, fiber, 2), len(w) % 3)
                            for w in rng.sample(words, 10) + [words[-1]]}))
    dressed = rand_poly(rng, m, base, 1).with_profile({base[0]: 1}).with_pi4(3)
    ops.append(SymbolOp(m, {w: dressed for w in words[:: len(words) // 5]}))
    ops.append(SymbolOp(m))
    ops.append(SymbolOp(m, {(): m.momentum(0) * dressed * -1, (0,): dressed}))
    ops.append(SymbolOp(m, {(): m.momentum(0) * -1, (0,): m.one()}))
    ops.append(SymbolOp(m, {(): m.var(base[1]) - m.momentum(0), (0,): m.one(),
                            (dim - 1,): lam_shifted(m.one(), m.order)}))
    cancelled = 0
    for op in ops:
        got, expect = _dequantize(m, op), ref_dequantize(m, op)
        assert_identical(got, expect)
        cancelled += bool(op.terms) and got.is_zero()
    assert cancelled == 2
    assert repr(_dequantize(m, ops[-3])) == f"((0)*exp(-1*{base[0]}^2))*pi^(3/4)"
    assert repr(_dequantize(m, ops[-2])) == "0"
    mixed = SymbolOp(m, {(0,): dressed, (dim - 1,): dressed.with_pi4(1)})
    with pytest.raises(ValueError):
        ref_dequantize(m, mixed)
    with pytest.raises(ValueError):
        _dequantize(m, mixed)


# ---------------------------------------------------------------------------
# reference: the symbol of a composed operator, and the recursive push
# ---------------------------------------------------------------------------


def _dequantize(model, op):
    """The former inverse of _symmetrize on a PBW-sorted operator: each
    stored c_w L_w reads its momentum polynomial
    sum_beta t_beta F^{|w|-|beta|} c_w J^beta from ref_inverse_table(w), summed
    per lam order on term dicts into one Func, with the envelope and grade
    of the last coefficient that reaches the order (all must agree);
    without one it is the plain zero."""
    gens, order = model.gens, model.order
    jidx = [gens.index(n) for n in model.momentum_names]
    acc = [{} for _ in range(order + 1)]
    last = None
    for w, c in op.terms.items():
        coeffs = c.series.coeffs
        for beta, t in ref_inverse_table(model.lie, w).items():
            k = len(w) - len(beta)
            if k > order or not any(p.terms for p in coeffs[: order + 1 - k]):
                continue
            if last is not None and last is not c:
                last._compatible(c)
            last = c
            expo = [0] * len(gens)
            for a in beta:
                expo[jidx[a]] += 1
            mono = {tuple(expo): t * _IMAG_POWERS[k % 4]}
            for s, p in enumerate(coeffs[: order + 1 - k]):
                if p.terms:
                    _mul_into(acc[s + k], p.terms, mono)
    series = LambdaSeries._trusted(
        tuple([Poly._trusted_sums(gens, t) for t in acc]), order)
    if last is None:
        return Func._trusted(gens, series, {}, 0)
    return last._like(series)


def ref_compose(a, b):
    """The former SymbolOp.compose: each left word pushed past each right
    coefficient by a recursion on its last letter, and one base product per
    (left word, right word, pushed word) before the normal ordering."""
    if type(a) is not type(b):
        raise ValueError("cannot mix calculi with different generator factors")
    model = a.model
    fields = ([model.left_invariant_field(x) for x in range(model.lie.dim)]
              if model.has_group else None)
    out = a._new()

    def push(word, coeff):
        if not word or fields is None:
            return {word: coeff}
        head, x = word[:-1], word[-1]
        branches = {}
        hit = ref_factor(a, fields[x].apply(coeff), 1)
        if not hit.is_zero():
            for v, cv in push(head, hit).items():
                branches[v] = branches.get(v, coeff.zero_like()) + cv
        for v, cv in push(head, coeff).items():
            key = v + (x,)
            branches[key] = branches.get(key, coeff.zero_like()) + cv
        return branches

    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            for v, cv in push(w1, c2).items():
                word = v + w2
                ref_add_table(out, _normal_order(model.lie, word), len(word),
                              moyal(model, c1, cv))
    return out


def ref_apply_unpruned(op, f):
    """The former DiffOperator.apply: every entry of the operator, in table
    order, each asking f.partials() for its derivative."""
    order = f.order
    if op.is_zero():
        return f.zero_like()
    partials = f.partials()
    acc = [{} for _ in range(order + 1)]
    for r, table in enumerate(op.tables[: order + 1]):
        for d, c in table.items():
            for s, terms in enumerate(partials[d][: order + 1 - r]):
                if terms:
                    _mul_into(acc[r + s], terms, c.terms)
    series = LambdaSeries._trusted(
        tuple([Poly._trusted_sums(f.gens, t) for t in acc]), order)
    return f._like(series)


# the scenes' algebras: abelian_r, heisenberg and filiform4 at group level,
# affine_line and sl2 on the momenta only
KERNEL_ALGEBRAS = {
    "abelian_r": lambda: abelian_lie(1),
    "heis3": heisenberg3,
    "filiform4": lambda: filiform4(),
    "aff1": aff1,
    "sl2": sl2,
}


def kernel_operands(m, seed):
    """Symbol operators: stdrep/_symmetrize of random symbols, lam-shifted
    symbols, an enveloped and pi-graded symbol (fiber states on group
    models, a base envelope otherwise), a momentum-free symbol, symbols of
    lam order K and 1 whose products truncate to zero, and the zero."""
    rng = random.Random(seed)
    K = m.order
    rest = m.base_names + m.group_names

    def envelope(f):
        if m.has_group:
            return m.fiber_state(f)
        return f.with_profile({m.base_names[0]: Fraction(1, 2)})

    momenta = rand_poly(rng, m, m.momentum_names, 2) + m.momentum(m.lie.dim - 1)
    symbols = [
        rand_poly(rng, m, m.gens, 3, nterms=4),
        rand_poly(rng, m, m.gens, 2) + lam_shifted(rand_poly(rng, m, m.gens, 3), 1),
        envelope(rand_poly(rng, m, rest, 1) * momenta).with_pi4(3),
        rand_poly(rng, m, rest, 2),
        lam_shifted(rand_poly(rng, m, m.gens, 2) + momenta, K),
        lam_shifted(momenta * m.momentum(0), 1),
        m.zero(),
    ]
    return [_symmetrize(m, f) for f in symbols]


@pytest.mark.parametrize("K", [3, 4])
@pytest.mark.parametrize("name", sorted(KERNEL_ALGEBRAS))
def test_symbol_product_matches_composed_operator(name, K):
    """The kernel gives _dequantize of the recursive-push composition, value,
    repr, envelope and grade, on every pair of operands, zero products
    included; operands of mixed grades still raise."""
    m = ModelSpace(KERNEL_ALGEBRAS[name](), 2, K)
    assert m.has_group == (name in ("abelian_r", "heis3", "filiform4"))
    ops = kernel_operands(m, 101 + K)
    cancelled = 0
    for a in ops:
        for b in ops:
            expect = _dequantize(m, ref_compose(a, b))
            got = starprod._symbol_product(m, a, b)
            assert_identical(got, expect)
            cancelled += bool(a.terms and b.terms) and got.is_zero()
    assert cancelled >= 1  # the lam^K symbol times the lam^1 symbol
    dressed = ops[2].terms[()]
    mixed = SymbolOp(m, {(): dressed, (m.lie.dim - 1,): dressed.with_pi4(1)})
    for a, b in ((mixed, ops[0]), (ops[0], mixed)):
        with pytest.raises(ValueError):
            _dequantize(m, ref_compose(a, b))
        with pytest.raises(ValueError):
            starprod._symbol_product(m, a, b)


def test_star_std_is_one_base_product_per_left_word(monkeypatch):
    """On heis3, star_std makes exactly one base-product pass per word of
    the left operand stdrep(Nf), each into the one output accumulator;
    compose one per (left word, output word) whose product is nonzero, into
    one accumulator per output word; apply, on symbol and vertical
    operators, one per word whose product is nonzero, all into one
    accumulator; and none of them calls moyal."""
    m = ModelSpace(heisenberg3(), 2, 4)
    rng = random.Random(103)
    n = neumaier_N(m)
    calls = []
    real = starprod._moyal_into

    def counted(acc, *args):
        calls.append(acc)
        return real(acc, *args)

    def no_moyal(*args):
        raise AssertionError("moyal called")

    for _ in range(3):
        f = n.apply(rand_poly(rng, m, m.gens, 4, nterms=4))
        g = n.apply(rand_poly(rng, m, m.gens, 4, nterms=4))
        a, b = stdrep(m, f), stdrep(m, g)
        vert = VerticalOperator(m, a.terms)
        phi = m.fiber_state(rand_poly(rng, m, m.base_names + m.group_names, 2))
        # the nonzero products, from the references one left word at a time
        pairs = [(w1, v) for w1, c1 in a.terms.items()
                 for v in ref_compose(a._new({w1: c1}), b).terms]
        applied = [sum(not ref_apply(op._new({w: c}), phi).is_zero()
                       for w, c in op.terms.items()) for op in (a, vert)]
        monkeypatch.setattr(starprod, "_moyal_into", counted)
        monkeypatch.setattr(starprod, "moyal", no_moyal)
        del calls[:]
        star_std(m, f, g)
        assert len(calls) == len(a.terms) > 1
        assert all(acc is calls[0] for acc in calls)
        del calls[:]
        a.compose(b)
        assert len(calls) == len(pairs) > len(a.terms)
        assert len({id(acc) for acc in calls}) == len({v for _, v in pairs})
        for op, words in zip((a, vert), applied):
            del calls[:]
            op.apply(phi)
            assert len(calls) == words > 1
            assert all(acc is calls[0] for acc in calls)
        monkeypatch.undo()


def test_compose_checks_grades_where_pushes_meet():
    """heis3 at K = 3 with right coefficients d and d pi^(1/4) on the words
    (0, 1) and (2,), d a fiber state: pushing (1,) past them puts both into
    the word (1, 2), (1, 0, 1) through its bracket, which raises as the
    former sums of Funcs did; () and (0,) keep them apart and give the
    former composition's values and grades, its words in the order it
    gave them.  Symbol and vertical operators alike."""
    m = ModelSpace(heisenberg3(), 2, 3)
    d = m.fiber_state(m.var(m.base_names[0]))
    grades = {(): {(0, 1): 0, (2,): 1},
              (0,): {(0, 1): 0, (2,): 1, (0, 0, 1): 0, (0, 2): 1}}
    for cls in (SymbolOp, VerticalOperator):
        right = cls(m, {(0, 1): d, (2,): d.with_pi4(1)})
        for build in (cls.compose, ref_compose):
            with pytest.raises(ValueError, match=r"cannot add pi-grades 0/4 and 1/4"):
                build(cls(m, {(1,): m.one()}), right)
        for word, expect_grades in grades.items():
            left = cls(m, {word: m.one()})
            got, expect = left.compose(right), ref_compose(left, right)
            assert list(got.terms) == list(expect_grades)
            assert set(expect.terms) == set(expect_grades)
            assert {v: c.pi4 for v, c in got.terms.items()} == expect_grades
            for v, c in expect.terms.items():
                assert_identical(got.terms[v], c)


# ---------------------------------------------------------------------------
# reference: one Func per base product, per left word and per table entry
# ---------------------------------------------------------------------------


def ref_symbol_product(model, a, b):
    """The former _symbol_product: each left word's base product built as a
    Func by the rescaled-left loop, its terms added to the output through
    _accumulate, with the envelope and grade of the last nonzero product
    (all must agree)."""
    gens, order = model.gens, model.order
    right = starprod._right_actions(model, b)
    carrier = [c2 for _, c2, _ in right]
    for c2 in carrier[1:]:
        carrier[0]._compatible(c2)
    acc = [{} for _ in range(order + 1)]
    last = None
    for w1, c1 in a.terms.items():
        racc = [{} for _ in range(order + 1)]
        for word, k, mult, h in starprod._leibniz_push(model, w1, right):
            coeffs = h.series.coeffs
            for j, mono in starprod._word_symbol(model, word).items():
                j += k
                if j > order:
                    continue
                unit = _IMAG_POWERS[j % 4]
                if mult != 1:
                    unit = _scale(unit, mult)
                mono = {e: t * unit for e, t in mono.items()}
                for s, p in enumerate(coeffs[: order + 1 - j]):
                    if p.terms:
                        _mul_into(racc[s + j], p.terms, mono)
        rhs = LambdaSeries._trusted(Poly._trusted_orders(gens, racc), order)
        if rhs.is_zero():
            continue
        term = ref_moyal_total_cut(model, c1, carrier[0]._like(rhs))
        if term.is_zero():
            continue
        if last is not None:
            last._compatible(term)
        last = term
        for total, p in zip(acc, term.series.coeffs):
            for e, c in p.terms.items():
                _accumulate(total, e, c)
    series = LambdaSeries._trusted(Poly._trusted_orders(gens, acc), order)
    if series.is_zero():
        return Func._trusted(gens, series, {}, 0)
    return last._like(series)


def ref_symmetrize_by_table(model, f):
    """The former _symmetrize: the coefficients g grouped in one pass over
    f's terms, each inserted through ref_add_table, one Func shift,
    scale and sum per table entry."""
    gens, order = f.gens, f.order
    jidx = [gens.index(n) for n in model.momentum_names]
    groups = {}
    for r, p in enumerate(f.series.coeffs):
        for e, c in p.terms.items():
            multi = tuple(a for a, i in enumerate(jidx) for _ in range(e[i]))
            weight = prod(factorial(e[i]) for i in jidx)
            rest = list(e)
            for i in jidx:
                rest[i] = 0
            g = groups.setdefault(multi, [{} for _ in range(order + 1)])
            g[r][tuple(rest)] = c if weight == 1 else _scale(c, weight)
    op = SymbolOp(model)
    for multi in sorted(groups, key=lambda w: (len(w), w)):
        g = f._like(LambdaSeries._trusted(
            tuple([Poly._trusted(gens, t) for t in groups[multi]]), order))
        ref_add_table(op, _sym_table(model.lie, multi), len(multi), g)
    return op


def summed_inputs(m, seed):
    """Degree-4 symbols over every generator: plain, lam-shifted by 1 and by
    K, enveloped in a base coordinate with a pi-grade, repeated momentum
    letters, a momentum-free symbol and the zero."""
    rng = random.Random(seed)
    base, K = m.base_names, m.order
    j = m.momentum(m.lie.dim - 1)
    return [rand_poly(rng, m, m.gens, 4, nterms=5),
            rand_poly(rng, m, m.gens, 2) + lam_shifted(rand_poly(rng, m, m.gens, 3), 1),
            lam_shifted(rand_poly(rng, m, m.gens, 3), K),
            (rand_poly(rng, m, base, 2) * j * j + lam_shifted(j, 1))
            .with_profile({base[0]: Fraction(1, 2)}).with_pi4(3),
            j * j * j * rand_poly(rng, m, m.gens, 1),
            rand_poly(rng, m, base + m.group_names, 3),
            m.zero()]


@pytest.mark.parametrize("K", range(5))
@pytest.mark.parametrize("name", sorted(KERNEL_ALGEBRAS))
def test_summed_products_match_one_func_per_product(name, K):
    """moyal and moyal_commutator against the rescaled-left loop,
    _symmetrize against ref_add_table and _symbol_product against one
    moyal Func per left word: equal value, repr, hash, envelope and grade,
    zero results included; operands of mixed grades raise in both."""
    m = ModelSpace(KERNEL_ALGEBRAS[name](), 2, K)
    fs = summed_inputs(m, 113 + K)
    for f in fs:
        got, expect = _symmetrize(m, f), ref_symmetrize_by_table(m, f)
        assert list(got.terms) == list(expect.terms)
        for w, c in expect.terms.items():
            assert_identical(got.terms[w], c)
        for g in fs:
            fg, gf = ref_moyal_total_cut(m, f, g), ref_moyal_total_cut(m, g, f)
            assert_identical(moyal(m, f, g), fg)
            assert_identical(moyal_commutator(m, f, g), fg - gf)
    ops = kernel_operands(m, 127 + K) + [_symmetrize(m, f) for f in fs[:2]]
    for a in ops:
        for b in ops:
            assert_identical(starprod._symbol_product(m, a, b), ref_symbol_product(m, a, b))
    dressed = next(iter(ops[2].terms.values()))
    mixed = SymbolOp(m, {(): dressed, (m.lie.dim - 1,): dressed.with_pi4(1)})
    for a, b in ((mixed, ops[0]), (ops[0], mixed)):
        with pytest.raises(ValueError):
            ref_symbol_product(m, a, b)
        with pytest.raises(ValueError):
            starprod._symbol_product(m, a, b)


# a constant antisymmetric Poisson matrix on a 4-dimensional base that
# couples every coordinate, with entries other than 0 and +-1
NONCANONICAL_LAM = [[0, 2, 0, Fraction(-1, 3)], [-2, 0, 1, 0],
                    [0, -1, 0, 2], [Fraction(1, 3), 0, -2, 0]]


@pytest.mark.parametrize("K", [3, 4])
def test_moyal_commutator_is_twice_the_odd_levels(K):
    """On a 4-dimensional base with a non-canonical Poisson matrix, at odd
    and even K, moyal_commutator(f, g) is moyal(f, g) - moyal(g, f), value,
    repr, envelope and grade, on random symbols."""
    m = ModelSpace(aff1(), 4, K, poisson_matrix=NONCANONICAL_LAM)
    rng = random.Random(131 + K)
    base = m.base_names
    fs = [rand_poly(rng, m, m.gens, 4, nterms=5) for _ in range(3)]
    fs += [lam_shifted(rand_poly(rng, m, base, 4, nterms=4), 1).with_pi4(2),
           rand_poly(rng, m, base, 3).with_profile({base[1]: Fraction(1, 3)}),
           m.zero()]
    for f in fs:
        for g in fs:
            got = moyal_commutator(m, f, g)
            assert_identical(got, moyal(m, f, g) - moyal(m, g, f))
            assert_identical(got, ref_moyal_total_cut(m, f, g) - ref_moyal_total_cut(m, g, f))
    # the odd levels above the first take part, so a wrong parity would show
    f, g = (rand_poly(rng, m, base, 4, nterms=4) for _ in range(2))
    assert not moyal_commutator(m, f, g).series.coeffs[3].is_zero()


@pytest.mark.parametrize("name", ["heis3", "filiform4", "aff1", "sl2"])
def test_compose_matches_recursive_push(name):
    """SymbolOp.compose on the split table gives the recursive push's
    terms, with F = i lam on symbol operators and F = 1 on vertical
    operators."""
    m = ModelSpace(KERNEL_ALGEBRAS[name](), 2, 3)
    ops = kernel_operands(m, 107)
    for a in ops:
        for b in ops:
            assert_same_terms(a.compose(b).terms, ref_compose(a, b).terms)
    if not m.has_group:
        return
    rng = random.Random(109)
    surface = m.base_names + m.group_names
    words = pbw_words(m.lie.dim, 3)
    verticals = [
        VerticalOperator(m, {w: lam_shifted(rand_poly(rng, m, surface, 2), len(w) % 2)
                             for w in rng.sample(words, 6)}),
        VerticalOperator(m, {w: m.fiber_state(rand_poly(rng, m, surface, 1)).with_pi4(1)
                             for w in rng.sample(words, 4)}),
        VerticalOperator.fundamental(m, 0),
        VerticalOperator.multiplication(m, m.var(m.group_names[-1])),
        VerticalOperator(m),
    ]
    for a in verticals:
        for b in verticals:
            got, expect = a.compose(b), ref_compose(a, b)
            assert type(got) is VerticalOperator
            assert_same_terms(got.terms, expect.terms)


def ref_splits(word):
    """The former split table of a sorted word, built letter by letter: each
    letter's n copies add the choices of moving k of them onto the
    coefficient, C(n, k) times."""
    counts = {}
    for a in word:
        counts[a] = counts.get(a, 0) + 1
    table = (((), (), 1),)
    for a, n in counts.items():
        table = tuple((sub + (a,) * k, rest + (a,) * (n - k), mult * comb(n, k))
                      for sub, rest, mult in table for k in range(n + 1))
    return table


@pytest.mark.parametrize("name", ["heis3", "filiform4", "aff1"])
def test_splits_match_letter_recursion(name):
    """The split table read from the multi-index splits of the word's
    letter counts holds the letter recursion's splits as a multiset, for
    every sorted word of length up to 5, and is memoised in pbw_tables."""
    lie = KERNEL_ALGEBRAS[name]()
    words = pbw_words(lie.dim, 5)
    for word in words:
        got = starprod._splits(lie, word)
        assert sorted(got) == sorted(ref_splits(word))
        assert starprod._splits(lie, word) is got
    if name == "heis3":
        assert len(words) == 56


def pruning_operators(m, omega):
    """N, N^-1, the left-invariant fields, the right momentum operators and
    the involution's inverse step operator P^-1."""
    ops = [neumaier_N(m), neumaier_N_inverse(m)]
    ops += [m.left_invariant_field(a) for a in range(m.lie.dim)]
    ops += [right_momentum_operator(m, a) for a in range(m.lie.dim)]
    ops.append(involution._involution_steps(m, omega)[1])
    return ops


def enveloped_inputs(m, op, rng):
    """A random input enveloped on the first coordinate op differentiates
    and one enveloped on the first coordinate it does not, where those
    exist."""
    touched = {i for t in op.tables for d in t for i, k in enumerate(d) if k}
    on = [i for i in range(len(m.gens)) if i in touched][:1]
    off = [i for i in range(len(m.gens)) if i not in touched][:1]
    return [lam_shifted(rand_poly(rng, m, m.gens, 3, nterms=4), i % 2)
            .with_profile({m.gens[i]: Fraction(1, 2 + i)}) for i in on + off]


@pytest.mark.parametrize("K", [3, 4])
def test_apply_pruned_by_degree_matches_full_loop(K):
    """apply with the entries picked by the input's degrees gives the full
    loop's value, repr, hash, envelope and grade, on plain inputs of every
    degree up to K + 1, the call stream's inputs, star_std outputs, inputs
    whose degree in a coordinate passes every entry's, lam-shifted and
    pi-graded inputs, inputs enveloped on a coordinate the operator
    differentiates and on one it does not, and the zero; for the zero
    operator and operators of d = 0 entries only too; and apply_sum over
    all the operators gives the sum of the full loops."""
    m = ModelSpace(heisenberg3(), 2, K)
    rng = random.Random(113 + K)
    rest = m.base_names + m.group_names
    inputs = [m.one(), m.momentum(0), m.var(m.group_names[0]) * m.momentum(1)]
    inputs += [rand_poly(rng, m, m.gens, deg, nterms=4) for deg in range(1, K + 2)]
    inputs += [lam_shifted(rand_poly(rng, m, m.gens, 3), 1).with_pi4(2),
               m.fiber_state(rand_poly(rng, m, rest, 2) * m.momentum(2)),
               rand_poly(rng, m, m.base_names, 2).with_profile({m.base_names[0]: 1}),
               m.zero()]
    inputs += stream_inputs(m, 41 + K)
    inputs += [star_std(m, rand_poly(rng, m, m.gens, 2), rand_poly(rng, m, m.gens, 2))
               for _ in range(2)]
    inputs += [monomial(m, [name], [2 * K + 2]) * rand_poly(rng, m, m.gens, 2)
               for name in (m.group_names[0], m.momentum_names[1], m.base_names[0])]
    ops = pruning_operators(m, gaussian_base_weight(m, 1))
    assert max(sum(d) for op in ops for t in op.tables for d in t) > K
    origin = (0,) * len(m.gens)
    ops += [DiffOperator.zero(m.gens, K),
            DiffOperator.multiplication(rand_poly(rng, m, m.gens, 2).series.coeffs[0], K),
            DiffOperator(m.gens, K, [{origin: Poly.one(m.gens)}, {},
                                     {origin: Poly.var(m.gens, m.base_names[1])}])]
    for op in ops:
        for f in inputs + enveloped_inputs(m, op, rng):
            assert_identical(op.apply(f), ref_apply_unpruned(op, f))
    for f in inputs:
        want = ref_apply_unpruned(ops[0], f)
        for op in ops[1:]:
            want = want + ref_apply_unpruned(op, f)
        assert_identical(diffop.apply_sum([(op, f) for op in ops]), want)


def test_apply_asks_for_no_partial_above_the_input_degree(monkeypatch):
    """N applied to a momentum at K = 4 builds no Partials for it and asks
    for none; an enveloped input has no cut."""
    m = ModelSpace(heisenberg3(), 2, 4)
    n = neumaier_N(m)
    asked, built = [], []
    missing, init = Partials.__missing__, Partials.__init__

    def recorded(self, d):
        asked.append(d)
        return missing(self, d)

    def recorded_init(self, f):
        built.append(f)
        init(self, f)

    monkeypatch.setattr(Partials, "__missing__", recorded)
    monkeypatch.setattr(Partials, "__init__", recorded_init)
    plain = m.momentum(0) * 1
    assert not n.apply(plain).is_zero()
    assert built == [] and asked == []
    with pytest.raises(AttributeError):
        plain._partials
    n.apply(m.fiber_state(m.momentum(0)))
    assert max(map(sum, asked)) > 1


# ---------------------------------------------------------------------------
# reference: apply and moyal cut by total degree only
# ---------------------------------------------------------------------------


def ref_moyal_total_cut(model, f, g):
    """The former moyal: every entry (alpha, beta) of a level read from the
    operands' Partials, the levels cut at their total degrees only."""
    order = f.order
    pf, pg = f.partials(), g.partials()
    acc = [{} for _ in range(order + 1)]
    for r, level in enumerate(moyal_table(model, order)):
        if r > pf.top or r > pg.top:
            break
        for (alpha, beta), c in level.items():
            for s, left in enumerate(pf[alpha][: order + 1 - r]):
                if left:
                    left = {e: v * c for e, v in left.items()}
                    for t, right in enumerate(pg[beta][: order + 1 - r - s]):
                        if right:
                            _mul_into(acc[r + s + t], left, right)
    series = LambdaSeries._trusted(
        tuple([Poly._trusted_sums(model.gens, t) for t in acc]), order)
    return Func._product(series, f, g)


def stream_inputs(m, seed):
    """Degree-4 inputs drawn like the benchmark's call stream (six terms,
    products of up to four random generators): over all generators and over
    the base, lam-shifted with a pi-grade, enveloped on the group and on the
    base, and the zero."""
    rng = random.Random(seed)

    def stream(gens):
        out = m.zero()
        for _ in range(6):
            t = m.one()
            for _ in range(rng.randint(0, 4)):
                t = t * m.var(rng.choice(gens))
            out = out + t * GaussRational(rng.randint(-3, 3), rng.randint(-1, 1))
        return out

    rest = m.base_names + m.group_names
    return [stream(m.gens), stream(m.gens), stream(m.base_names), stream(rest),
            lam_shifted(stream(m.gens), 1).with_pi4(2),
            m.fiber_state(stream(rest)),
            stream(m.base_names).with_profile({m.base_names[0]: 1}),
            m.zero()]


def record_beyond_bound(monkeypatch):
    """For each Partials.__missing__ call, whether its multi-index exceeds
    the input's degree in some coordinate (Partials.bound)."""
    beyond = []
    missing = Partials.__missing__

    def recorded(self, d):
        beyond.append(any(k > b for k, b in zip(d, self.bound)))
        return missing(self, d)

    monkeypatch.setattr(Partials, "__missing__", recorded)
    return beyond


def test_apply_and_moyal_ask_for_no_partial_beyond_a_coordinate_degree(monkeypatch):
    """On heis3 at K = 4, apply (N, N^-1, the fields, R_a and P^-1) and
    moyal ask Partials for no multi-index above the input's degree in a
    coordinate, while the former loops do."""
    m = ModelSpace(heisenberg3(), 2, 4)
    inputs = stream_inputs(m, 29)
    ops = pruning_operators(m, gaussian_base_weight(m, 1))
    beyond = record_beyond_bound(monkeypatch)
    for f in inputs:
        for op in ops:
            op.apply(f)
        for g in inputs:
            moyal(m, f, g)
    assert beyond and not any(beyond)
    for f in inputs:
        for op in ops:
            ref_apply_unpruned(op, f)
    assert any(beyond)
    del beyond[:]
    for f in inputs:
        for g in inputs:
            ref_moyal_total_cut(m, f, g)
    assert any(beyond)


def test_plain_apply_takes_no_derivative_beyond_a_term_degree(monkeypatch):
    """On heis3 at K = 4, apply (N, N^-1, the fields, R_a and P^-1)
    differentiates each term x^e of a plain input by the entries d <= e
    only: every perm(e_i, d_i) it takes is nonzero."""
    m = ModelSpace(heisenberg3(), 2, 4)
    inputs = [f for f in stream_inputs(m, 37) if not f.profile]
    ops = pruning_operators(m, gaussian_base_weight(m, 1))
    taken = []

    def recorded(n, k):
        taken.append(n >= k)
        return perm(n, k)

    monkeypatch.setattr(diffop, "perm", recorded)
    for f in inputs:
        for op in ops:
            op.apply(f)
    assert taken and all(taken)


def test_apply_and_moyal_cut_per_coordinate_match_the_former_loops():
    m = ModelSpace(heisenberg3(), 2, 4)
    inputs = stream_inputs(m, 31)
    for op in pruning_operators(m, gaussian_base_weight(m, 1)):
        for f in inputs:
            assert_identical(op.apply(f), ref_apply_unpruned(op, f))
    for f in inputs:
        for g in inputs:
            assert_identical(moyal(m, f, g), ref_moyal_total_cut(m, f, g))


# ---------------------------------------------------------------------------
# reference: every word of an operator applied letter by letter
# ---------------------------------------------------------------------------


def ref_apply(op, phi):
    """The former SymbolOp.apply: the fields of each word applied to phi in
    turn, no suffix shared between words, and the factor (i lam)^{|w|} for
    the symbol calculus only."""
    model = op.model
    fields = [model.left_invariant_field(a) for a in range(model.lie.dim)]
    out = phi.zero_like()
    for word, c in op.terms.items():
        val = phi
        for a in reversed(word):
            val = fields[a].apply(val)
        if type(op) is SymbolOp:
            val = _mul_ilam(val, len(word))
        out = out + moyal(model, c, val)
    return out


def test_apply_matches_per_word_loop():
    """apply through word_actions gives the per-word loop's value, repr,
    envelope and grade, on stdrep output and on vertical operators, with
    words up to length 3 and lam-shifted, enveloped and pi-graded
    coefficients and states."""
    m = ModelSpace(heisenberg3(), 2, 3)
    rng = random.Random(71)
    base, gnames = m.base_names, m.group_names
    surface = base + gnames
    words = pbw_words(m.lie.dim, 3)

    def dress(f):
        return f.with_profile({base[0]: Fraction(1, 3)}).with_pi4(-2)

    symbols = [rand_poly(rng, m, m.gens, 3, nterms=6),
               rand_poly(rng, m, m.gens, 2) + lam_shifted(rand_poly(rng, m, m.gens, 3), 1),
               dress(rand_poly(rng, m, m.gens, 3, nterms=5))]
    ops = [stdrep(m, f) for f in symbols]
    ops.append(VerticalOperator(m, {w: lam_shifted(rand_poly(rng, m, surface, 2), len(w) % 2)
                                    for w in words}))
    ops.append(VerticalOperator(m, {w: dress(rand_poly(rng, m, surface, 1))
                                    for w in rng.sample(words, 8)}))
    ops.append(VerticalOperator.fundamental(m, 0).compose(
        VerticalOperator.multiplication(m, m.var(gnames[2]))))
    states = [m.fiber_state(rand_poly(rng, m, surface, 2)),
              lam_shifted(m.fiber_state(rand_poly(rng, m, surface, 1)), 1).with_pi4(1),
              m.fiber_state(m.one())]
    for op in ops:
        for phi in states:
            assert_identical(op.apply(phi), ref_apply(op, phi))
    assert {len(w) for op in ops for w in op.terms} == {0, 1, 2, 3}
    assert any(not op.apply(phi).is_zero() for op in ops[:3] for phi in states)


def top_order(f):
    """The highest lam order at which f has a term."""
    return max(r for r, p in enumerate(f.series.coeffs) if p.terms)


def test_word_calculus_matches_the_references_at_depth():
    """heis3 at K = 6: compose, apply and _symbol_product against
    ref_compose, ref_apply and ref_symbol_product, on symbols of momentum
    degree 4 and a lam-shifted vertical operator, each result reaching
    lam^4 or beyond."""
    m = ModelSpace(heisenberg3(), 2, 6)
    rng = random.Random(61)
    fiber = m.base_names + m.group_names
    j1, j2 = m.momentum(0), m.momentum(1)
    a = stdrep(m, rand_poly(rng, m, fiber, 1) * j1 * j1 * j2 * j2 + j1 * j2)
    b = stdrep(m, rand_poly(rng, m, fiber, 2) * j2 * j2 * j1 * j1 + j2)
    got, expect = a.compose(b), ref_compose(a, b)
    assert_same_terms(got.terms, expect.terms)
    assert max(map(top_order, got.terms.values())) >= 4
    product = starprod._symbol_product(m, a, b)
    assert_identical(product, ref_symbol_product(m, a, b))
    assert top_order(product) >= 4
    vert = VerticalOperator(m, {w: lam_shifted(rand_poly(rng, m, fiber, 1), 4)
                                for w in pbw_words(m.lie.dim, 2)})
    phi = m.fiber_state(rand_poly(rng, m, fiber, 2))
    for op in (a, b, vert):
        out = op.apply(phi)
        assert_identical(out, ref_apply(op, phi))
        assert top_order(out) >= 4


def test_calculi_do_not_mix():
    """The generator factor is the operator's type: the arithmetic keeps the
    type, operators of different types do not compose, and vertical
    operators need group coordinates."""
    m = ModelSpace(heisenberg3(), 2, 3)
    sym = stdrep(m, m.momentum(0) * m.momentum(1))
    vert = VerticalOperator.fundamental(m, 0)
    for a, b in ((sym, vert), (vert, sym)):
        with pytest.raises(ValueError, match="cannot mix calculi"):
            a.compose(b)
    for op in (sym, vert):
        for out in (op.compose(op), op + op, op - op, op.scale(GaussRational(2))):
            assert type(out) is type(op)
    for out in (vert.lam_shift(1), vert.lam_slice(0), vert.adjoint()):
        assert type(out) is VerticalOperator
    flat = ModelSpace(heisenberg3(), 2, 3, group_level=False)
    for build in (VerticalOperator, VerticalOperator.identity,
                  lambda model: VerticalOperator.fundamental(model, 0)):
        with pytest.raises(ValueError, match="vertical operators need group coordinates"):
            build(flat)


# ---------------------------------------------------------------------------
# right multiplication by a momentum against star_G
# ---------------------------------------------------------------------------


RIGHT_MOMENTUM_MODELS = {
    "heis3": heisenberg3,
    "aff1": aff1,
    "sl2": sl2,
    "so3": so3,
    "abelian2": lambda: abelian_lie(2),
}


def right_momentum_inputs(m, seed):
    """Momentum degree up to K + 2, so that a missing derivative order
    shows; an envelope (fiber on group models, base otherwise), a pi-grade,
    a lam shift and the plain zero."""
    rng = random.Random(seed)
    K = m.order
    rest = m.base_names + m.group_names
    top = m.one()
    for _ in range(K + 2):
        top = top * m.var(rng.choice(m.momentum_names))
    momenta = rand_poly(rng, m, m.momentum_names, K + 2, nterms=3) + top
    plain = rand_poly(rng, m, m.gens, K + 2, nterms=4)
    if m.has_group:
        enveloped = m.fiber_state(rand_poly(rng, m, rest, 2)) * momenta
    else:
        enveloped = (rand_poly(rng, m, rest, 2) * momenta).with_profile(
            {m.base_names[0]: Fraction(1, 2)})
    return [
        plain,
        enveloped,
        (rand_poly(rng, m, m.gens, 3) + momenta).with_pi4(3),
        lam_shifted(rand_poly(rng, m, rest, 2) * momenta, 1),
        lam_shifted(enveloped, K).with_pi4(-2),
        m.zero(),
    ]


@pytest.mark.parametrize("K", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(RIGHT_MOMENTUM_MODELS))
def test_right_momentum_operator_matches_star_G(name, K):
    m = ModelSpace(RIGHT_MOMENTUM_MODELS[name](), 2, K)
    assert m.has_group == (name in ("heis3", "abelian2"))
    jidx = [m.gens.index(n) for n in m.momentum_names]
    fs = right_momentum_inputs(m, 71 + K)
    assert max(f.series.coeffs[0].degree_in(m.momentum_names) for f in fs) == K + 2
    for a in range(m.lie.dim):
        op = right_momentum_operator(m, a)
        if not m.has_group:
            # every order of derivative in the momenta costs one lam
            assert all(sum(d[i] for i in jidx) <= r
                       for r, table in enumerate(op.tables) for d in table)
        for f in fs:
            assert_same(op.apply(f), star_G(m, f, m.momentum(a)))
        # a zero input keeps its envelope and grade through DiffOperator.apply,
        # while star_G's zero carries none; quantized_koszul stores no zero
        zero = fs[1].zero_like().with_profile(fs[1].profile).with_pi4(2)
        got = op.apply(zero)
        assert got.is_zero() and (got.profile, got.pi4) == (zero.profile, 2)
        assert star_G(m, zero, m.momentum(a)).is_zero()


def test_quantized_koszul_makes_no_star_G_call(monkeypatch):
    """The first term of quantized_koszul applies the cached operators:
    no star_G call, and a second call reuses the same operator objects."""
    m = ModelSpace(heisenberg3(), 2, 3)
    cfg = ReductionConfig(m, Fraction(1, 2))
    rng = random.Random(73)
    x = SuperObservable(m, {idx: rand_poly(rng, m, m.gens, 3)
                            for idx in ((0, 1), (0, 2), (1, 2))})
    calls = []

    def counting(*args):
        calls.append(args)
        return star_G(*args)

    monkeypatch.setattr(starprod, "star_G", counting)
    monkeypatch.setattr(sys.modules["redstar.koszul"], "star_G", counting)
    first = quantized_koszul(cfg, x)
    assert calls == []
    ops = [m._field_cache[("right_momentum", a)] for a in range(m.lie.dim)]
    second = quantized_koszul(cfg, x)
    assert calls == []
    for a, op in enumerate(ops):
        assert m._field_cache[("right_momentum", a)] is op
        assert right_momentum_operator(m, a) is op
    assert first == second and not first.is_zero()


# ---------------------------------------------------------------------------
# the Gutt right multiplication and the left-invariant fields from psi
# ---------------------------------------------------------------------------


def ref_gutt_right_operator(model, a):
    """S_a = sum_{|beta| <= K} p_beta d_J^beta with S_a(f) = f * J_a, read
    from the PBW tables: q_alpha = (J^alpha * J_a) / alpha! is the sum over
    v in _sym_table(alpha), u in _normal_order(v + (a,)) and beta in
    ref_inverse_table(u) of s_v r_u t_beta F^{|alpha|+1-|beta|} J^beta, and
    p_alpha = sum_{beta <= alpha} q_beta (-J)^{alpha-beta}/(alpha-beta)!
    inverts the Taylor relation S_a(J^alpha) = sum_beta p_beta
    alpha!/(alpha-beta)! J^{alpha-beta}."""
    lie, gens, order = model.lie, model.gens, model.order
    jidx = [gens.index(n) for n in model.momentum_names]

    def expo(word):
        e = [0] * len(gens)
        for b in word:
            e[jidx[b]] += 1
        return tuple(e)

    q = {}
    for alpha in pbw_words(lie.dim, order):
        acc = [{} for _ in range(order + 1)]
        for v, s in _sym_table(lie, alpha).items():
            for u, r in _normal_order(lie, v + (a,)).items():
                for beta, t in ref_inverse_table(lie, u).items():
                    k = len(alpha) + 1 - len(beta)
                    if k <= order:
                        e, c = expo(beta), s * r * t * _IMAG_POWERS[k % 4]
                        acc[k][e] = acc[k][e] + c if e in acc[k] else c
        q[expo(alpha)] = acc
    tables = [{} for _ in range(order + 1)]
    for ea in q:
        for eb, qb in q.items():
            gamma = tuple(map(sub, ea, eb))
            if min(gamma) < 0:
                continue
            weight = Poly(gens, {gamma: GaussRational(Fraction(
                (-1) ** sum(gamma), prod(map(factorial, gamma))))})
            for r, terms in enumerate(qb):
                if terms:
                    tab = tables[r]
                    tab[ea] = tab.get(ea, Poly.zero(gens)) + Poly(gens, terms) * weight
    return DiffOperator(gens, order, tables)


def ref_left_invariant_field(model, a):
    """X_a = d/dg_a + (1/2) C_ba^c g_b d/dg_c, exact in class <= 2."""
    coeffs = {model.group_names[a]: Poly.one(model.gens)}
    for b in range(model.lie.dim):
        for c in range(model.lie.dim):
            v = model.lie.c(b, a, c)
            if v:
                name = model.group_names[c]
                add = Poly.var(model.gens, model.group_names[b]) * GaussRational(
                    Fraction(v, 2))
                coeffs[name] = coeffs.get(name, Poly.zero(model.gens)) + add
    return DiffOperator.first_order(model.gens, model.order, coeffs)


PSI_MODELS = {
    "heis3": lambda K: ModelSpace(heisenberg3(), 2, K, group_level=False),
    "heis3_group": lambda K: ModelSpace(heisenberg3(), 2, K),
    "aff1": lambda K: ModelSpace(aff1(), 2, K),
    "sl2": lambda K: ModelSpace(sl2(), 2, K),
    "so3": lambda K: ModelSpace(so3(), 2, K),
    "abelian2": lambda K: ModelSpace(abelian_lie(2), 2, K),
}


def assert_same_operator(got, expect):
    assert got == expect
    assert repr(got) == repr(expect)


@pytest.mark.parametrize("K", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(PSI_MODELS))
def test_psi_series_matches_pbw_tables(monkeypatch, name, K):
    """S_a, R_a and, on group models of class <= 2, X_a from the psi-series
    equal the PBW-table construction and the two-term field formula."""
    m, ref = PSI_MODELS[name](K), PSI_MODELS[name](K)
    assert m.has_group == (name in ("heis3_group", "abelian2"))
    got = []
    for a in range(m.lie.dim):
        assert_same_operator(starprod._gutt_right_operator(m, a),
                             ref_gutt_right_operator(ref, a))
        got.append(right_momentum_operator(m, a))
        if m.has_group:
            assert_same_operator(m.left_invariant_field(a),
                                 ref_left_invariant_field(ref, a))
    monkeypatch.setattr(starprod, "_gutt_right_operator", ref_gutt_right_operator)
    for a, op in enumerate(got):
        assert_same_operator(op, right_momentum_operator(ref, a))


@pytest.mark.parametrize("name", sorted(PSI_MODELS))
def test_right_momentum_operator_reads_no_pbw_table(name):
    """Every R_a, fields and N-conjugation included, is built without the
    memoised PBW tables."""
    m = PSI_MODELS[name](3)
    for a in range(m.lie.dim):
        right_momentum_operator(m, a)
    assert m.lie.pbw_tables == {}
    ref_gutt_right_operator(m, 0)
    assert m.lie.pbw_tables


# ---------------------------------------------------------------------------
# the resolvent summed term by term
# ---------------------------------------------------------------------------


RESOLVE_MODELS = {
    "abelian1-K4": lambda: ModelSpace(abelian_lie(1), 2, 4),
    "heis3-K4": lambda: ModelSpace(heisenberg3(), 2, 4),
    "aff1-K4": lambda: ModelSpace(aff1(), 2, 4),
    "aff1-K2": lambda: ModelSpace(aff1(), 2, 2),
}


@pytest.mark.parametrize("name", sorted(RESOLVE_MODELS))
@pytest.mark.parametrize("kappa", [0, Fraction(1, 2), [Fraction(1, 2), 1]],
                         ids=["k0", "khalf", "kseries"])
def test_resolve_matches_neumann_iteration(name, kappa):
    m = RESOLVE_MODELS[name]()
    cfg = ReductionConfig(m, kappa)
    rng = random.Random(19)
    momenta = m.one()
    for k in range(4):
        momenta = momenta * m.momentum(k % m.lie.dim)
    inputs = [rand_poly(rng, m, m.gens, 4, nterms=4) for _ in range(3)]
    inputs.append(momenta * rand_poly(rng, m, m.base_names + m.group_names, 2))
    inputs.append(lam_shifted(rand_poly(rng, m, m.gens, 3), 1))
    inputs.append(m.zero())
    inputs.append(rand_poly(rng, m, m.base_names + m.group_names, 3))
    for f in inputs:
        assert_same(_neumann_resolve(cfg, f), ref_neumann_resolve(cfg, f))
    if name == "aff1-K2" and kappa != 0:
        # the last term of the series, (-P)^K f, is nonzero here
        last = inputs[3]
        for _ in range(m.order):
            last = _perturbation(cfg, last)
        assert not last.is_zero()


HOMOTOPY_MODELS = {
    "heis3-K4": lambda: ModelSpace(heisenberg3(), 2, 4),
    "aff1-K4": lambda: ModelSpace(aff1(), 2, 4),
    "abelian2-K4": lambda: ModelSpace(abelian_lie(2), 2, 4),
    "aff1-K2": lambda: ModelSpace(aff1(), 2, 2),
}


@pytest.mark.parametrize("name", sorted(HOMOTOPY_MODELS))
@pytest.mark.parametrize("kappa", [0, Fraction(1, 2), [Fraction(1, 2), 1]],
                         ids=["k0", "khalf", "kseries"])
def test_deformed_homotopy_matches_neumann_iteration(name, kappa):
    m = HOMOTOPY_MODELS[name]()
    cfg = ReductionConfig(m, kappa)
    rng = random.Random(23)
    depth = 0
    for k in range(m.lie.dim + 1):
        comps = {idx: rand_poly(rng, m, m.gens, 4, nterms=4)
                 for idx in combinations(range(m.lie.dim), k)}
        x = SuperObservable(m, comps)
        got = deformed_homotopy(cfg, x, k)
        expect = ref_deformed_homotopy(cfg, x, k)
        assert got == expect
        assert repr(got) == repr(expect)
        if k:
            term = x
            for j in range(1, m.order + 1):
                term = homotopy_perturbation(cfg, term, k)
                if term.is_zero():
                    break
                depth = max(depth, j)
    # P acts on every model; on aff1 at K=2 the last term (-P)^K x is nonzero
    assert depth >= (m.order if name == "aff1-K2" else 1)


def test_deformed_homotopy_keeps_the_last_term():
    """On aff1 at K=2 and kappa=0, h_1 (-P)^K x is nonzero for this input, so
    a resolvent one term short would change the result."""
    m = ModelSpace(aff1(), 2, 2)
    cfg = ReductionConfig(m, 0)
    rng = random.Random(0)
    x = SuperObservable(m, {(a,): rand_poly(rng, m, m.gens, 5, nterms=5)
                            for a in range(m.lie.dim)})
    last = x
    for _ in range(m.order):
        last = homotopy_perturbation(cfg, last, 1)
    assert not homotopy_h(m, last, 1).is_zero()
    got = deformed_homotopy(cfg, x, 1)
    expect = ref_deformed_homotopy(cfg, x, 1)
    assert got == expect
    assert repr(got) == repr(expect)


# ---------------------------------------------------------------------------
# the shortcuts of star_G, the resolvent and the quantized differential
# ---------------------------------------------------------------------------


def ref_star_G(model, f, g):
    """The Hermitian product with N applied to every operand on group models,
    and the symmetrization product of every pair on momentum-level models."""
    if not model.has_group:
        return _dequantize(model, _symmetrize(model, f).compose(_symmetrize(model, g)))
    n = neumaier_N(model)
    return neumaier_N_inverse(model).apply(star_std(model, n.apply(f), n.apply(g)))


def ref_quantized_koszul(cfg, x):
    """quantized_koszul with its structure-constant loop run on every input,
    and the R_a term as the former SuperObservable sum of one apply per
    component of each ins(e^a)x."""
    model = cfg.model
    out = SuperObservable(model)
    for a in range(model.lie.dim):
        out = out + ref_insert_basis(x, a).map(right_momentum_operator(model, a).apply)
    half_i = IMAG * GaussRational(Fraction(1, 2))
    for a in range(model.lie.dim):
        for b in range(model.lie.dim):
            double = ref_insert_basis(ref_insert_basis(x, b), a)
            if double.is_zero():
                continue
            for c in range(model.lie.dim):
                v = model.lie.c(a, b, c)
                if v:
                    out = out + ref_wedge_basis(double, c).map(
                        lambda f, v=v: (f * (half_i * GaussRational(v))).shift(1))
    mod_term = ref_insert_covector(x, model.lie.modular)
    if not mod_term.is_zero():
        out = out + mod_term.scale((cfg.kappa * IMAG).shift(1))
    return out


def filiform4():
    """[e1, e2] = e3, [e1, e3] = e4: nilpotent of class three."""
    return LieAlgebraData(4, {(0, 1, 2): 1, (1, 0, 2): -1,
                              (0, 2, 3): 1, (2, 0, 3): -1}, "n4")


SHORTCUT_MODELS = {
    "heis3": heisenberg3,
    "n4": filiform4,
    "abelian2": lambda: abelian_lie(2),
    "aff1": aff1,
    "sl2": sl2,
    "so3": so3,
}


def shortcut_inputs(m, seed):
    """(momentum-free, momentum-dependent, zero) operands: envelopes (fiber
    states on group models, a base envelope otherwise), pi-grades and lam
    shifts on both sides, and a zero with and without an envelope."""
    rng = random.Random(seed)
    rest = m.base_names + m.group_names

    def envelope(f):
        if m.has_group:
            return m.fiber_state(f)
        return f.with_profile({m.base_names[0]: Fraction(1, 2)})

    momenta = rand_poly(rng, m, m.momentum_names, 2) + m.momentum(m.lie.dim - 1)
    free = [
        rand_poly(rng, m, rest, 3),
        lam_shifted(rand_poly(rng, m, rest, 2), 1).with_pi4(2),
        envelope(rand_poly(rng, m, rest, 2)),
        m.one(),
    ]
    mixed = [
        rand_poly(rng, m, m.gens, 3) + m.momentum(0),
        envelope(rand_poly(rng, m, rest, 1) * momenta).with_pi4(-1),
    ]
    zeros = [m.zero(), free[2].zero_like().with_profile(free[2].profile).with_pi4(3)]
    return free, mixed, zeros


@pytest.mark.parametrize("K", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(SHORTCUT_MODELS))
def test_star_G_shortcuts_match_full_product(name, K):
    m = ModelSpace(SHORTCUT_MODELS[name](), 2, K)
    assert m.has_group == (name in ("heis3", "n4", "abelian2"))
    free, mixed, zeros = shortcut_inputs(m, 83 + K)
    assert all(m.is_momentum_free(f) for f in free + zeros)
    assert not any(m.is_momentum_free(f) for f in mixed)
    pairs = [(f, g) for f in free for g in free]
    pairs += [(f, g) for f in free for g in mixed]
    pairs += [(g, f) for f in free for g in mixed]
    pairs += [(z, f) for z in zeros for f in free + mixed]
    pairs += [(f, z) for z in zeros for f in free + mixed]
    for f, g in pairs:
        assert_same(star_G(m, f, g), ref_star_G(m, f, g))
    # the base product alone is not the product once a momentum enters
    assert any(star_G(m, f, g) != moyal(m, f, g) for f in mixed for g in mixed)


@pytest.mark.parametrize("K", [2, 3, 4])
@pytest.mark.parametrize("name", ["abelian2", "heis3", "n4"])
def test_normalizer_fixes_momentum_free_functions(name, K):
    m = ModelSpace(SHORTCUT_MODELS[name](), 2, K)
    free, mixed, zeros = shortcut_inputs(m, 89 + K)
    for op in (neumaier_N(m), neumaier_N_inverse(m)):
        for f in free + zeros:
            assert_same(op.apply(f), f)
    assert any(neumaier_N(m).apply(f) != f for f in mixed)


# ---------------------------------------------------------------------------
# the normalizer pair from left-composed powers and lam-parity
# ---------------------------------------------------------------------------


def ref_exp(op):
    """exp(op) with each power composed on the right, A^k = A^(k-1) o A."""
    out = power = DiffOperator.identity(op.gens, op.order)
    for k in range(1, op.order + 1):
        power = power.compose(op)
        if power.is_zero():
            break
        out = out + power * GaussRational(Fraction(1, factorial(k)))
    return out


def ref_normalizer(model, sign):
    """exp(sign (lam/2i)(Delta_0 - Delta_ver)) by ref_exp, the exponent built
    anew for each sign: N for sign 1, N^-1 for sign -1."""
    gens, order = model.gens, model.order
    delta = DiffOperator.zero(gens, order)
    for a in range(model.lie.dim):
        dj = DiffOperator.partial(gens, model.momentum_names[a], order)
        delta = delta + model.fundamental_field_M(model.basis_vector(a)).compose(dj)
        if model.lie.modular[a]:
            delta = delta + dj * GaussRational(model.lie.modular[a])
    return ref_exp(delta.lam_shift(1) * (IMAG * GaussRational(Fraction(-sign, 2))))


def ref_lam_parity(op):
    """sigma(op): lam -> -lam, each odd lam order times -1."""
    return DiffOperator(op.gens, op.order, [
        {d: c * GaussRational(-1) ** r for d, c in t.items()}
        for r, t in enumerate(op.tables)])


NORMALIZER_CASES = [(name, 2, K) for name in ("abelian2", "heis3", "n4")
                    for K in (2, 3, 4, 5)] + [("heis3", 4, 4)]


@pytest.mark.parametrize("name,base,K", NORMALIZER_CASES,
                         ids=[f"{n}_base{b}-{K}" for n, b, K in NORMALIZER_CASES])
def test_normalizer_matches_former_construction(name, base, K):
    """N and N^-1 equal the right-composed exp of the exponent and of its
    negative, by == and repr; N^-1 is sigma(N), and composes with N to the
    identity operator."""
    m = ModelSpace(SHORTCUT_MODELS[name](), base, K)
    ref = ModelSpace(SHORTCUT_MODELS[name](), base, K)
    n, ninv = neumaier_N(m), neumaier_N_inverse(m)
    assert_same_operator(n, ref_normalizer(ref, 1))
    assert_same_operator(ninv, ref_normalizer(ref, -1))
    assert_same_operator(ninv, ref_lam_parity(n))
    arg = starprod._normalization_exponent(m)
    assert ref_lam_parity(arg) == -arg != arg
    ident = DiffOperator.identity(m.gens, K)
    assert ninv.compose(n) == ident
    assert neumaier_N(m) is n and neumaier_N_inverse(m) is ninv


@pytest.mark.parametrize("K", [2, 3, 4])
@pytest.mark.parametrize("name", ["heis3", "aff1", "heis3_base4"])
def test_exp_matches_right_composed_powers(name, K):
    """exp with the small factor on the left equals the right-composed loop
    on random lam-graded operators, first and higher order, lam-odd or not."""
    m = {"heis3": lambda: ModelSpace(heisenberg3(), 2, K),
         "aff1": lambda: ModelSpace(aff1(), 2, K),
         "heis3_base4": lambda: ModelSpace(heisenberg3(), 4, K)}[name]()
    rng = random.Random(131 + K)
    ops = []
    for top in (1, 2, 3):
        op = rand_operator(rng, m, top)
        ops.append(DiffOperator(m.gens, K, [{}] + list(op.tables[1:])))
    ops.append(ref_lam_parity(ops[-1]) - ops[-1])
    assert all(not op.tables[0] for op in ops)
    assert any(op.tables[2] for op in ops)
    for op in ops:
        assert_same_operator(op.exp(), ref_exp(op))
    with pytest.raises(ValueError, match="order-0 part"):
        DiffOperator.identity(m.gens, K).exp()


@pytest.mark.parametrize("K", [2, 3, 4, 5])
def test_normalizer_pair_compose_count(monkeypatch, K):
    """With the exponent built, N makes at most K compositions and N^-1
    none."""
    m = ModelSpace(heisenberg3(), 2, K)
    starprod._normalization_exponent(m)
    calls = []
    compose = DiffOperator.compose

    def counting(a, b):
        calls.append(None)
        return compose(a, b)

    monkeypatch.setattr(DiffOperator, "compose", counting)
    neumaier_N(m)
    assert 0 < len(calls) <= K
    del calls[:]
    neumaier_N_inverse(m)
    assert calls == []


def test_normalizer_inverse_refuses_an_exponent_not_odd_in_lam(monkeypatch):
    """sigma(N) is N^-1 only for a lam-odd exponent; an even part raises
    and caches nothing."""
    m = ModelSpace(heisenberg3(), 2, 3)
    exponent = starprod._normalization_exponent
    arg = exponent(m)
    monkeypatch.setattr(starprod, "_normalization_exponent",
                        lambda model: arg + arg.compose(arg))
    with pytest.raises(ValueError, match="not odd in lam"):
        neumaier_N_inverse(m)
    assert "norm_op_inverse" not in m._field_cache
    monkeypatch.setattr(starprod, "_normalization_exponent", exponent)
    assert_same_operator(neumaier_N_inverse(ModelSpace(heisenberg3(), 2, 3)),
                         ref_normalizer(m, -1))


def ref_free_of(f, names):
    """The former scan: one depends_on pass per name."""
    return not any(f.depends_on(n) for n in names)


@pytest.mark.parametrize("name", sorted(SHORTCUT_MODELS))
def test_base_checks_match_per_name_scan(name):
    """is_momentum_free and is_base_only, one pass over the exponents, agree
    with the scan per coordinate name, envelopes and zeros included."""
    m = ModelSpace(SHORTCUT_MODELS[name](), 2, 3)
    rng = random.Random(97)
    free, mixed, zeros = shortcut_inputs(m, 101)
    base = [rand_poly(rng, m, m.base_names, 3),
            lam_shifted(rand_poly(rng, m, m.base_names, 2), 2).with_pi4(1),
            rand_poly(rng, m, m.base_names, 2).with_profile({m.base_names[1]: 1})]
    enveloped = [rand_poly(rng, m, m.base_names, 2).with_profile({n: 1})
                 for n in m.group_names + m.momentum_names]
    enveloped += [m.zero().with_profile({n: 1}) for n in m.momentum_names[:1]]
    inputs = free + mixed + zeros + base + enveloped
    inputs += [m.var(n) for n in m.gens]
    inputs += [lam_shifted(m.var(n), 1) for n in m.gens]
    nonbase = m.group_names + m.momentum_names
    results = []
    for f in inputs:
        results.append((m.is_momentum_free(f), m.is_base_only(f)))
        assert results[-1] == (ref_free_of(f, m.momentum_names),
                               ref_free_of(f, nonbase))
    assert {r for r in results} >= {(True, True), (False, False)}
    if m.has_group:
        assert (True, False) in results


QK_MODELS = {
    "heis3": heisenberg3,
    "aff1": aff1,
    "sl2": sl2,
    "so3": so3,
}


@pytest.mark.parametrize("kappa", [Fraction(1, 2), [Fraction(1, 2), 1]],
                         ids=["khalf", "kseries"])
@pytest.mark.parametrize("name", sorted(QK_MODELS))
def test_quantized_koszul_matches_unguarded_loop(name, kappa):
    m = ModelSpace(QK_MODELS[name](), 2, 3)
    cfg = ReductionConfig(m, kappa)
    rng = random.Random(29)
    dim = m.lie.dim
    every = SuperObservable(m)
    for k in range(dim + 1):
        x = SuperObservable(m, {idx: rand_poly(rng, m, m.gens, 3)
                                for idx in combinations(range(dim), k)})
        every = every + x
        for y in (x, x.map(lambda f: f.with_pi4(1))):
            got, expect = quantized_koszul(cfg, y), ref_quantized_koszul(cfg, y)
            assert got == expect and repr(got) == repr(expect)
    assert quantized_koszul(cfg, every) == ref_quantized_koszul(cfg, every)
    assert quantized_koszul(cfg, SuperObservable(m)).is_zero()


# ---------------------------------------------------------------------------
# reference: the Koszul maps in SuperObservable and Func arithmetic
# ---------------------------------------------------------------------------


def ref_weight_by_degree(f, names, weight):
    """The former Func.weight_by_degree: each term scaled by weight(d), d its
    degree in names, through the validating Poly and Func constructors."""
    for n in names:
        if n in f.profile:
            raise ValueError("degree weighting across an envelope is undefined")
    idxs = [f.gens.index(n) for n in names]
    return Func(f.series.map(lambda p: Poly(p.gens, {
        e: c * weight(sum(e[i] for i in idxs)) for e, c in p.terms.items()})),
        f.profile, f.pi4)


def ref_homotopy_h(model, x, k):
    """The former homotopy_h: per component and momentum one Func.diff, the
    ray weight 1/(k + d + 1) and one ref_wedge_basis, summed
    by SuperObservable +."""
    out = SuperObservable(model)
    for idx, f in x.comps.items():
        for a in range(model.lie.dim):
            df = f.diff(model.momentum_names[a])
            if df.is_zero():
                continue
            weighted = ref_weight_by_degree(
                df, model.momentum_names, lambda d: Fraction(1, k + d + 1))
            out = out + ref_wedge_basis(SuperObservable(model, {idx: weighted}), a)
    return out


def ref_koszul(model, x):
    """The former koszul: each ins(e^a)x times the momentum Func J_a."""
    out = SuperObservable(model)
    for a in range(model.lie.dim):
        ja = model.momentum(a)
        out = out + ref_insert_basis(x, a).map(lambda f, ja=ja: f * ja)
    return out


def assert_same_super(got, expect):
    assert got == expect and repr(got) == repr(expect)
    assert set(got.comps) == set(expect.comps)
    for idx, f in expect.comps.items():
        assert_identical(got.comps[idx], f)


KOSZUL_MAP_MODELS = {
    "heis3": lambda: ModelSpace(heisenberg3(), 2, 3),
    "aff1": lambda: ModelSpace(aff1(), 2, 3),
    "so3": lambda: ModelSpace(so3(), 2, 3),
}


def koszul_map_inputs(m, seed):
    """SuperObservables of exterior degree 0, 1 and 2 and all three at once:
    plain, lam-shifted with a pi-grade, and enveloped (fiber states on group
    models, a base envelope otherwise), each component a random polynomial
    in all generators."""
    rng = random.Random(seed)

    def envelope(f):
        if m.has_group:
            return m.fiber_state(f)
        return f.with_profile({m.base_names[0]: Fraction(1, 2)})

    kinds = [lambda f: f, lambda f: lam_shifted(f, 1).with_pi4(-2), envelope]
    out = []
    for kind in kinds:
        every = SuperObservable(m)
        for deg in range(3):
            x = SuperObservable(m, {idx: kind(rand_poly(rng, m, m.gens, 3, nterms=4))
                                    for idx in combinations(range(m.lie.dim), deg)})
            out.append(x)
            every = every + x
        out.append(every)
    return out


@pytest.mark.parametrize("name", sorted(KOSZUL_MAP_MODELS))
def test_koszul_maps_on_term_dicts_match_superobservable_arithmetic(name):
    """homotopy_h (k = 0, 1, 2), koszul and quantized_koszul equal the former
    SuperObservable constructions by value and repr, component by
    component."""
    m = KOSZUL_MAP_MODELS[name]()
    cfg = ReductionConfig(m, Fraction(1, 2))
    cases = koszul_map_inputs(m, 37)
    assert any(f.profile for x in cases for f in x.comps.values())
    for x in cases + [SuperObservable(m)]:
        for k in range(3):
            assert_same_super(homotopy_h(m, x, k), ref_homotopy_h(m, x, k))
        assert_same_super(koszul(m, x), ref_koszul(m, x))
        assert_same_super(quantized_koszul(cfg, x), ref_quantized_koszul(cfg, x))
    f = m.zero()
    assert_identical(_perturbation(cfg, f), f)


@pytest.mark.parametrize("name", sorted(KOSZUL_MAP_MODELS))
def test_koszul_homotopy_refuses_an_envelope_on_a_momentum(name):
    """The ray average has no closed form under exp(-a J^2): homotopy_h
    raises as the former weighting did, while koszul and quantized_koszul
    still match their references."""
    m = KOSZUL_MAP_MODELS[name]()
    cfg = ReductionConfig(m, Fraction(1, 2))
    rng = random.Random(41)
    for j in m.momentum_names:
        for deg in range(3):
            x = SuperObservable(m, {
                idx: rand_poly(rng, m, m.gens, 2).with_profile({j: 1})
                for idx in combinations(range(m.lie.dim), deg)})
            for fn in (homotopy_h, ref_homotopy_h):
                with pytest.raises(ValueError, match="envelope"):
                    fn(m, x, deg)
            assert_same_super(koszul(m, x), ref_koszul(m, x))
            assert_same_super(quantized_koszul(cfg, x), ref_quantized_koszul(cfg, x))


@pytest.mark.parametrize("name", sorted(RESOLVE_MODELS))
def test_resolve_stops_at_the_first_zero_term(monkeypatch, name):
    """P is never applied to a momentum-free input, whose h_0 vanishes (the
    skipped application gives zero), and never past the first zero term on
    any other; the sums are those of the full iteration, whose reference
    calls P by its imported name and so is not counted."""
    m = RESOLVE_MODELS[name]()
    cfg = ReductionConfig(m, Fraction(1, 2))
    rng = random.Random(31)
    seen = []

    def counting(cfg, f):
        seen.append(_perturbation(cfg, f))
        return seen[-1]

    monkeypatch.setattr(sys.modules["redstar.koszul"], "_perturbation", counting)
    rest = m.base_names + m.group_names
    free = [rand_poly(rng, m, rest, 3, nterms=4), m.one()]
    if m.has_group:
        free.append(m.fiber_state(rand_poly(rng, m, rest, 2)))
    for f in free:
        seen.clear()
        got = _neumann_resolve(cfg, f)
        assert seen == [] and _perturbation(cfg, f).is_zero()
        assert_same(got, f)
        assert_same(got, ref_neumann_resolve(cfg, f))
    for f in [rand_poly(rng, m, m.gens, 4, nterms=4) + m.momentum(0) for _ in range(3)]:
        seen.clear()
        got = _neumann_resolve(cfg, f)
        assert 1 <= len(seen) <= m.order
        assert len(seen) == m.order or seen[-1].is_zero()
        assert not any(p.is_zero() for p in seen[:-1])
        assert_same(got, ref_neumann_resolve(cfg, f))


@pytest.mark.parametrize("name", sorted(HOMOTOPY_MODELS))
def test_deformed_homotopy_stops_at_the_first_zero_term(monkeypatch, name):
    """Each term of the homotopy series applies P once, which calls
    quantized_koszul twice; no term is formed past the first zero one, and
    the result is that of the full K-step iteration."""
    m = HOMOTOPY_MODELS[name]()
    cfg = ReductionConfig(m, Fraction(1, 2))
    rng = random.Random(37)
    calls = []

    def counting(cfg, x):
        calls.append(x)
        return quantized_koszul(cfg, x)

    rest = m.base_names + m.group_names
    stopped_early = False
    for k in range(1, m.lie.dim + 1):
        for gens in (m.gens, rest):
            x = SuperObservable(m, {idx: rand_poly(rng, m, gens, 3, nterms=3)
                                    for idx in combinations(range(m.lie.dim), k)})
            terms, term = 0, x
            while terms < m.order:
                term = term - (homotopy_perturbation(cfg, term, k) + term)
                terms += 1
                if term.is_zero():
                    break
            stopped_early |= terms < m.order
            monkeypatch.setattr(sys.modules["redstar.koszul"], "quantized_koszul", counting)
            calls.clear()
            got = deformed_homotopy(cfg, x, k)
            monkeypatch.undo()
            assert len(calls) == 2 * terms
            expect = ref_deformed_homotopy(cfg, x, k)
            assert got == expect and repr(got) == repr(expect)
    assert stopped_early


# ---------------------------------------------------------------------------
# the infinitesimal action of the Koszul equivariance check
# ---------------------------------------------------------------------------


def ref_rho_action(m, a, x):
    """-L_{xi_M} x plus the adjoint action, each component's index tuple
    and sign worked out by hand."""
    out = x.map(lambda f: m.fundamental_field_M(m.basis_vector(a)).apply(f)).scale(
        GaussRational(-1)
    )
    for idx, f in x.comps.items():
        for pos, b in enumerate(idx):
            br = m.lie.bracket_vec(m.basis_vector(a), m.basis_vector(b))
            for c, v in enumerate(br):
                if not v:
                    continue
                rest = idx[:pos] + idx[pos + 1:]
                if c in rest:
                    continue
                before = sum(1 for i in rest if i < c)
                sign = GaussRational(-1 if (before + pos) % 2 else 1)
                new = tuple(sorted(rest + (c,)))
                out = out + SuperObservable(
                    m, {new: f * (sign * GaussRational(Fraction(v)))}
                )
    return out


@pytest.mark.parametrize("dim", range(1, 6))
def test_exterior_helpers_match_the_hand_rules(dim):
    """funcs.insertions and funcs.wedges give, on every strictly increasing
    index tuple over dim generators, exactly the components and signs of
    ref_insert_basis and ref_wedge_basis: one entry per inserted index in
    idx and per wedged index outside it."""
    m = ModelSpace(abelian_lie(dim), 0, 0)
    one = m.one()
    for k in range(dim + 1):
        for idx in combinations(range(dim), k):
            x = SuperObservable(m, {idx: one})
            ins, wed = insertions(idx), wedges(idx, dim)
            assert [a for a, _, _ in ins] == list(idx)
            assert [c for c, _, _ in wed] == [c for c in range(dim) if c not in idx]
            for a in range(dim):
                expect = ref_insert_basis(x, a)
                got = SuperObservable(m, {rest: one * GaussRational(sign)
                                          for b, sign, rest in ins if b == a})
                assert_same_super(got, expect)
                expect = ref_wedge_basis(x, a)
                got = SuperObservable(m, {new: one * GaussRational(sign)
                                          for c, sign, new in wed if c == a})
                assert_same_super(got, expect)


@pytest.mark.parametrize("name", ["heis3", "aff1", "so3"])
def test_rho_action_matches_hand_signs(name):
    m = ModelSpace(QK_MODELS[name](), 2, 3)
    rng = random.Random(41)
    dim = m.lie.dim
    nonzero_adjoint = False
    for k in range(dim + 1):
        for _ in range(2):
            x = SuperObservable(m, {idx: rand_poly(rng, m, m.gens, 2)
                                    for idx in combinations(range(dim), k)})
            for a in range(dim):
                got, expect = _rho_action(m, a, x), ref_rho_action(m, a, x)
                assert got == expect and repr(got) == repr(expect)
                lie = x.map(m.fundamental_field_M(m.basis_vector(a)).apply)
                nonzero_adjoint |= not (got + lie).is_zero()
    assert nonzero_adjoint


# ---------------------------------------------------------------------------
# the merged transport
# ---------------------------------------------------------------------------


TRANSPORT_MODELS = {
    "abelian1": lambda: ModelSpace(abelian_lie(1), 2, 3),
    "heis3": lambda: ModelSpace(heisenberg3(), 2, 2),
    "aff1": lambda: ModelSpace(aff1(), 2, 3),
}


@pytest.mark.parametrize("name", sorted(TRANSPORT_MODELS))
@pytest.mark.parametrize("kappa", [0, Fraction(1, 2), [Fraction(1, 2), 1]],
                         ids=["k0", "khalf", "kseries"])
def test_transport_matches_reference(name, kappa):
    m = TRANSPORT_MODELS[name]()
    cfg = ReductionConfig(m, kappa)
    rng = random.Random(5)
    top = 0
    for _ in range(3):
        g = rand_poly(rng, m, m.gens, 4, nterms=5)
        inner = transport_inner(cfg, g)
        expect_a = [ref_transport_A(cfg, a, g) for a in range(m.lie.dim)]
        expect_b = ref_transport_B(cfg, g)
        for a in range(m.lie.dim):
            assert_same(transport(cfg, inner, m.basis_vector(a)), expect_a[a])
        assert_same(transport(cfg, inner, m.lie.modular), expect_b)
        ops = conj_transport(cfg, g)
        for a in range(m.lie.dim):
            assert_same(ops["A"][a], expect_a[a])
        assert_same(ops["B"], expect_b)
        for f in expect_a + [expect_b]:
            top = max([top] + [r for r, c in enumerate(f.series.coeffs) if not c.is_zero()])
    if name == "aff1" and kappa != 0:
        # the modular term makes the geometric tails reach past the leading order
        assert top >= 2


# ---------------------------------------------------------------------------
# the merged multiplication operator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["abelian1", "heis3", "aff1"])
def test_mult_operator_matches_reference_pair(name):
    m = {"abelian1": lambda: ModelSpace(abelian_lie(1), 2, 3),
         "heis3": lambda: ModelSpace(heisenberg3(), 2, 3),
         "aff1": lambda: ModelSpace(aff1(), 4, 3)}[name]()
    rng = random.Random(17)
    for _ in range(4):
        u = rand_poly(rng, m, m.base_names, 3)
        u = u + lam_shifted(rand_poly(rng, m, m.base_names, 2), 1)
        w = rand_poly(rng, m, m.base_names, 2)
        got, expect = mult_operator(m, u), ref_right_mult_operator(m, u)
        assert got == expect
        assert repr(got) == repr(expect)
        assert_same(got.apply(w), expect.apply(w))


# ---------------------------------------------------------------------------
# reference: the compose-chain adjoint, the defect-loop series inverse and the
# involution loop that transposes the whole left operator at every step
# ---------------------------------------------------------------------------


def _ref_series_times(op, s):
    """op left-multiplied by the pointwise lam-series of polynomials s."""
    tabs = [{} for _ in range(op.order + 1)]
    for r1, p in enumerate(s.coeffs):
        if p.is_zero():
            continue
        for r2, t in enumerate(op.tables):
            if r1 + r2 > op.order:
                break
            for d, c in t.items():
                tgt = tabs[r1 + r2]
                tgt[d] = tgt.get(d, Poly.zero(op.gens)) + p * c
    return DiffOperator(op.gens, op.order, tabs)


def ref_formal_adjoint(op, weight):
    """rho^-1 sum lam^r (-1)^|d| T^d M_{conj(c) rho}, with each entry an
    operator of its own, T^d applied as a chain of |d| compositions."""
    if weight != weight.conj():
        raise ValueError("adjoint requires a real weight")
    rho = Func(weight.series.extend(op.order))
    rho_inv = ref_series_inverse(rho)
    gauss = weight.profile
    out = DiffOperator.zero(op.gens, op.order)
    twisted = {}

    def twisted_partial(i):
        if i not in twisted:
            name = op.gens[i]
            t = DiffOperator.partial(op.gens, name, op.order)
            a = gauss.get(name)
            if a:
                t = t + DiffOperator.multiplication(
                    Poly.var(op.gens, name) * GaussRational(-2 * a), op.order)
            twisted[i] = t
        return twisted[i]

    for r, table in enumerate(op.tables):
        for d, c in table.items():
            sign = GaussRational(-1 if sum(d) % 2 else 1)
            term = DiffOperator.multiplication(c.conj() * sign, op.order)
            term = _ref_series_times(term, rho.series)
            for i, k in enumerate(d):
                for _ in range(k):
                    term = twisted_partial(i).compose(term)
            out = out + term.lam_shift(r)
    return _ref_series_times(out, rho_inv.series)


def ref_series_inverse(a, mul=mul):
    """Each order corrected against the whole defect 1 - mul(a, v)."""
    c0inv = _leading_constant(a).inverse()
    one = a.zero_like() + GaussRational(1)
    v = a.zero_like() + c0inv
    for r in range(1, a.order + 1):
        defect = one - mul(a, v)
        v = v + (defect.coeff(r) * c0inv).shift(r)
    return v


def ref_reduced_involution(model, u, omega):
    """Every step transposes the left operator of the whole partial sum v."""

    def transpose_at_one(op):
        return ref_formal_adjoint(op, omega).apply(model.one()).conj()

    target = transpose_at_one(mult_operator(model, u))
    v = model.zero()
    for r in range(model.order + 1):
        current = transpose_at_one(ref_left_mult_operator(model, v))
        v = v + (target - current).coeff(r).shift(r)
    return v.conj()


def adjoint_weights(m):
    """Gaussian in every base coordinate, a constant prefactor under an
    envelope in one coordinate, the lam-dependent non-constant prefactor of
    involution.comparison, a prefactor with a lam-dependent polynomial on
    its own under a narrower envelope, and Lebesgue; the polynomials are in
    the first canonical pair.  On models with group coordinates, also a
    weight whose envelope and prefactor involve the first of them."""
    q, p = (m.var(n) for n in m.base_names[:2])
    gauss = gaussian_base_weight(m, 1)
    prefactor = Func(LambdaSeries([Poly.constant(m.gens, 2), (q * p * p).series.coeffs[0]],
                                  m.order))
    weights = {
        "gaussian": gauss,
        "envelope_one": (m.one() * 3).with_profile({m.base_names[1]: Fraction(2, 3)}),
        "density_ratio": density_weight(gauss * (m.one() + (q * q).shift(1))),
        "prefactor": gaussian_base_weight(m, Fraction(1, 2), prefactor),
        "lebesgue": lebesgue_weight(m),
    }
    if m.group_names:
        g = m.group_names[0]
        weights["group"] = (m.one() * 2 + (q * m.var(g) * m.var(g)).shift(1)).with_profile(
            {m.base_names[0]: Fraction(1, 2), g: 1})
    return weights


def rand_operator(rng, m, top=4):
    """Entries with |d| up to top over every coordinate, at every lam order."""
    tables = [{} for _ in range(m.order + 1)]
    for _ in range(6):
        d = [0] * len(m.gens)
        for _ in range(rng.randint(0, top)):
            d[rng.randrange(len(m.gens))] += 1
        r = rng.randint(0, m.order)
        c = rand_poly(rng, m, m.gens, 2).series.coeffs[0]
        tables[r][tuple(d)] = tables[r].get(tuple(d), Poly.zero(m.gens)) + c
    return DiffOperator(m.gens, m.order, tables)


ADJOINT_MODELS = {
    "heis3": lambda: ModelSpace(heisenberg3(), 2, 3),
    "aff1": lambda: ModelSpace(aff1(), 2, 3),
    "heis3_base4": lambda: ModelSpace(heisenberg3(), 4, 3),
}


@pytest.mark.parametrize("name", sorted(ADJOINT_MODELS))
def test_formal_adjoint_matches_compose_chain(name):
    m = ADJOINT_MODELS[name]()
    rng = random.Random(23)
    q, p = m.base_names[:2]
    ops = [DiffOperator.zero(m.gens, m.order),
           DiffOperator.partial(m.gens, q, m.order).compose(
               DiffOperator.partial(m.gens, p, m.order)).lam_shift(1)]
    for _ in range(2):
        u = rand_poly(rng, m, m.base_names, 3)
        u = u + lam_shifted(rand_poly(rng, m, m.base_names, 2), 1)
        ops += [mult_operator(m, u), ref_left_mult_operator(m, u)]
    ops += [rand_operator(rng, m) for _ in range(3)]
    assert max(sum(d) for op in ops for t in op.tables for d in t) == 4
    for label, w in adjoint_weights(m).items():
        for op in ops:
            got, expect = op.formal_adjoint(w), ref_formal_adjoint(op, w)
            assert got == expect, label
            assert repr(got) == repr(expect)


def test_series_inverse_matches_defect_loop():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    gens = ("q", "p")
    fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    scalars = st.builds(GaussRational, fractions, fractions)
    units = scalars.filter(lambda c: not c.is_zero())
    polys = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                            scalars, max_size=4).map(lambda t: Poly(gens, t))

    @st.composite
    def series(draw):
        order = draw(st.integers(0, 5))
        c0 = draw(units)
        if draw(st.booleans()):
            rest = draw(st.lists(scalars, min_size=order, max_size=order))
            return Func(LambdaSeries([Poly.constant(gens, c) for c in [c0] + rest], order))
        rest = draw(st.lists(polys, min_size=order, max_size=order))
        return Func(LambdaSeries([Poly.constant(gens, c0)] + rest, order))

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(series())
    def check(a):
        got = series_inverse(a)
        assert got == ref_series_inverse(a)
        assert repr(got) == repr(ref_series_inverse(a))
        assert a * got == a.zero_like() + GaussRational(1)

    check()
    for a in (LambdaSeries([Poly.zero(gens), Poly.constant(gens, 1)], 1),
              LambdaSeries([Poly.zero(gens), Poly.var(gens, "q")], 1)):
        with pytest.raises(ZeroDivisionError):
            series_inverse(Func(a))
    with pytest.raises(ValueError):
        series_inverse(Func(LambdaSeries([Poly.var(gens, "q") + 1], 2)))


INVOLUTION_MODELS = {
    "heis3_K3": lambda: ModelSpace(heisenberg3(), 2, 3),
    "heis3_K4": lambda: ModelSpace(heisenberg3(), 2, 4),
    "aff1": lambda: ModelSpace(aff1(), 2, 3),
}


@pytest.mark.parametrize("name", sorted(INVOLUTION_MODELS))
def test_reduced_involution_matches_full_recompute(name):
    m = INVOLUTION_MODELS[name]()
    rng = random.Random(29)
    weights = adjoint_weights(m)
    q, p = (m.var(n) for n in m.base_names)
    us = [q * q * q * p - p * p * IMAG * 2 + q + rand_poly(rng, m, m.base_names, 3),
          rand_poly(rng, m, m.base_names, 2)
          + lam_shifted(rand_poly(rng, m, m.base_names, 2), 2),
          m.one()]
    for label in ("gaussian", "lebesgue", "density_ratio"):
        for u in us:
            got = reduced_involution(m, u, weights[label])
            assert_same(got, ref_reduced_involution(m, u, weights[label]))
    # the corrections reach the top order, so every step of the loop runs
    top = reduced_involution(m, us[0], weights["density_ratio"]).series.coeffs[m.order]
    assert not top.is_zero()


# ---------------------------------------------------------------------------
# reference: the involution as a running sum over its steps, each nonzero
# step transposing its own left operator
# ---------------------------------------------------------------------------


def ref_step_involution(model, u, omega):
    """v = conj(u*) solves T(L_v) = T(R_u) order by order.  T(L_v) is kept
    as a running sum: each nonzero step delta_r = lam^r v_r below the top
    order adds T(L_delta_r), one adjoint of its left operator read at 1."""

    def transpose_at_one(op):
        return op.formal_adjoint(omega).apply(model.one()).conj()

    target = transpose_at_one(mult_operator(model, u))
    v = current = model.zero()
    for r in range(model.order + 1):
        step = (target - current).coeff(r).shift(r)
        if step.is_zero():
            continue
        v = v + step
        if r < model.order:
            current = current + transpose_at_one(ref_left_mult_operator(model, step))
    return v.conj()


STEP_MODELS = {
    "heis3": lambda K: ModelSpace(heisenberg3(), 2, K),
    "aff1": lambda K: ModelSpace(aff1(), 2, K),
    "heis3_base4": lambda K: ModelSpace(heisenberg3(), 4, K),
}


@pytest.mark.parametrize("name", sorted(STEP_MODELS))
def test_step_operator_is_the_left_transpose(name):
    """P(w) = T(L_w) with the compose-chain adjoint of the left operator,
    and the cached inverse undoes P, for every weight."""
    m = STEP_MODELS[name](3)
    rng = random.Random(31)
    base = m.base_names
    ws = [rand_poly(rng, m, base, 3) + lam_shifted(rand_poly(rng, m, base, 2), 1)
          for _ in range(3)] + [m.one()]
    for label, omega in adjoint_weights(m).items():
        step, inverse = involution._involution_steps(m, omega)
        for w in ws:
            expect = ref_formal_adjoint(ref_left_mult_operator(m, w), omega)
            assert_same(step.apply(w), expect.apply(m.one()).conj())
            assert_same(inverse.apply(step.apply(w)), w)


@pytest.mark.parametrize("name, K", [(name, K) for name in sorted(STEP_MODELS)
                                     for K in (3, 4, 5) if (name, K) != ("heis3_base4", 5)])
def test_reduced_involution_matches_step_loop(name, K):
    """Five complex, partly lam-shifted inputs per weight of adjoint_weights,
    model and order, 225 in all.  The 4-dimensional base
    stops at K = 4, where the two references take about 1 s per input."""
    m = STEP_MODELS[name](K)
    rng = random.Random(37 + K)
    base = m.base_names
    for label, omega in adjoint_weights(m).items():
        for _ in range(5):
            u = rand_poly(rng, m, base, 3) + lam_shifted(
                rand_poly(rng, m, base, 2), rng.randint(1, K))
            got = reduced_involution(m, u, omega)
            assert_same(got, ref_step_involution(m, u, omega))
            assert_same(got, ref_reduced_involution(m, u, omega))


def test_warm_involution_makes_one_adjoint(monkeypatch):
    """A warm call adjoins only the right operator of its input, and the
    step operators are cached once per weight.  That adjoint still composes
    and inverts the weight's prefactor series, the layers the benchmark
    requires on its warm call pass."""
    m = ModelSpace(heisenberg3(), 2, 4)
    weights = adjoint_weights(m)
    rng = random.Random(41)
    us = [rand_poly(rng, m, m.base_names, 4) for _ in range(4)]
    reduced_involution(m, us[0], weights["gaussian"])
    size = len(m._field_cache)
    calls = []
    counts = {"compose": 0, "series_inverse": 0}
    real = DiffOperator.formal_adjoint
    real_compose = DiffOperator.compose
    real_inverse = series_inverse

    def counting(self, weight):
        calls.append(weight)
        return real(self, weight)

    def counting_compose(self, other):
        counts["compose"] += 1
        return real_compose(self, other)

    def counting_inverse(*args):
        counts["series_inverse"] += 1
        return real_inverse(*args)

    monkeypatch.setattr(DiffOperator, "formal_adjoint", counting)
    monkeypatch.setattr(DiffOperator, "compose", counting_compose)
    held = [mod for name, mod in sys.modules.items() if name.startswith("redstar.")
            and getattr(mod, "series_inverse", None) is real_inverse]
    for mod in held:
        monkeypatch.setattr(mod, "series_inverse", counting_inverse)
    for u in us:
        calls.clear()
        counts.update(compose=0, series_inverse=0)
        reduced_involution(m, u, weights["gaussian"])
        assert len(calls) == 1
        assert counts["compose"] >= 1 and counts["series_inverse"] >= 1, counts
    assert len(m._field_cache) == size
    reduced_involution(m, us[0], weights["prefactor"])
    assert len(m._field_cache) == size + 1
    reduced_involution(m, us[1], weights["prefactor"])
    assert len(m._field_cache) == size + 1


# ---------------------------------------------------------------------------
# reference: the modular automorphism and its logarithm monomial by monomial
# ---------------------------------------------------------------------------


class RefAutomorphismSeries:
    """A linear map on base polynomials from a rule on base monomials, with
    one cached image per monomial; the former AutomorphismSeries."""

    def __init__(self, model, fn):
        self.model = model
        self._fn = fn
        self._cache = {}

    def image(self, expo):
        if expo not in self._cache:
            self._cache[expo] = self._fn(monomial(self.model, self.model.base_names, expo))
        return self._cache[expo]

    def apply(self, f):
        if f.profile or f.pi4:
            raise ValueError("the map acts on plain base polynomials")
        base_idx = [f.gens.index(n) for n in self.model.base_names]
        other_idx = [i for i in range(len(f.gens)) if i not in base_idx]
        total = self.model.zero()
        for r, p in enumerate(f.series.coeffs):
            for expo, c in p.terms.items():
                if any(expo[i] for i in other_idx):
                    raise ValueError("not a base polynomial")
                img = self.image(tuple(expo[i] for i in base_idx))
                total = total + (img * c).shift(r)
        return total


def ref_modular_log(model, omega):
    """(I, D) as RefAutomorphismSeries: I(m) = conj(m*), and D(m) the series
    sum_k (-1)^(k+1) (I - id)^k m / k for each base monomial m on its own."""
    i_map = RefAutomorphismSeries(
        model, lambda m: reduced_involution(model, m, omega).conj())
    n = RefAutomorphismSeries(model, lambda m: i_map.apply(m) - m)
    order = model.order

    def d_of(m):
        power = n.apply(m)
        if not power.series.coeffs[0].is_zero():
            raise ValueError("logarithm needs a map starting at the identity")
        total = model.zero()
        sign = 1
        for k in range(1, order + 1):
            total = total + power * GaussRational(Fraction(sign, k))
            sign = -sign
            if k < order:
                power = n.apply(power)
                if power.is_zero():
                    break
        return total

    return i_map, RefAutomorphismSeries(model, d_of)


@pytest.mark.parametrize("name, K", [(name, K) for name in sorted(STEP_MODELS)
                                     for K in (3, 4)])
def test_modular_maps_match_per_monomial_log(name, K):
    """I and D of modular_class equal the per-monomial maps on random,
    partly lam-shifted complex base polynomials, for every weight of
    adjoint_weights whose images stay on the base."""
    m = STEP_MODELS[name](K)
    rng = random.Random(43 + K)
    base = m.base_names
    for label, omega in adjoint_weights(m).items():
        if label == "group":
            continue
        mc = modular_class(m, omega, cap=1)
        ref_i, ref_d = ref_modular_log(m, omega)
        for _ in range(4):
            u = rand_poly(rng, m, base, 3) + lam_shifted(rand_poly(rng, m, base, 2), 1)
            assert_same(mc["I"](u), ref_i.apply(u))
            assert_same(mc["D"](u), ref_d.apply(u))


def test_modular_class_refuses_images_off_the_base():
    """On the group weight the images of I leave the base, so the logarithm
    has no meaning as a map on base polynomials."""
    m = ModelSpace(heisenberg3(), 2, 3)
    with pytest.raises(ValueError):
        modular_class(m, adjoint_weights(m)["group"], cap=2)


def test_modular_class_involves_each_base_monomial_once(monkeypatch):
    """I and D share one cache of monomial images: on heis3 at K = 3 with the
    Gaussian weight, the six base monomials of degree <= 2 are involved once
    each."""
    m = ModelSpace(heisenberg3(), 2, 3)
    calls = []
    real = involution.reduced_involution

    def counting(model, u, omega):
        calls.append(u)
        return real(model, u, omega)

    monkeypatch.setattr(involution, "reduced_involution", counting)
    mc = modular_class(m, gaussian_base_weight(m, 1), cap=2)
    assert mc["first_order_is_minus_i_delta"]
    assert len(calls) == len(set(calls)) == 6


# ---------------------------------------------------------------------------
# reference: the density ratio with an integral per Gram entry, target and
# defect, and the inner-difference columns built per lam shift
# ---------------------------------------------------------------------------


def ref_density_ratio_hat(model, omega, rho, cap):
    """Every order integrates rho * x^e and rho_hat * x^e anew, and the Gram
    matrix takes one integral per entry."""
    monos = [monomial(model, model.base_names, e)
             for e in monomials(model.base_names, cap)]
    gram = [{i: kms_functional(model, u * w, omega).series.coeffs[0].constant_term()
             for i, u in enumerate(monos)} for w in monos]
    rho_hat = model.zero()
    for r in range(model.order + 1):
        rhs = {}
        for i, u in enumerate(monos):
            lhs = kms_functional(model, u * rho, omega)
            cur = kms_functional(model, moyal(model, rho_hat, u), omega)
            rhs[i] = (lhs - cur).series.coeffs[r].constant_term()
        sol = solve_linear(gram, rhs)
        for val, mm in zip(sol, monos):
            rho_hat = rho_hat + (mm * val).shift(r)
    return rho_hat


def ref_inner_difference_columns(model, cap):
    """The columns of modular_inner_difference, each lam^s x^e commuted with
    the basis on its own."""
    unknown_cap = cap + 2 * model.order
    monos = [monomial(model, model.base_names, e)
             for e in monomials(model.base_names, cap)]
    columns = []
    for s in range(model.order):
        for em in monomials(model.base_names, unknown_cap):
            w = monomial(model, model.base_names, em).shift(s)
            ads = [moyal(model, w, m) - moyal(model, m, w) for m in monos]
            columns.append(poly_equations([c for ad in ads for c in ad.series.coeffs]))
    return columns


RATIO_MODELS = {
    "abelian_r": lambda: ModelSpace(abelian_lie(1), 2, 3),
    "heis3": lambda: ModelSpace(heisenberg3(), 2, 3),
    "aff1": lambda: ModelSpace(aff1(), 2, 3),
}


def ratio_densities(m):
    q, p = (m.var(n) for n in m.base_names)
    one = m.one()
    return [one, one * 2, one + q * q, one + (q * q).shift(1),
            one + q * p + (p * p).shift(1)]


@pytest.mark.parametrize("name", sorted(RATIO_MODELS))
def test_density_ratio_matches_per_entry_integrals(name):
    m = RATIO_MODELS[name]()
    weights = [gaussian_base_weight(m, 1), gaussian_base_weight(m, 4, 3),
               gaussian_base_weight(m, 1, m.one() + m.one().shift(1) * 2)]
    for omega in weights:
        for rho in ratio_densities(m):
            for cap in (2, 3, 4):
                got = density_ratio_hat(m, omega, rho)
                expect = ref_density_ratio_hat(m, omega, rho, cap)
                assert got == expect
                assert repr(got) == repr(expect)


@pytest.mark.parametrize("name", ["abelian_r", "aff1"])
def test_inner_difference_columns_match_per_shift(monkeypatch, name):
    check_inner_difference_columns(monkeypatch, RATIO_MODELS[name]())


@pytest.mark.parametrize("K", [2, 4])
@pytest.mark.parametrize("name", ["abelian_r", "aff1"])
def test_inner_difference_columns_match_at_even_order(monkeypatch, name, K):
    check_inner_difference_columns(monkeypatch, ModelSpace(RATIO_MODELS[name]().lie, 2, K))


def check_inner_difference_columns(monkeypatch, m):
    """The columns of modular_inner_difference, built from one commutator
    pass per (unknown, basis) pair, equal those of two moyal products per
    lam shift, entry by entry and in order."""
    systems = []

    def recording_solve_linear(columns, target):
        systems.append(columns)
        return solve_linear(columns, target)

    monkeypatch.setattr(involution, "solve_linear", recording_solve_linear)
    gauss = gaussian_base_weight(m, 1)
    rho = m.one() + (m.var("q") * m.var("q")).shift(1)
    assert modular_inner_difference(m, gauss, gauss * rho, cap=1)["inner"]
    (got,) = systems
    expect = ref_inner_difference_columns(m, 1)
    assert len(got) == len(expect) and any(got)
    for col, ref_col in zip(got, expect):
        assert col == ref_col
        assert list(col) == list(ref_col)


# ---------------------------------------------------------------------------
# reference: the comparison columns from one base product per (probe, word,
# probe), and the comparison solve against a form per (probe, probe) pair
# ---------------------------------------------------------------------------


def ref_comparison_columns(model, pexps, words, gexps, top):
    """conj(phi_i) *_red L_w psi_j for every (probe, word, probe), each
    integrated against every g^e in one moment pass keeping the lam orders
    0..top, in the layout of the columns of _comparison_system."""
    gnames = model.group_names
    probes = [model.fiber_state(monomial(model, gnames, a)) for a in pexps]
    n, width = len(probes), len(gexps)
    cols = [[None] * (n * n) for _ in range(len(words) * width)]
    for j, psi in enumerate(probes):
        act = word_actions(model, psi)
        for k, w in enumerate(words):
            for i, phi in enumerate(probes):
                prod = moyal(model, phi.conj(), act(w))
                vals = gaussian_integrate_shifted(prod, gnames, gexps, top)
                for l, val in enumerate(vals):
                    cols[k * width + l][i * n + j] = val
    return cols


def ref_comparison_H(cfg, ip2, g_cap, word_cap, probe_cap):
    """Solve ip2(phi, psi) = <phi, H bullet' psi>_red with the target formed
    per (probe, probe) pair, each a base product and a fiber integral, and
    the columns from one base product per (probe, word, probe)."""
    model = cfg.model
    gnames = model.group_names
    pexps = monomials(gnames, probe_cap)
    probes = [model.fiber_state(monomial(model, gnames, a)) for a in pexps]
    words = pbw_words(model.lie.dim, word_cap)
    gexps = monomials(gnames, g_cap)
    columns = [poly_equations([f.series.coeffs[0] for f in col])
               for col in ref_comparison_columns(model, pexps, words, gexps, 0)]
    values = [ip2(phi, psi) for phi in probes for psi in probes]
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


COMPARISON_LIES = {"abelian2": lambda: abelian_lie(2), "heis3": heisenberg3}


def comparison_kets(m):
    """Vertical operators T for the kets psi -> T psi: the planted
    deformation id + lam L_0 L_0; lam L_0 M + M for M the multiplication by
    q + g_1, which carries a base coordinate and is not id at order 0; and
    id + lam L_0 M_(g_1) + lam^2 M_(g_1) L_1, with a group coordinate in its
    coefficients."""
    l0, l1 = VerticalOperator.fundamental(m, 0), VerticalOperator.fundamental(m, 1)
    g1 = m.group_names[0]
    mq = VerticalOperator.multiplication(m, m.var("q") + m.var(g1))
    mg = VerticalOperator.multiplication(m, m.var(g1))
    one = VerticalOperator.identity(m)
    return {"pert": one + l0.compose(l0).lam_shift(1),
            "base": l0.compose(mq).lam_shift(1) + mq,
            "group": one + l0.compose(mg).lam_shift(1) + mg.compose(l1).lam_shift(2)}


@pytest.mark.parametrize("g_cap", [1, 2])
@pytest.mark.parametrize("name", sorted(COMPARISON_LIES))
def test_comparison_columns_match_base_products(name, g_cap):
    """The moments of L_w psi_j env shifted by a_i + e equal the base
    products with conj(phi_i) integrated against g^e, and the reference kept
    at order 0 equals the reference kept at every order."""
    m = ModelSpace(COMPARISON_LIES[name](), base_dim=2, order=3)
    pexps, gexps = monomials(m.group_names, 2), monomials(m.group_names, g_cap)
    words = pbw_words(m.lie.dim, 2)
    got, _ = _comparison_system(m, lambda psi: psi, pexps, words, gexps)
    full = ref_comparison_columns(m, pexps, words, gexps, m.order)
    low = ref_comparison_columns(m, pexps, words, gexps, 0)
    assert len(got) == len(full) == len(words) * len(gexps)
    for col, ref_full, ref_low in zip(got, full, low):
        assert len(ref_full) == len(pexps) ** 2
        for f, f0 in zip(ref_full, ref_low):
            assert_same(f0, f)
        assert col == [f.series.coeffs[0] for f in ref_full]
    assert any(not p.is_zero() for col in got[1:] for p in col)


@pytest.mark.parametrize("caps", [(1, 1, 1), (1, 2, 2)], ids=["111", "122"])
@pytest.mark.parametrize("ket", ["base", "group", "pert"])
@pytest.mark.parametrize("name", sorted(COMPARISON_LIES))
def test_comparison_H_matches_per_pair_solve(name, ket, caps):
    """The solve from one moment pass per probe of the ket map gives the
    operator, by the repr of its terms, or the error of the solve against
    the form <phi, T psi>_red evaluated once per (probe, probe) pair."""
    m = ModelSpace(COMPARISON_LIES[name](), base_dim=2, order=3)
    cfg = ReductionConfig(m, Fraction(1, 2))
    op = comparison_kets(m)[ket]
    ip2 = lambda a, b: inner_product_red_closed_form(cfg, a, op.apply(b))

    def outcome(solve, form):
        try:
            return repr(solve(cfg, form, *caps).terms)
        except ValueError as exc:
            return f"ValueError: {exc}"

    got = outcome(deformation_comparison_H, op.apply)
    assert got == outcome(ref_comparison_H, ip2)
    if ket == "pert":
        assert got.startswith("ValueError: caps too small") == (caps == (1, 1, 1))
    else:
        assert got.startswith("ValueError") == (ket == "base")


@pytest.mark.parametrize("ket", ["base", "group", "pert"])
@pytest.mark.parametrize("name", sorted(COMPARISON_LIES))
def test_comparison_target_matches_closed_form(name, ket):
    """Target slot i * n + j of the solve is <phi_i, T psi_j>_red, the
    closed-form inner product, at every lam order and in the pi-grade."""
    m = ModelSpace(COMPARISON_LIES[name](), base_dim=2, order=3)
    cfg = ReductionConfig(m, Fraction(1, 2))
    gnames = m.group_names
    op = comparison_kets(m)[ket]
    pexps = monomials(gnames, 2)
    probes = [m.fiber_state(monomial(m, gnames, a)) for a in pexps]
    _, values = _comparison_system(m, op.apply, pexps, [()], [(0,) * len(gnames)])
    expect = [inner_product_red_closed_form(cfg, phi, op.apply(psi))
              for phi in probes for psi in probes]
    assert len(values) == len(expect) == len(probes) ** 2
    for got, ref in zip(values, expect):
        assert_same(got, ref)
    assert any(not p.is_zero() for v in values for p in v.series.coeffs[1:])


# ---------------------------------------------------------------------------
# reference: the Func-level base product and the loop derivatives
# ---------------------------------------------------------------------------


def ref_poly_mul(a, b):
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return Poly(a.gens, out)


def ref_poly_diff(p, name):
    idx = p.gens.index(name)
    out = {}
    for expo, c in p.terms.items():
        k = expo[idx]
        if k:
            e = list(expo)
            e[idx] = k - 1
            out[tuple(e)] = c * k
    return Poly(p.gens, out)


def ref_func_diff(f, name):
    """Two passes: the polynomial derivative, then the envelope term."""
    out = f.series.map(lambda p: ref_poly_diff(p, name))
    a = f.profile.get(name)
    if a:
        c = Poly.var(f.gens, name)
        out = out + f.series.map(
            lambda p: ref_poly_mul(ref_poly_mul(p, c), Poly.constant(f.gens, -2 * a)))
    return Func(out, f.profile, f.pi4)


def ref_moyal(model, f, g):
    """The expansion level by level over pair sequences, in Func arithmetic."""
    names = model.base_names
    lam = model.poisson_matrix
    n = len(names)
    out = f * g
    level = [(f, g, GaussRational(1))]
    for r in range(1, f.order + 1):
        nxt = []
        for fd, gd, s in level:
            for i in range(n):
                for j in range(n):
                    if lam[i][j]:
                        nxt.append((ref_func_diff(fd, names[i]),
                                    ref_func_diff(gd, names[j]),
                                    s * GaussRational(lam[i][j])))
        level = [(a, b, s) for a, b, s in nxt if not (a.is_zero() or b.is_zero())]
        if not level:
            break
        scale = (IMAG * GaussRational(Fraction(1, 2))) ** r * GaussRational(
            Fraction(1, factorial(r)))
        term = None
        for fd, gd, s in level:
            piece = fd * gd * (s * scale)
            term = piece if term is None else term + piece
        if not term.is_zero():
            out = out + Func(term.series.shift(r), term.profile, term.pi4)
    return out


NONSTANDARD_LAM = [[0, 2, 1, 0], [-2, 0, 0, Fraction(-1, 2)],
                   [-1, 0, 0, 3], [0, Fraction(1, 2), -3, 0]]

TABLE_MODELS = {
    "heis3_k2": lambda: ModelSpace(heisenberg3(), 2, 2),
    "heis3_k4": lambda: ModelSpace(heisenberg3(), 2, 4),
    "aff1_base4_k3": lambda: ModelSpace(aff1(), 4, 3),
    "abelian2_k3": lambda: ModelSpace(abelian_lie(2), 2, 3),
    "nonstandard4_k2": lambda: ModelSpace(abelian_lie(1), 4, 2, NONSTANDARD_LAM),
    "nonstandard4_k4": lambda: ModelSpace(abelian_lie(1), 4, 4, NONSTANDARD_LAM),
}


def table_inputs(m, seed):
    """Plain, lam-shifted, enveloped (base and fiber), pi-graded and zero
    inputs."""
    rng = random.Random(seed)
    base = m.base_names
    fiber = (m.group_names or m.momentum_names)[0]
    out = []
    for _ in range(2):
        f = rand_poly(rng, m, m.gens, 3)
        f = f + lam_shifted(rand_poly(rng, m, base, 2), 1)
        out.append(f)
    out.append(rand_poly(rng, m, base, 2).with_profile({base[0]: Fraction(1, 2)}))
    out.append(rand_poly(rng, m, m.gens, 2).with_profile({fiber: Fraction(1, 3)})
               .with_pi4(3))
    out.append(lam_shifted(rand_poly(rng, m, base, 2), 2).with_pi4(-2))
    out.append(m.zero().with_profile({base[-1]: 1, fiber: Fraction(1, 2)}).with_pi4(1))
    return out


@pytest.mark.parametrize("name", sorted(TABLE_MODELS))
def test_moyal_matches_reference(name):
    m = TABLE_MODELS[name]()
    fs = table_inputs(m, 41)
    gs = table_inputs(m, 42)
    for f in fs:
        for g in gs:
            assert_same(moyal(m, f, g), ref_moyal(m, f, g))


@pytest.mark.parametrize("name", ["heis3_k4", "nonstandard4_k2"])
def test_moyal_mismatch_raises(name):
    m = TABLE_MODELS[name]()
    other = ModelSpace(abelian_lie(2), 2, m.order)
    with pytest.raises(ValueError, match="generator mismatch"):
        moyal(m, m.one(), other.one())
    low = Func(m.one().series.truncate(m.order - 1))
    with pytest.raises(ValueError, match="mismatched truncation orders"):
        moyal(m, m.one(), low)


@pytest.mark.parametrize("name", sorted(TABLE_MODELS))
def test_derivatives_match_reference(name):
    m = TABLE_MODELS[name]()
    rng = random.Random(5)
    for f in table_inputs(m, 43):
        partials = f.partials()
        for _ in range(4):
            d = [0] * len(m.gens)
            for _ in range(rng.randint(0, 3)):
                d[rng.randrange(len(m.gens))] += 1
            expect = f
            for i, k in enumerate(d):
                for _ in range(k):
                    expect = ref_func_diff(expect, m.gens[i])
            terms = partials[tuple(d)] or [{}]  # empty: vanishes by degree
            got = Func(LambdaSeries([Poly(m.gens, t) for t in terms], f.order),
                       f.profile, f.pi4)
            assert_same(got, expect)
        for name in m.gens:
            assert_same(f.diff(name), ref_func_diff(f, name))
            for p in f.series.coeffs:
                assert repr(p.diff(name)) == repr(ref_poly_diff(p, name))
        for g in table_inputs(m, 44):
            for p, q in zip(f.series.coeffs, g.series.coeffs):
                got, expect = p * q, ref_poly_mul(p, q)
                assert got == expect and repr(got) == repr(expect)


@pytest.mark.parametrize("name", sorted(TABLE_MODELS))
def test_mult_operator_matches_reference_table_models(name):
    m = TABLE_MODELS[name]()
    rng = random.Random(23)
    for _ in range(2):
        u = rand_poly(rng, m, m.base_names, 3)
        u = u + lam_shifted(rand_poly(rng, m, m.base_names, 2), 1)
        got, expect = mult_operator(m, u), ref_right_mult_operator(m, u)
        assert got == expect
        assert repr(got) == repr(expect)


def test_mult_operator_reads_no_partial_above_the_degree(monkeypatch):
    """The moyal_table levels above u's total degree are not read: u's
    Partials is asked for no multi-index above it, and the operator is the
    reference's."""
    m = ModelSpace(heisenberg3(), 2, 4)
    rng = random.Random(19)
    q, p = (m.var(n) for n in m.base_names)
    us = [m.zero(), m.one() * 3, q, lam_shifted(q * p, 2),
          rand_poly(rng, m, m.base_names, 2) + lam_shifted(rand_poly(rng, m, m.base_names, 1), 1)]
    asked = []
    real = Partials.__missing__

    def missing(self, d):
        asked.append((self.top, d))
        return real(self, d)

    monkeypatch.setattr(Partials, "__missing__", missing)
    for u in us:
        got = mult_operator(m, u)
        assert got == ref_right_mult_operator(m, u)
        assert repr(got) == repr(ref_right_mult_operator(m, u))
    assert asked and all(sum(d) <= top for top, d in asked)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_moyal_table_closed_form_on_the_plane(order):
    """Order r holds r+1 entries (q^k p^(r-k), p^k q^(r-k)) with coefficient
    (i/2)^r / r! * C(r, k) (-1)^(r-k)."""
    m = ModelSpace(heisenberg3(), 2, order)
    table = moyal_table(m, order)
    assert len(table) == order + 1
    pad = (0,) * (len(m.gens) - 2)
    for r, level in enumerate(table):
        expect = {}
        for k in range(r + 1):
            c = (IMAG * GaussRational(Fraction(1, 2))) ** r * GaussRational(
                Fraction(comb(r, k) * (-1) ** (r - k), factorial(r)))
            expect[((k, r - k) + pad, (r - k, k) + pad)] = c
        assert level == expect
    assert moyal_table(m, order) is table


def test_poly_keeps_first_coefficient():
    """A clean term dict is stored as given; only repeats are added."""
    c = GaussRational(3, -1)
    p = Poly(("q", "p"), {(1, 0): c, (0, 2): 5})
    assert p.terms[(1, 0)] is c
    assert p.terms[(0, 2)] == GaussRational(5)
    assert Poly(("q", "p"), {("1", "0"): 2, (1, 0): 3}).terms == {(1, 0): GaussRational(5)}
    assert Poly(("q", "p"), {("1", "0"): 2, (1, 0): -2}).is_zero()
    with pytest.raises(ValueError, match="exponent length"):
        Poly(("q", "p"), {(1,): 1})


# ---------------------------------------------------------------------------
# reference: lam-grading and grade bookkeeping rebuilt by hand
# ---------------------------------------------------------------------------


def ref_coeff(f, r):
    return Func(LambdaSeries.of(f.series.coeffs[r], f.order), f.profile, f.pi4)


def ref_graded_right_module(cfg, phi, u):
    """phi bullet_red u with u's pi grade stripped and added back."""
    out = right_module(cfg, phi, Func(u.series, u.profile, 0))
    return Func(out.series, out.profile, out.pi4 + u.pi4)


def ref_scale_series(x, s):
    return SuperObservable(
        x.model, {i: Func(f.series * s.series, f.profile, f.pi4) for i, f in x.comps.items()}
    )


def test_shift_and_coeff_match_rebuilds():
    m = ModelSpace(heisenberg3(), 2, 3)
    rng = random.Random(11)
    plain = rand_poly(rng, m, m.gens, 2) + lam_shifted(rand_poly(rng, m, m.gens, 2), 2)
    state = m.fiber_state(rand_poly(rng, m, m.base_names + m.group_names, 2))
    inputs = {
        "plain": plain,
        "enveloped": state,
        "graded": plain.with_pi4(6),
        "enveloped_graded": lam_shifted(state, 1).with_pi4(-3),
        "zero": m.zero(),
        "zero_enveloped": m.fiber_state(0).with_pi4(2),
    }
    for tag, f in inputs.items():
        for k in range(m.order + 3):
            got, expect = f.shift(k), lam_shifted(f, k)
            assert got == expect and repr(got) == repr(expect), (tag, k)
            assert (got.profile, got.pi4) == (f.profile, f.pi4), (tag, k)
        assert f.shift(m.order + 1).is_zero()
        for r in range(m.order + 1):
            got, expect = f.coeff(r), ref_coeff(f, r)
            assert got == expect and repr(got) == repr(expect), (tag, r)
            assert (got.profile, got.pi4) == (f.profile, f.pi4), (tag, r)
            assert all(c.is_zero() for c in got.series.coeffs[1:])
        assert sum((f.coeff(r).shift(r) for r in range(m.order + 1)), m.zero()) == f


def test_right_module_carries_the_grade():
    """right_module passes an inner product's pi grade through star_G and
    the deformed restriction, as the strip-and-restore wrapper did."""
    m = ModelSpace(heisenberg3(), 2, 2)
    cfg = ReductionConfig(m, Fraction(1, 2))
    rng = random.Random(5)
    states = [m.fiber_state(rand_poly(rng, m, m.base_names + m.group_names, 1))
              for _ in range(2)]
    ehat = fullness_element(m)
    cases = [(inner_product_red(cfg, states[0], states[1]), states[0], 6),
             (inner_product_red(cfg, ehat, ehat), states[1], 0)]
    for u, phi, grade in cases:
        assert u.pi4 == grade and not u.is_zero()
        assert_same(right_module(cfg, phi, u), ref_graded_right_module(cfg, phi, u))


def test_scale_by_series_matches_scale_series():
    m = ModelSpace(aff1(), 2, 3)
    cfg = ReductionConfig(m, [Fraction(1, 2), 3])
    rng = random.Random(3)
    x = SuperObservable(m, {(): rand_poly(rng, m, m.gens, 2),
                            (0,): rand_poly(rng, m, m.gens, 2).with_pi4(2),
                            (0, 1): rand_poly(rng, m, m.gens, 1)})
    s = (cfg.kappa * IMAG).shift(1)
    got, expect = x.scale(s), ref_scale_series(x, s)
    assert set(got.comps) == set(expect.comps)
    for idx in expect.comps:
        assert_same(got.comps[idx], expect.comps[idx])


@pytest.mark.parametrize("module", ["suites", "koszul"])
def test_no_hand_built_funcs(module):
    """Values are built by Func's own operations, never by its constructor."""
    with open(importlib.util.find_spec(f"redstar.{module}").origin) as fh:
        tree = ast.parse(fh.read())
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "Func"]
    assert calls == []


def assert_same_poly(got, terms):
    expect = Poly(got.gens, terms)
    assert got == expect and repr(got) == repr(expect)
    assert got.terms == expect.terms
    assert all(type(c) is GaussRational and not c.is_zero() for c in got.terms.values())


def validated_products(gens, pairs):
    """Poly(...) of the sum of left * right over (left, right) term dicts,
    each product of terms summed in GaussRational arithmetic."""
    sums = {}
    for left, right in pairs:
        for e1, c1 in left.items():
            for e2, c2 in right.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                sums[e] = sums.get(e, GaussRational(0)) + c1 * c2
    return sums


def test_trusted_mul_into_output_matches_validation():
    """_mul_into sums products as unnormalised triples and keeps the zero
    sums of cancelling terms; Poly._trusted_sums normalises each sum once
    and drops the zeros, as Poly(...) of the same products does."""
    gens = ("q", "p", "x")
    half = GaussRational(Fraction(1, 2), Fraction(-1, 3))
    left = {(1, 0, 0): half, (0, 1, 0): GaussRational(1)}
    right = {(1, 0, 0): GaussRational(1), (0, 1, 0): -half.inverse(), (0, 0, 2): IMAG}
    acc = {}
    _mul_into(acc, left, right)
    assert all(type(v) is tuple and len(v) == 3 for v in acc.values())
    assert any(not (a or b) for a, b, _ in acc.values())  # q*p cancels
    assert_same_poly(Poly._trusted_sums(gens, acc), validated_products(gens, [(left, right)]))
    rng = random.Random(9)
    for _ in range(20):
        acc, pairs = {}, []
        for _ in range(3):
            a, b = ({tuple(rng.randint(0, 2) for _ in gens):
                     GaussRational(Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 4)),
                                   rng.randint(-1, 1))
                     for _ in range(3)} for _ in range(2))
            _mul_into(acc, a, b)
            pairs.append((a, b))
        assert_same_poly(Poly._trusted_sums(gens, acc), validated_products(gens, pairs))


def test_trusted_mul_into_property():
    """Random mixed-denominator dicts, with each right factor also paired
    with its negative so that whole sums cancel: the finished triple
    accumulator equals Poly(...) of the products."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    gens = ("q", "p")
    scalars = st.builds(
        lambda a, b, d: GaussRational(Fraction(a, d), Fraction(b, d)),
        st.integers(-6, 6), st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6, 7, 12]))
    terms = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), scalars,
                            max_size=4)
    pair_lists = st.lists(st.tuples(terms, terms, st.booleans()), min_size=1, max_size=4)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(pair_lists)
    def check(items):
        acc, pairs = {}, []
        for left, right, cancel in items:
            plan = [(left, right)]
            if cancel:
                plan.append((left, {e: -c for e, c in right.items()}))
            for a, b in plan:
                _mul_into(acc, a, b)
                pairs.append((a, b))
        assert_same_poly(Poly._trusted_sums(gens, acc), validated_products(gens, pairs))

    check()


def test_trusted_diff_terms_match_validation():
    """Under an envelope exp(-q^2/2), d/dq of q^2 + 2 cancels its q terms."""
    gens = ("q", "p")
    terms = {(2, 0): GaussRational(1), (0, 0): GaussRational(2),
             (1, 1): GaussRational(Fraction(3, 4), 1)}
    out = _diff_terms(terms, 0, Fraction(-1))
    assert (1, 0) not in out
    assert_same_poly(Poly._trusted(gens, out), out)
    for env in (None, Fraction(-2, 3)):
        for i in range(2):
            out = _diff_terms(terms, i, env)
            assert_same_poly(Poly._trusted(gens, out), out)


# ---------------------------------------------------------------------------
# reference: every LambdaSeries and Func result through the validating
# constructors
# ---------------------------------------------------------------------------


def assert_same_series(got, expect):
    assert got == expect and repr(got) == repr(expect) and hash(got) == hash(expect)
    assert type(got.coeffs) is tuple and type(got.order) is int
    assert len(got.coeffs) == got.order + 1 == expect.order + 1
    assert [type(c) for c in got.coeffs] == [type(c) for c in expect.coeffs]


def ref_cauchy(a, b):
    out = [a.ring_zero()] * (a.order + 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs[: a.order + 1 - i]):
            out[i + j] = out[i + j] + x * y
    return LambdaSeries(out, a.order)


def series_rings(m):
    """(a, b, scalar) per case: Poly series, and series of constant Polys
    (the one form of a series of scalars)."""
    rng = random.Random(59)
    a = rand_poly(rng, m, m.gens, 2) + lam_shifted(rand_poly(rng, m, m.gens, 2), 2)
    b = lam_shifted(rand_poly(rng, m, m.gens, 2), 1)
    K = m.order
    gr = [GaussRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-1, 1))
          for _ in range(2 * K + 2)]
    return {
        "poly": (a.series, b.series, GaussRational(2, -1)),
        "poly_zero": (m.zero().series, a.series, 3),
        "gauss": (LambdaSeries([Poly.constant(m.gens, c) for c in gr[: K + 1]], K),
                  LambdaSeries([Poly.constant(m.gens, c) for c in gr[K + 1:]], K),
                  Fraction(1, 2)),
    }


def test_trusted_series_match_validating_construction():
    m = ModelSpace(heisenberg3(), 2, 3)
    K = m.order
    for a, b, x in series_rings(m).values():
        zero = a.ring_zero()
        cases = [
            (a * x, LambdaSeries([c * x for c in a.coeffs], K)),
            (a * b, ref_cauchy(a, b)),
            (-a, LambdaSeries([-c for c in a.coeffs], K)),
            (a.map(lambda c: c * 3), LambdaSeries([c * 3 for c in a.coeffs], K)),
            (a.conj(), LambdaSeries([c.conj() for c in a.coeffs], K)),
            (LambdaSeries.of(a.coeffs[1], K), LambdaSeries([a.coeffs[1]], K)),
            (a.zero_like(), LambdaSeries([zero], K)),
        ]
        cases += [(a.shift(k), LambdaSeries([zero] * k + list(a.coeffs), K))
                  for k in range(K + 3)]
        cases += [
            (a + b, LambdaSeries([c + d for c, d in zip(a.coeffs, b.coeffs)], K)),
            (a - b, LambdaSeries([c - d for c, d in zip(a.coeffs, b.coeffs)], K)),
            (a + x, LambdaSeries([a.coeffs[0] + x] + list(a.coeffs[1:]), K)),
        ]
        for got, expect in cases:
            assert_same_series(got, expect)


def func_cases(m):
    """Plain, lam-shifted, pi-graded, base-enveloped, fiber-enveloped and
    zero Funcs, each with a partner of the same envelope and grade."""
    rng = random.Random(61)
    base, fiber = m.base_names, (m.group_names or m.momentum_names)
    env = {base[0]: Fraction(1, 2)}

    def pair(profile, pi4, shift=0):
        return tuple(Func(lam_shifted(rand_poly(rng, m, m.gens, 2), shift).series,
                          profile, pi4) for _ in range(2))

    return {
        "plain": pair({}, 0),
        "shifted": pair({}, 0, 1),
        "graded": pair({}, 5),
        "enveloped": pair(env, 0),
        "enveloped_graded": pair({base[1]: 2, fiber[0]: Fraction(1, 3)}, -2, 2),
        "zero": (m.zero(), m.zero()),
        "zero_enveloped": (Func(m.zero().series, env, 1), Func(m.zero().series, env, 1)),
    }


def validated(series, profile, pi4, order=None):
    """The validating constructors around a list of coefficients."""
    order = len(series) - 1 if order is None else order
    return Func(LambdaSeries(list(series), order), dict(profile), pi4)


def product_profile(f, g):
    prof = dict(f.profile)
    for k, v in g.profile.items():
        prof[k] = prof.get(k, Fraction(0)) + v
    return prof


@pytest.mark.parametrize("name", ["heis3", "aff1"])
def test_trusted_funcs_match_validating_construction(name):
    """Every Func method, moyal, DiffOperator.apply and
    gaussian_integrate_shifted against Func(...) of LambdaSeries(...)."""
    m = ModelSpace(heisenberg3(), 2, 3) if name == "heis3" else ModelSpace(aff1(), 2, 3)
    K, gens = m.order, m.gens
    cases = func_cases(m)
    scalars = [3, Fraction(-1, 2), GaussRational(1, -2),
               Func(LambdaSeries([Poly.constant(gens, 2), Poly.constant(gens, GaussRational(0, 1))],
                                 K))]
    rng = random.Random(67)
    op = rand_operator(rng, m, top=3)
    for tag, (f, g) in cases.items():
        P, pi4 = f.profile, f.pi4
        c = f.series.coeffs
        checks = [
            (-f, validated([-p for p in c], P, pi4)),
            (f.conj(), validated([p.conj() for p in c], P, pi4)),
            (f * Func.constant(gens, 2, K).with_pi4(3),
             validated([p * 2 for p in c], P, pi4 + 3)),
            (op.apply(f), validated(op.apply(f).series.coeffs, P, pi4)),
        ]
        if not (f.is_zero() or g.is_zero()):
            checks += [(f + g, validated([a + b for a, b in zip(c, g.series.coeffs)], P, pi4)),
                       (f - g, validated([a - b for a, b in zip(c, g.series.coeffs)], P, pi4))]
        checks += [(f * x, Func(f.series * x, dict(P), pi4)) for x in scalars[:3]]
        checks.append((f * scalars[3], Func(ref_cauchy(f.series, scalars[3].series), dict(P),
                                            pi4)))
        checks += [(f.shift(k), validated([Poly.zero(gens)] * k + list(c), P, pi4, K))
                   for k in range(K + 3)]
        checks += [(f.coeff(r), validated([c[r]], P, pi4, K)) for r in range(K + 1)]
        for v in gens:
            ref = ref_func_diff(f, v)
            checks.append((f.diff(v), validated(ref.series.coeffs, ref.profile, ref.pi4)))
        names = [v for v in gens if v not in P]
        idx = [gens.index(v) for v in names]
        checks.append((f.set_zero(names), validated(
            [Poly(gens, {e: a for e, a in p.terms.items() if not any(e[i] for i in idx)})
             for p in c], P, pi4)))
        for other_tag, (h, _) in cases.items():
            prof = product_profile(f, h)
            checks.append((f * h, Func(ref_cauchy(f.series, h.series), prof, pi4 + h.pi4)))
            got = moyal(m, f, h)
            checks.append((got, Func(LambdaSeries(list(got.series.coeffs), K), dict(P),
                                     pi4 + h.pi4).with_profile(h.profile)))
        for got, expect in checks:
            assert_identical(got, expect)
    enveloped = [Func((f * g).series, {**(f * g).profile, m.base_names[0]: 1,
                                        m.base_names[1]: Fraction(1, 4)}, f.pi4 + g.pi4)
                 for f, g in cases.values()]
    shifts = [(0, 0), (1, 1), (2, 0), (0, 3)]
    for f in enveloped:
        for top in (0, 1, K):
            got = gaussian_integrate_shifted(f, m.base_names, shifts, top)
            rest = {v: a for v, a in f.profile.items()
                    if v not in m.base_names and not f.is_zero()}
            for val in got:
                assert all(p.is_zero() for p in val.series.coeffs[top + 1:])
                assert_identical(val, validated(val.series.coeffs[: top + 1], rest,
                                                f.pi4 + 2 * len(m.base_names), K))
    assert any(not f.is_zero() for f in enveloped)


# modules that may build a Poly, LambdaSeries or Func from its parts without
# validation (series owns LambdaSeries._trusted, which its own arithmetic
# uses), and modules that may build a GaussRational from a raw integer triple
TRUSTED = {"poly", "series", "funcs", "diffop", "starprod", "integrate"}
RAW_SCALAR = {"scalars", "poly"}
# where user input arrives or kernel results are combined: always validated
VALIDATED = {"cli", "suites", "koszul", "involution", "morita", "geometry", "linalg"}


@pytest.mark.parametrize("module", ["__init__"] + sorted(
    m.name for m in pkgutil.iter_modules(redstar.__path__)))
def test_unvalidated_construction_stays_in_the_kernels(module):
    name = "redstar" if module == "__init__" else f"redstar.{module}"
    with open(importlib.util.find_spec(name).origin) as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert VALIDATED <= {m.name for m in pkgutil.iter_modules(redstar.__path__)}
    assert not VALIDATED & TRUSTED
    if module not in TRUSTED:
        assert not names & {"_trusted", "_trusted_sums", "_trusted_orders"}
    if module not in RAW_SCALAR:
        assert not names & {"_make", "_triple"}


@pytest.mark.parametrize("module", ["__init__"] + sorted(
    m.name for m in pkgutil.iter_modules(redstar.__path__) if m.name != "starprod"))
def test_symbol_ops_are_built_in_starprod(module):
    """No module outside starprod calls SymbolOp(...): the symbol calculus
    comes from its quantizations, and an operator with another generator
    factor is a subclass with its own constructors."""
    name = "redstar" if module == "__init__" else f"redstar.{module}"
    with open(importlib.util.find_spec(name).origin) as fh:
        tree = ast.parse(fh.read())
    calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and "SymbolOp" in (getattr(node.func, "id", None),
                                getattr(node.func, "attr", None))]
    assert calls == []


@pytest.mark.parametrize("module", sorted(
    m.name for m in pkgutil.iter_modules(redstar.__path__)))
def test_every_import_is_used(module):
    """Every name a module imports, at the top or inside a function, is
    read somewhere in it; __init__ imports only to re-export."""
    with open(importlib.util.find_spec(f"redstar.{module}").origin) as fh:
        tree = ast.parse(fh.read())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                node, "module", None) != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {n: line for n, line in imported.items() if n not in used} == {}


# the private helpers that one module of redstar may import from another:
# the term-dict kernels of poly, the scalar constructor, the Leibniz splits,
# the multiplication by i lam, the PBW normal ordering and the Koszul resolvent
PRIVATE_IMPORTS = {"poly._mul_into", "poly._scale", "poly._accumulate", "poly._diff_terms",
                   "scalars._make", "diffop._leibniz_splits", "diffop._diff_monomials",
                   "starprod._mul_ilam",
                   "starprod._normal_order", "koszul._neumann_resolve"}


def test_cross_module_private_imports_are_the_allow_list():
    """The _private names that the modules of redstar import from one
    another are exactly PRIVATE_IMPORTS."""
    found = set()
    for info in pkgutil.iter_modules(redstar.__path__):
        with open(importlib.util.find_spec(f"redstar.{info.name}").origin) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                source = node.module if node.level else node.module.removeprefix("redstar.")
                found |= {f"{source}.{alias.name}" for alias in node.names
                          if alias.name.startswith("_")}
    assert found == PRIVATE_IMPORTS


def test_only_geometry_names_the_memo_dicts():
    """ModelSpace._field_cache and LieAlgebraData.pbw_tables are read and
    written by geometry.memo alone: no other module of redstar names either
    dict, as an attribute, a variable or a string."""
    names = {"_field_cache", "pbw_tables"}
    found = {}
    for info in pkgutil.iter_modules(redstar.__path__):
        with open(importlib.util.find_spec(f"redstar.{info.name}").origin) as fh:
            tree = ast.parse(fh.read())
        found[info.name] = {
            node.attr if isinstance(node, ast.Attribute)
            else node.id if isinstance(node, ast.Name) else node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in names
            or isinstance(node, ast.Name) and node.id in names
            or isinstance(node, ast.Constant) and node.value in names}
    assert found.pop("geometry") == names
    assert {module: seen for module, seen in found.items() if seen} == {}


def test_every_private_function_is_used():
    """Every module-level _private function of redstar is read somewhere in
    the package outside its own definition, so a deletion leaves no
    orphaned helper behind."""
    trees = {}
    for info in pkgutil.iter_modules(redstar.__path__):
        with open(importlib.util.find_spec(f"redstar.{info.name}").origin) as fh:
            trees[info.name] = ast.parse(fh.read())
    private = [(module, node.name) for module, tree in trees.items() for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
               and not node.name.startswith("__")]
    read = set()
    for tree in trees.values():
        for top in tree.body:
            names = {n.id for n in ast.walk(top) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(top) if isinstance(n, ast.Attribute)}
            if isinstance(top, ast.FunctionDef):
                names.discard(top.name)
            read |= names
    assert private
    assert [f"{module}.{name}" for module, name in private if name not in read] == []


# ---------------------------------------------------------------------------
# reference: the lam-series loops that terminating_series replaces
# ---------------------------------------------------------------------------


def ref_left_exp(op):
    """The former exp loop: A^k = A o A^(k-1), each power scaled by 1/k!."""
    out = power = DiffOperator.identity(op.gens, op.order)
    for k in range(1, op.order + 1):
        power = op.compose(power)
        if power.is_zero():
            break
        out = out + power * GaussRational(Fraction(1, factorial(k)))
    return out


def ref_right_momentum_operator(model, a):
    """R_a with its ad-series summed by the former loop over
    term = ad_A(term) * (-1/k)."""
    op = starprod._gutt_right_operator(model, a)
    if model.has_group:
        arg = starprod._normalization_exponent(model)
        shift = arg.apply(model.momentum(a))
        op = op + DiffOperator(model.gens, model.order, [
            {(0,) * len(model.gens): p} for p in shift.series.coeffs])
        term = op
        for k in range(1, model.order + 1):
            term = (arg.compose(term) - term.compose(arg)) * GaussRational(
                Fraction(-1, k))
            if term.is_zero():
                break
            op = op + term
    return op


def ref_log_loop(model, i_map, u):
    """The former logarithm: powers of I - id summed with (-1)^(k+1)/k."""
    power = i_map(u) - u
    total = model.zero()
    for k in range(1, model.order + 1):
        total = total + power * GaussRational(Fraction((-1) ** (k + 1), k))
        if k < model.order:
            power = i_map(power) - power
            if power.is_zero():
                break
    return total


def ref_cauchy_inverse(a):
    """The former pointwise inverse, one coefficient per order by the Cauchy
    recursion v_r = -c0^-1 sum_(j >= 1) a_j v_(r-j)."""
    c0inv = _leading_constant(a).inverse()
    minus = -c0inv
    s = a.series
    coeffs = [s.ring_zero() + c0inv]
    for r in range(1, s.order + 1):
        acc = s.ring_zero()
        for j in range(1, r + 1):
            if not s.coeffs[j].is_zero():
                acc = acc + s.coeffs[j] * coeffs[r - j]
        coeffs.append(acc * minus)
    return Func(LambdaSeries(coeffs, s.order))


def ref_series_sqrt(a, mul):
    """The former square root, each order corrected against the whole
    defect a - mul(v, v)."""
    root = GaussRational(rational_sqrt(_leading_constant(a).re))
    v = a.zero_like() + root
    half_inv = GaussRational(1) / (root * 2)
    for r in range(1, a.order + 1):
        defect = a - mul(v, v)
        v = v + (defect.coeff(r) * half_inv).shift(r)
    return v


def ref_vertical_sqrt(cfg, h):
    """The former vertical square root: half of the order-r slice of the
    defect H - V* V added at every order."""
    v = VerticalOperator.identity(cfg.model)
    for r in range(1, cfg.model.order + 1):
        defect = h - v.adjoint().compose(v)
        v = v + defect.lam_slice(r).scale(GaussRational(Fraction(1, 2)))
    return v


SERIES_NORMALIZER_CASES = [(name, base, K) for name, base in
                           (("heis3", 2), ("heis3", 4), ("abelian2", 2))
                           for K in (2, 3, 4, 5)]


@pytest.mark.parametrize("name,base,K", SERIES_NORMALIZER_CASES,
                         ids=[f"{n}_base{b}-{K}" for n, b, K in SERIES_NORMALIZER_CASES])
def test_normalizer_matches_power_loop(name, base, K):
    m = ModelSpace(SHORTCUT_MODELS[name](), base, K)
    assert_same_operator(neumaier_N(m), ref_left_exp(starprod._normalization_exponent(m)))


@pytest.mark.parametrize("K", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(STEP_MODELS))
def test_right_momentum_operator_matches_ad_loop(name, K):
    m = STEP_MODELS[name](K)
    ref = STEP_MODELS[name](K)
    for a in range(m.lie.dim):
        assert_same_operator(right_momentum_operator(m, a),
                             ref_right_momentum_operator(ref, a))


@pytest.mark.parametrize("name", sorted(STEP_MODELS))
def test_modular_log_matches_power_loop(name):
    """D on every base monomial of degree <= 3, for the five weights of
    adjoint_weights whose images stay on the base."""
    m = STEP_MODELS[name](3)
    monos = [monomial(m, m.base_names, e) for e in monomials(m.base_names, 3)]
    weights = {k: w for k, w in adjoint_weights(m).items() if k != "group"}
    assert len(weights) == 5
    for label, omega in weights.items():
        i_map, d_map = involution._modular_maps(m, omega)
        for mono in monos:
            assert_same(d_map(mono), ref_log_loop(m, i_map, mono))


def random_series(rng, m, c0):
    """A Func: a lam-series of base polynomials with the constant c0 at
    order 0."""
    coeffs = [Poly.constant(m.gens, c0)]
    coeffs += [rand_poly(rng, m, m.base_names, 2).series.coeffs[0]
               for _ in range(m.order)]
    return Func(LambdaSeries(coeffs, m.order))


def test_series_inverse_and_sqrt_match_former_loops():
    """Pointwise and under moyal, on random series of base polynomials with
    constant leading terms, by == and repr."""
    m = ModelSpace(heisenberg3(), 2, 4)
    rng = random.Random(97)

    def star(a, b):
        return moyal(m, a, b)

    for c0 in (Fraction(1), Fraction(4), Fraction(9, 4), Fraction(1, 9)):
        for _ in range(3):
            a = random_series(rng, m, c0)
            for got, expect in ((series_inverse(a), ref_cauchy_inverse(a)),
                                (series_inverse(a), ref_series_inverse(a)),
                                (series_inverse(a, star), ref_series_inverse(a, star)),
                                (series_sqrt(a), ref_series_sqrt(a, mul)),
                                (series_sqrt(a, star), ref_series_sqrt(a, star))):
                assert got == expect
                assert repr(got) == repr(expect)


def hermitian_vertical_operators(m):
    """id + X + X^* for lam-graded X with coefficients in the group
    coordinates and words of length up to 2."""
    one = Func.one(m.gens, m.order)
    g = m.var(m.group_names[0])
    l0 = VerticalOperator.fundamental(m, 0)
    l1 = VerticalOperator.fundamental(m, 1)
    xs = [l0.compose(l0).lam_shift(1),
          VerticalOperator.multiplication(m, g * g + one).compose(l1).lam_shift(1),
          l0.compose(l1).lam_shift(2) + VerticalOperator.multiplication(
              m, g * GaussRational(0, 1)).lam_shift(1)]
    return [VerticalOperator.identity(m) + x + x.adjoint() for x in xs]


def test_vertical_sqrt_matches_defect_loop():
    m = ModelSpace(heisenberg3(), 2, 3)
    cfg = ReductionConfig(m)
    for h in hermitian_vertical_operators(m):
        assert (h.adjoint() - h).is_zero()
        v = vertical_sqrt(cfg, h)
        assert (v - ref_vertical_sqrt(cfg, h)).is_zero()
        assert (v.adjoint().compose(v) - h).is_zero()


# ---------------------------------------------------------------------------
# reference: the warm step's former scaffolding: the composition loop over
# lam pairs that differentiates each right coefficient anew for every left
# entry, the involution's target as an application at 1, the perturbation
# as a SuperObservable difference and one finisher call per empty lam order
# ---------------------------------------------------------------------------


def ref_operator_compose(a, b):
    """The former DiffOperator.compose: for every pair of lam orders, left
    entry and Leibniz split, each right coefficient differentiated by the
    remainder (diffop._diff_monomials, looked up at call time), every
    coordinate of the remainder read."""
    if a.gens != b.gens or a.order != b.order:
        raise ValueError("operator mismatch")
    acc = [{} for _ in range(a.order + 1)]
    for r1, t1 in enumerate(a.tables):
        for r2, t2 in enumerate(b.tables):
            if r1 + r2 > a.order:
                break
            tgt = acc[r1 + r2]
            for d1, c1 in t1.items():
                for split, dcoeff in _leibniz_splits(d1):
                    rest = tuple(map(sub, d1, split))
                    left = c1.terms
                    if dcoeff != 1:
                        left = {e: _scale(c, dcoeff) for e, c in left.items()}
                    for d2, c2 in t2.items():
                        right = diffop._diff_monomials(c2.terms, rest)
                        if right:
                            d = tuple(map(add, split, d2))
                            _mul_into(tgt.setdefault(d, {}), left, right)
    tabs = tuple({d: p for d, t in tab.items()
                  if (p := Poly._trusted_sums(a.gens, t)).terms} for tab in acc)
    return DiffOperator._trusted(a.gens, a.order, tabs)


def ref_diff_monomials(terms, m):
    """The former _diff_monomials: perm over every coordinate of m."""
    if not any(m):
        return terms
    out = {}
    for e, c in terms.items():
        k = prod(perm(ei, mi) for ei, mi in zip(e, m))
        if k:
            out[tuple(map(sub, e, m))] = _scale(c, k)
    return out


def assert_same_layout(got, expect):
    """Equal operators by ==, repr, hash of every coefficient, and the same
    entry order in each lam table and term order in each coefficient."""
    assert got == expect and repr(got) == repr(expect)
    assert type(got.tables) is tuple and len(got.tables) == got.order + 1
    for t1, t2 in zip(got.tables, expect.tables):
        assert list(t1) == list(t2)
        for d, c in t1.items():
            assert hash(c) == hash(t2[d]) and list(c.terms) == list(t2[d].terms)
            assert c.terms and all(type(v) is GaussRational for v in c.terms.values())


COMPOSE_MODELS = {
    "heis3": lambda: ModelSpace(heisenberg3(), 2, 3),
    "aff1": lambda: ModelSpace(aff1(), 2, 3),
    "heis3_base4": lambda: ModelSpace(heisenberg3(), 4, 3),
}


def compose_operands(m, seed):
    """Random lam-graded operators, a rotation field whose composition with
    q^2 + p^2 cancels its d = 0 entry, lam-shifted mult_operators, the
    first-order adjoints of the gaussian and prefactor weights, the zero,
    and on group models N's exponent."""
    rng = random.Random(seed)
    q, p = m.base_names[:2]
    qv, pv = m.var(q).series.coeffs[0], m.var(p).series.coeffs[0]
    rotation = DiffOperator.first_order(m.gens, m.order, {q: pv, p: -qv})
    radius = DiffOperator.multiplication(qv * qv + pv * pv, m.order)
    weights = adjoint_weights(m)
    firsts = [DiffOperator.partial(m.gens, n, m.order).formal_adjoint(weights[w])
              for w in ("gaussian", "prefactor") for n in (q, p)]
    u = rand_poly(rng, m, m.base_names, 3) + lam_shifted(rand_poly(rng, m, m.base_names, 2), 1)
    ops = [rand_operator(rng, m) for _ in range(3)]
    ops += [rand_operator(rng, m, top=2).lam_shift(1), rotation, radius,
            mult_operator(m, u).lam_shift(1), DiffOperator.zero(m.gens, m.order)]
    ops += firsts
    if m.has_group:
        ops.append(starprod._normalization_exponent(m))
    return ops, (rotation, radius)


@pytest.mark.parametrize("name", sorted(COMPOSE_MODELS))
def test_compose_matches_former_loop(name):
    """compose on flattened right entries with one derivative per (entry,
    remainder) gives the former loop's operator, entry order and term order
    included, on every pair of operands."""
    m = COMPOSE_MODELS[name]()
    ops, (rotation, radius) = compose_operands(m, 131)
    for a in ops:
        for b in ops:
            assert_same_layout(a.compose(b), ref_operator_compose(a, b))
    origin = (0,) * len(m.gens)
    assert origin not in rotation.compose(radius).tables[0]  # p 2q - q 2p
    assert rotation.compose(radius).tables[0]


def test_compose_differentiates_each_right_entry_once_per_remainder(monkeypatch):
    """One compose differentiates each (right entry, remainder) at most
    once, where the former loop repeats them; every derivative asked for
    reads perm only on the nonzero coordinates of the remainder."""
    m = ModelSpace(heisenberg3(), 2, 4)
    ops, _ = compose_operands(m, 137)
    seen = []
    perms = []
    real_diff, real_perm = diffop._diff_monomials, diffop.perm

    def counted_diff(terms, rest):
        seen.append((id(terms), rest))
        return real_diff(terms, rest)

    def counted_perm(n, k):
        perms.append(k)
        return real_perm(n, k)

    monkeypatch.setattr(diffop, "_diff_monomials", counted_diff)
    monkeypatch.setattr(diffop, "perm", counted_perm)
    repeated = 0
    for a in ops:
        for b in ops:
            ids = [id(c.terms) for t in b.tables for c in t.values()]
            assert len(set(ids)) == len(ids)
            del seen[:]
            a.compose(b)
            assert len(set(seen)) == len(seen)
            del seen[:]
            ref_operator_compose(a, b)
            repeated += len(seen) - len(set(seen))
    assert repeated > 0
    assert perms and 0 not in perms
    for omega in adjoint_weights(m).values():
        mult_operator(m, rand_poly(random.Random(139), m, m.base_names, 4)).formal_adjoint(omega)
    assert 0 not in perms


def test_diff_monomials_match_the_full_product():
    rng = random.Random(149)
    m = ModelSpace(heisenberg3(), 4, 3)
    for _ in range(40):
        terms = rand_poly(rng, m, m.gens, 5, nterms=5).series.coeffs[0].terms
        rest = tuple(rng.choice((0, 0, 0, 1, 2)) for _ in m.gens)
        got, expect = diffop._diff_monomials(terms, rest), ref_diff_monomials(terms, rest)
        assert got == expect and list(got) == list(expect)


def ref_involution_by_apply(model, u, omega):
    """The former reduced_involution: the target is the adjoint applied to
    the constant function 1."""
    _, inverse = involution._involution_steps(model, omega)
    target = mult_operator(model, u).formal_adjoint(omega).apply(model.one()).conj()
    return inverse.apply(target).conj()


@pytest.mark.parametrize("name", sorted(COMPOSE_MODELS))
def test_involution_target_is_the_adjoint_column(name):
    """The d = 0 column of the adjoint is its application to 1 (at_one,
    also on random and zero operators), so the involution is that of the
    former target on every weight of adjoint_weights."""
    m = COMPOSE_MODELS[name]()
    rng = random.Random(151)
    base = m.base_names
    one = m.one()
    for op in [rand_operator(rng, m) for _ in range(3)] + [
            rand_operator(rng, m, top=2).lam_shift(2), DiffOperator.zero(m.gens, m.order)]:
        assert_identical(op.at_one(), op.apply(one))
    us = [rand_poly(rng, m, base, 3) + lam_shifted(rand_poly(rng, m, base, 2), 1),
          lam_shifted(rand_poly(rng, m, base, 2), m.order), m.one(), m.zero()]
    for label, omega in adjoint_weights(m).items():
        for u in us:
            assert_identical(reduced_involution(m, u, omega),
                             ref_involution_by_apply(m, u, omega))


def ref_perturbation(cfg, f):
    """The former _perturbation: qk_1 h_0 f - k_1 h_0 f as SuperObservables,
    the difference formed by a rescale by -1."""
    model = cfg.model
    hx = homotopy_h(model, SuperObservable.scalar(model, f), 0)
    diff = quantized_koszul(cfg, hx) - koszul(model, hx)
    return diff.comps.get((), model.zero())


@pytest.mark.parametrize("name", ["heis3", "aff1", "abelian1"])
def test_perturbation_matches_superobservable_difference(name):
    """Plain, lam-shifted, pi-graded and enveloped inputs, momentum-free
    ones (zero) and one whose perturbation vanishes at the top order; a
    zero difference is the plain zero."""
    m = {"heis3": lambda: ModelSpace(heisenberg3(), 2, 4),
         "aff1": lambda: ModelSpace(aff1(), 2, 4),
         "abelian1": lambda: ModelSpace(abelian_lie(1), 2, 3)}[name]()
    cfg = ReductionConfig(m, Fraction(1, 3))
    rng = random.Random(157)
    rest = m.base_names + m.group_names
    inputs = [rand_poly(rng, m, m.gens, 4, nterms=4) + m.momentum(0)
              for _ in range(3)]
    inputs += [lam_shifted(rand_poly(rng, m, m.gens, 3) * m.momentum(0), 1).with_pi4(2),
               lam_shifted(m.momentum(0), m.order),
               rand_poly(rng, m, rest, 2), m.zero()]
    if m.has_group:
        inputs.append(m.fiber_state(rand_poly(rng, m, m.gens, 2) * m.momentum(m.lie.dim - 1)))
    zeros = 0
    for f in inputs:
        got, expect = _perturbation(cfg, f), ref_perturbation(cfg, f)
        assert_identical(got, expect)
        if got.is_zero():
            zeros += 1
            assert not got.profile and got.pi4 == 0
    assert zeros >= 2


def test_empty_lam_orders_keep_their_repr():
    """apply, apply_sum, moyal and the symbol product give every empty lam
    order one shared zero Poly, with the former finishers' value, repr and
    hash."""
    m = ModelSpace(heisenberg3(), 2, 4)
    rng = random.Random(163)
    base = m.base_names
    f = rand_poly(rng, m, m.gens, 2)
    g = lam_shifted(rand_poly(rng, m, base, 2), 1)
    field = m.left_invariant_field(0)
    outputs = [(field.apply(f), ref_apply_unpruned(field, f)),
               (field.apply(g), ref_apply_unpruned(field, g)),
               (moyal(m, m.var(base[0]), m.var(base[1])),
                ref_moyal_total_cut(m, m.var(base[0]), m.var(base[1]))),
               (moyal(m, g, g), ref_moyal_total_cut(m, g, g))]
    pairs = [(field, f), (m.left_invariant_field(1), f)]
    outputs.append((diffop.apply_sum(pairs),
                    ref_apply_unpruned(pairs[0][0], f) + ref_apply_unpruned(pairs[1][0], f)))
    a, b = _symmetrize(m, m.momentum(0)), _symmetrize(m, m.momentum(1))
    outputs.append((starprod._symbol_product(m, a, b), _dequantize(m, ref_compose(a, b))))
    empty = 0
    for got, expect in outputs:
        assert_identical(got, expect)
        zeros = [p for p in got.series.coeffs if not p.terms]
        empty += len(zeros)
        assert len({id(p) for p in zeros}) <= 1
    assert empty >= 6


def test_make_matches_gauss_rational_normalisation():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ints = st.integers(-10**6, 10**6)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(ints, ints, ints.filter(bool))
    def check(a, b, d):
        got = _make(a, b, d)
        expect = GaussRational(Fraction(a, d), Fraction(b, d))
        assert type(got) is GaussRational
        assert (got.a, got.b, got.d) == (expect.a, expect.b, expect.d)
        assert got == expect and hash(got) == hash(expect) and repr(got) == repr(expect)
        assert got.d > 0 and gcd(got.a, got.b, got.d) == 1

    check()


# ---------------------------------------------------------------------------
# reference: the moment pass pairing every term with every shift, the
# comparison system over f times the fiber state of 1, and a Partials built
# on every call
# ---------------------------------------------------------------------------


def ref_moment(ks, decay):
    """prod_i (k_i - 1)!! / (2 a_i)^(k_i / 2) / sqrt(a_i), or None for an odd
    k_i."""
    if any(k % 2 for k in ks):
        return None
    out = Fraction(1)
    for k, (a, root) in zip(ks, decay):
        out *= Fraction(double_factorial(k - 1)) / (2 * a) ** (k // 2) / root
    return out


def ref_gaussian_integrate_shifted(f, block, shifts, top):
    """The dense per-shift pass: every term of f against every shift over a
    memo of its own, each moment summed in GaussRational arithmetic and each
    shift's result built by the validating constructors."""
    gens, order = f.gens, f.order
    pi4 = f.pi4 + 2 * len(block)
    if f.is_zero():
        return [Func(f.series, {}, pi4) for _ in shifts]
    decay = [(f.profile[g], rational_sqrt(f.profile[g])) for g in block]
    idxs = [gens.index(g) for g in block]
    memo = {}
    coeffs = [[] for _ in shifts]
    for p in f.series.coeffs[: top + 1]:
        sums = [{} for _ in shifts]
        for expo, c in p.terms.items():
            key = tuple(0 if i in idxs else k for i, k in enumerate(expo))
            for acc, s in zip(sums, shifts):
                shifted = tuple(expo[i] + k for i, k in zip(idxs, s))
                if shifted not in memo:
                    memo[shifted] = ref_moment(shifted, decay)
                if memo[shifted] is not None:
                    acc[key] = acc.get(key, GaussRational(0)) + c * GaussRational(memo[shifted])
        for out, acc in zip(coeffs, sums):
            out.append(Poly(gens, acc))
    remaining = {g: a for g, a in f.profile.items() if g not in block}
    zero = Poly.zero(gens)
    return [Func(LambdaSeries(out + [zero] * (order + 1 - len(out)), order), remaining, pi4)
            for out in coeffs]


def moment_cases(m):
    """Integrands over heis3's group block: odd moments, a lam shift and a
    pi-grade under two fiber envelopes, one with a base envelope too, terms
    of a single parity, and zero under an envelope."""
    rng = random.Random(83)
    g1, g2, g3 = m.group_names
    q = m.base_names[0]
    odd = m.var(g1) * m.var(q) + m.var(g2) * m.var(g3) * m.var(g3)
    cases = []
    for a in (1, Fraction(1, 4)):
        fiber = {g: a for g in m.group_names}
        f = odd + rand_poly(rng, m, m.gens, 4) + lam_shifted(rand_poly(rng, m, m.gens, 3), 1)
        cases.append(f.with_profile(fiber).with_pi4(-3))
        cases.append(lam_shifted(f, 2).with_profile({**fiber, q: Fraction(1, 2)}))
    single = (m.var(g1) * m.var(g2) * (m.var(q) + 2) + lam_shifted(m.var(g1) * m.var(g2), 1))
    cases.append(single.with_profile({g: 1 for g in m.group_names}).with_pi4(2))
    cases.append(m.zero().with_profile({g: 4 for g in m.group_names}))
    return cases


def parity(s):
    return tuple(k % 2 for k in s)


@pytest.mark.parametrize("top", ["zero", "K"])
def test_parity_moment_pass_matches_dense_pass(top):
    """The pass with parity buckets and the moment table gives the dense
    per-shift pass's values and reprs at top 0 and K, on odd moments, lam
    shifts, pi-grades and two envelopes, and every shift that no term
    meets gets one shared zero."""
    m = ModelSpace(heisenberg3(), 2, 3)
    gnames = m.group_names
    shifts = monomials(gnames, 3)
    top = 0 if top == "zero" else m.order
    idxs = [m.gens.index(g) for g in gnames]
    shared = 0
    for f in moment_cases(m):
        got = gaussian_integrate_shifted(f, gnames, shifts, top)
        expect = ref_gaussian_integrate_shifted(f, gnames, shifts, top)
        assert len(got) == len(expect) == len(shifts)
        for val, ref in zip(got, expect):
            assert_identical(val, ref)
        if f.is_zero():
            continue
        met = {parity([e[i] for i in idxs]) for p in f.series.coeffs[: top + 1] for e in p.terms}
        unmet = [val for val, s in zip(got, shifts) if parity(s) not in met]
        assert all(val is unmet[0] for val in unmet)
        assert not any(val is unmet[0] for val, s in zip(got, shifts) if parity(s) in met)
        shared += len(unmet)
    assert shared >= 2 * len(shifts)


def test_warm_moment_table_gives_the_fresh_results(monkeypatch):
    """A pass over the warm process-wide moment table gives the values and
    reprs of a pass over an empty one; the table holds even exponents only,
    each at its moment, and a second pass adds nothing to it."""
    m = ModelSpace(heisenberg3(), 2, 3)
    gnames = m.group_names
    shifts = monomials(gnames, 3)
    cases = moment_cases(m)

    def passes():
        return [gaussian_integrate_shifted(f, gnames, shifts, top)
                for f in cases for top in (0, m.order)]

    passes()
    warm = passes()
    monkeypatch.setattr(integrate, "MOMENTS", {})
    fresh = passes()
    for got, expect in zip(warm, fresh):
        for val, ref in zip(got, expect):
            assert_identical(val, ref)
    table = integrate.MOMENTS
    assert len(table) == 2
    size = {decay: len(moments) for decay, moments in table.items()}
    passes()
    assert {decay: len(moments) for decay, moments in table.items()} == size
    for decay, moments in table.items():
        for ks, mom in moments.items():
            assert not any(k % 2 for k in ks) and mom == ref_moment(ks, decay)


def ref_comparison_system(model, ket, pexps, words, gexps):
    """The comparison system with each integrand multiplied by the fiber
    state of 1 and each column entry kept when not Func.is_zero."""
    gnames = model.group_names
    env = model.fiber_state(model.one())
    n, width = len(pexps), len(gexps)
    shifts = [tuple(map(add, a, e)) for a in pexps for e in gexps]
    zero = Poly.zero(model.gens)
    columns = [[zero] * (n * n) for _ in range(len(words) * width)]
    values = [None] * (n * n)
    for j, a in enumerate(pexps):
        psi = model.fiber_state(monomial(model, gnames, a))
        values[j::n] = ref_gaussian_integrate_shifted(ket(psi) * env, gnames, pexps,
                                                      model.order)
        act = word_actions(model, psi)
        for k, w in enumerate(words):
            vals = ref_gaussian_integrate_shifted(act(w) * env, gnames, shifts, 0)
            for s, val in enumerate(vals):
                if not val.is_zero():
                    i, l = divmod(s, width)
                    columns[k * width + l][i * n + j] = val.series.coeffs[0]
    return columns, values


def test_comparison_system_matches_the_env_product():
    """_comparison_system with the envelope added by with_profile and its
    entries read off order 0 gives the columns and targets of the product
    with the fiber state of 1 and Func.is_zero, for the identity ket and a
    perturbed one."""
    m = ModelSpace(heisenberg3(), 2, 3)
    gnames = m.group_names
    l0 = VerticalOperator.fundamental(m, 0)
    pert = VerticalOperator.identity(m) + l0.compose(l0).lam_shift(1)
    pexps, words, gexps = monomials(gnames, 2), pbw_words(m.lie.dim, 2), monomials(gnames, 1)
    for ket in (lambda psi: psi, pert.apply):
        columns, values = _comparison_system(m, ket, pexps, words, gexps)
        ref_columns, ref_values = ref_comparison_system(m, ket, pexps, words, gexps)
        assert len(columns) == len(ref_columns) == len(words) * len(gexps)
        for col, ref_col in zip(columns, ref_columns):
            assert col == ref_col and list(map(repr, col)) == list(map(repr, ref_col))
        assert any(p.terms for col in columns for p in col)
        for val, ref in zip(values, ref_values):
            assert_identical(val, ref)


def test_partials_are_built_once_per_func():
    """f.partials() is one object on every call; after apply and moyal have
    filled it and the Partials of an equal Func built afresh, both hold the
    same derivatives, each the chain of Func.diff it stands for, and the
    warm cache gives apply and moyal the results of a fresh one."""
    m = ModelSpace(heisenberg3(), 2, 4)
    inputs = stream_inputs(m, 31)
    ops = pruning_operators(m, gaussian_base_weight(m, 1))
    filled = 0
    for f in inputs:
        p = f.partials()
        assert type(p) is Partials and f.partials() is p
        twin = Func(f.series, f.profile, f.pi4)
        fresh = twin.partials()
        assert fresh is not p
        results = []
        for h in (f, twin):
            results.append([op.apply(h) for op in ops]
                           + [moyal(m, h, g) for g in inputs[:3]]
                           + [moyal(m, g, h) for g in inputs[:3]])
        assert f.partials() is p and twin.partials() is fresh
        for got, expect in zip(*results):
            assert_identical(got, expect)
        assert dict(p) == dict(fresh) and (p.top, p.bound) == (fresh.top, fresh.bound)
        for d, coeffs in p.items():
            ref = f
            for name, k in zip(m.gens, d):
                for _ in range(k):
                    ref = ref_func_diff(ref, name)
            assert coeffs == [q.terms for q in ref.series.coeffs], d
        filled += len(p)
    assert filled > 4 * len(inputs)
