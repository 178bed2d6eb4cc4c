"""Star products on the product model.

The base carries the constant-coefficient exponential bidifferential product
(the Weyl-Moyal product for the matrix Lam), expanded once per model into
moyal_table; the kernel _moyal_into, which adds a product into the caller's
triple accumulators, and mult_operator apply that table to Func.partials on
term dicts, reading no level above an operand's total degree.  Lam is
antisymmetric, so moyal_commutator is twice the odd levels of one pass.
The cotangent factor carries products built from one PBW word calculus:
normal ordering of words
in the generators with [J_a, J_b] = i lam C_ab^c J_c, symmetrized
quantization of momentum polynomials and its inverse.  All three are linear
over the coefficients, so each reads tables of rationals that depend on
the structure constants only, built once per algebra by geometry.memo and
keyed by sorted words only: _insert (a letter put before a sorted word),
_sym_table and _inverse_table.  _normal_order keeps nothing: it inserts the
letters of a word before its longest sorted suffix, so a warm process holds
one table per sorted word met, however many unsorted words it pushes.
Normal ordering does one Func operation per output word; symmetrization
sums each output word's coefficient on triples from one pass over the
symbol's terms.  On
group models the words are left-invariant derivatives, group fields act on
the coefficients, and the calculus gives the standard-ordered product; its
Hermitian normalization conjugates with N = exp(A), A = (lam/2i)(Delta_0 -
Delta_ver): N from left-composed powers of A, N^{-1} by negating N's odd
lam orders.  On momentum-level models no field acts, and the calculus gives
Gutt's product on g*.  The total product acts blockwise.  The right
multiplication f -> star_G(f, J_a) by a momentum is one differential operator
per model (right_momentum_operator): the Gutt right multiplication, the
psi-series of the right BCH derivative (LieAlgebraData.psi_terms, the series
that also gives the left-invariant fields) with each letter a momentum
derivative, and, on group models, conjugated by N as an ad-series summed
by series.terminating_series (N(J_a) = J_a there, the algebra being
nilpotent), so the quantized Koszul differential needs no product call
and no PBW table.

A left word is pushed past a right coefficient by one Leibniz rule: the
split table _splits(w), another per-algebra table, lists each way of moving a
subsequence of the sorted word onto the coefficient, with its multiplicity,
and the right coefficients' field actions come from word_actions.
SymbolOp.compose normal-orders the pushed words and makes one base product
per left word and output word.  The product of two symbols
(_symbol_product, behind star_std and the momentum-level star_G) goes
further: for each left word it sums the pushed coefficients, each times the
symbol of its word (_word_symbol: the word's normal ordering, then the
exponent-form symbol of each sorted word, _sorted_symbol, kept per
model), into one right operand on term dicts, and makes one base product
with the left coefficient, since the base product differentiates the base
coordinates only and the momenta, group coordinates and lam-shifts act
pointwise.  The products are summed by _moyal_into into one Func.

Operators coming from the symbol calculus are held in a "stripped" normal
form sum_w c_w (i lam)^{|w|} L_{w_1} ... L_{w_k}: every stored word is
non-decreasing, and the per-generator factor (i lam) is implicit, so all
explicit factors generated by reordering and Leibniz pushes are nonnegative
powers of lam.  Identities then hold exactly modulo lam^(K+1) at every
momentum degree simultaneously.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial, prod
from operator import add, gt

from .diffop import DiffOperator, _leibniz_splits
from .funcs import Func
from .geometry import ModelSpace, memo
from .poly import Poly, _mul_into, _scale
from .scalars import GaussRational, I as IMAG
from .series import LambdaSeries, terminating_series


# ---------------------------------------------------------------------------
# base product
# ---------------------------------------------------------------------------


@memo("moyal_table")
def moyal_table(model: ModelSpace, order: int) -> list:
    """Per lam order r, {(alpha, beta): c} over the model's generators, with
    c = (i/2)^r / r! times the sum of Lam^{i_1 j_1} ... Lam^{i_r j_r} over
    the pair sequences with e_{i_1} + ... + e_{i_r} = alpha and
    e_{j_1} + ... + e_{j_r} = beta."""
    names = model.base_names
    unit = {a: tuple(int(g == a) for g in model.gens) for a in names}
    pairs = [(unit[a], unit[b], lam) for a, row in zip(names, model.poisson_matrix)
             for b, lam in zip(names, row) if lam]
    origin = (0,) * len(model.gens)
    level, table = {(origin, origin): 1}, []
    for r in range(order + 1):
        if r:
            nxt: dict = {}
            for (alpha, beta), s in level.items():
                for da, db, lam in pairs:
                    k = (tuple(map(add, alpha, da)), tuple(map(add, beta, db)))
                    nxt[k] = nxt.get(k, 0) + s * lam
            level = {k: v for k, v in nxt.items() if v}
        scale = GaussRational(0, Fraction(1, 2)) ** r * Fraction(1, factorial(r))
        table.append({k: scale * v for k, v in level.items()})
    return table


def _moyal_into(acc: list, model: ModelSpace, f: Func, g: Func,
                odd: bool = False) -> None:
    """acc[n] += the lam^n coefficient of moyal(model, f, g), one triple
    accumulator per lam order; with odd, twice its odd levels only.

    Level r of moyal_table takes r derivatives of each operand, so the
    levels above either operand's total degree (Partials.top) are not read,
    and neither is an entry (alpha, beta) with some alpha_i or beta_i above
    that operand's degree in coordinate i (Partials.bound)."""
    if f.gens != g.gens or f.gens != model.gens:
        raise ValueError("generator mismatch")
    if f.order != g.order:
        raise ValueError(f"mismatched truncation orders {f.order} and {g.order}")
    order = f.order
    pf, pg = f.partials(), g.partials()
    fbound, gbound = pf.bound, pg.bound
    table = moyal_table(model, order)
    for r in range(1 if odd else 0, min(order, pf.top, pg.top) + 1, 2 if odd else 1):
        for (alpha, beta), c in table[r].items():
            if any(map(gt, alpha, fbound)) or any(map(gt, beta, gbound)):
                continue
            if odd:
                c = _scale(c, 2)
            for s, left in enumerate(pf[alpha][: order + 1 - r]):
                if left:
                    for t, right in enumerate(pg[beta][: order + 1 - r - s]):
                        if right:
                            _mul_into(acc[r + s + t], left, right, c)


def _base_product(model: ModelSpace, f: Func, g: Func, odd: bool) -> Func:
    """One _moyal_into pass, finished; envelopes and pi-grades add."""
    acc = [{} for _ in range(f.order + 1)]
    _moyal_into(acc, model, f, g, odd)
    series = LambdaSeries._trusted(Poly._trusted_orders(model.gens, acc), f.order)
    return Func._product(series, f, g)


def moyal(model: ModelSpace, f: Func, g: Func) -> Func:
    """Exponential bidifferential product in the base coordinates only.

    Functions of the fiber variables are multiplied pointwise, so this also
    serves as the coefficient product of the symbol calculus.
    """
    return _base_product(model, f, g, False)


def moyal_commutator(model: ModelSpace, f: Func, g: Func) -> Func:
    """moyal(f, g) - moyal(g, f) in one pass: Lam is constant and
    antisymmetric, so level r of moyal_table is (-1)^r-symmetric in the
    operands and the commutator is twice the odd levels of moyal(f, g)."""
    return _base_product(model, f, g, True)


def mult_operator(model: ModelSpace, u: Func) -> DiffOperator:
    """w -> w *_red u as a differential operator in the base coordinates.

    Each entry (alpha, beta) of moyal_table puts beta onto u's partials.
    Level r takes r derivatives of u, so the levels above u's total degree
    (Partials.top) are not read.
    """
    if u.profile:
        raise ValueError("multiplication operators need polynomial symbols")
    order = model.order
    partials = u.partials()
    origin = (0,) * len(model.gens)
    tables = [{} for _ in range(order + 1)]
    for r, level in enumerate(moyal_table(model, order)):
        if r > partials.top:
            break
        for (alpha, beta), c in level.items():
            for s, terms in enumerate(partials[beta][: order + 1 - r]):
                if terms:
                    _mul_into(tables[r + s].setdefault(alpha, {}), terms, {origin: c})
    tables = [{d: Poly._trusted_sums(model.gens, t) for d, t in tab.items()}
              for tab in tables]
    return DiffOperator(model.gens, order, tables)


# ---------------------------------------------------------------------------
# word calculus
# ---------------------------------------------------------------------------


_ONE = GaussRational(1)
_IMAG_POWERS = (_ONE, IMAG, -_ONE, -IMAG)


def _mul_ilam(f: Func, times: int = 1) -> Func:
    """Multiply by (i lam)^times."""
    if times == 0:
        return f
    return f.shift(times) * IMAG ** times


class SymbolOp:
    """Operator sum_w c_w F^{|w|} L_{w_1}...L_{w_k} on fiber functions.

    Words are kept PBW-sorted (non-decreasing generator indices).  The
    coefficients c_w are momentum-free Funcs that multiply through the base
    product and pointwise in the group coordinates.  On momentum-level
    models the L_a are the abstract generators J_a of the enveloping
    algebra, which commute with every coefficient.  The per-generator
    factor F is a property of the type, applied by _factor: (i lam) here,
    for the symbol calculus; morita.VerticalOperator is the same calculus
    with F = 1.  Operators of different types do not compose.
    """

    def __init__(self, model: ModelSpace, terms=None):
        self.model = model
        self.terms: dict = {}
        if terms:
            for w, c in terms.items():
                if not c.is_zero():
                    self._add_term(tuple(w), c)

    _factor = staticmethod(_mul_ilam)

    def _add_term(self, word, coeff):
        if word in self.terms:
            s = self.terms[word] + coeff
            if s.is_zero():
                del self.terms[word]
            else:
                self.terms[word] = s
        elif not coeff.is_zero():
            self.terms[word] = coeff

    def _add_normal_ordered(self, word, coeff):
        """Insert c * F^{|w|} L_w, reordering out-of-order words."""
        self._add_table(_normal_order(self.model.lie, word), len(word), coeff)

    def _add_table(self, table, length, coeff):
        """Insert sum_v r_v F^{length - |v|} c * F^{|v|} L_v for a table
        {v: r_v}; the F-shift of c is built once per length difference."""
        if coeff.is_zero():
            return
        shifted = {}
        for v, r in table.items():
            k = length - len(v)
            c = shifted.get(k)
            if c is None:
                c = shifted[k] = self._factor(coeff, k)
            if not c.is_zero():
                self._add_term(v, c if r == _ONE else c * r)

    def _new(self, terms=None) -> "SymbolOp":
        return type(self)(self.model, terms)

    def __add__(self, other: "SymbolOp") -> "SymbolOp":
        out = self._new(dict(self.terms))
        for w, c in other.terms.items():
            out._add_term(w, c)
        return out

    def __sub__(self, other: "SymbolOp") -> "SymbolOp":
        neg = self._new({w: -c for w, c in other.terms.items()})
        return self + neg

    def scale(self, c) -> "SymbolOp":
        return self._new({w: f * c for w, f in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def apply(self, phi: Func) -> Func:
        """Apply to a fiber function (no momentum dependence)."""
        if not self.model.is_momentum_free(phi):
            raise ValueError("symbol operators act on momentum-free functions")
        act = word_actions(self.model, phi)
        out = phi.zero_like()
        for word, c in self.terms.items():
            out = out + moyal(self.model, c, self._factor(act(word), len(word)))
        return out

    def compose(self, other: "SymbolOp") -> "SymbolOp":
        """self after other: each left word is pushed past the right
        operator by _leibniz_push and normal-ordered, then multiplied by its
        coefficient with one base product per output word."""
        if type(self) is not type(other):
            raise ValueError("cannot mix calculi with different generator factors")
        model = self.model
        right = _right_actions(model, other)
        out = self._new()
        for w1, c1 in self.terms.items():
            pushed = self._new()
            for word, k, mult, h in _leibniz_push(model, w1, right):
                h = self._factor(h, k)
                pushed._add_normal_ordered(word, h if mult == 1 else h * mult)
            for v, c in pushed.terms.items():
                out._add_term(v, moyal(model, c1, c))
        return out


def word_actions(model: ModelSpace, phi: Func):
    """w -> L_w phi for the left-invariant fields, L_w phi being the field
    of w[0] applied to L_{w[1:]} phi; each suffix is applied once and held
    for the lifetime of the returned function."""
    fields = [model.left_invariant_field(a) for a in range(model.lie.dim)]
    acts = {(): phi}

    def act(w):
        val = acts.get(w)
        if val is None:
            val = acts[w] = fields[w[0]].apply(act(w[1:]))
        return val

    return act


def _right_actions(model: ModelSpace, op: SymbolOp) -> list:
    """(w2, c2, act) per term of op, act(sub) = L_sub c2 from word_actions
    on group models; without group coordinates no field acts and act is
    None."""
    if not model.has_group:
        return [(w2, c2, None) for w2, c2 in op.terms.items()]
    return [(w2, c2, word_actions(model, c2)) for w2, c2 in op.terms.items()]


def _leibniz_push(model: ModelSpace, word: tuple, right: list):
    """Push F^{|word|} L_word past each term c2 F^{|w2|} L_w2 of the right
    operator held by _right_actions:

        L_word o M_c2 L_w2 = sum mult M_{L_sub c2} L_rest L_w2

    over the splits of _splits.  Yields (rest + w2, |sub|, mult, L_sub c2)
    for the nonzero L_sub c2; the factor F^{|sub|} of the coefficient is
    left to the caller.  Without group coordinates only the split that
    keeps the whole word occurs."""
    splits = _splits(model.lie, word) if model.has_group else (((), word, 1),)
    for sub, rest, mult in splits:
        for w2, c2, act in right:
            h = act(sub) if sub else c2
            if not h.is_zero():
                yield rest + w2, len(sub), mult, h


def pbw_words(dim: int, cap: int) -> list:
    """The non-decreasing words in dim generators of length <= cap, shortest
    first and lexicographic within a length."""
    layer = [()]
    words = [()]
    for _ in range(cap):
        layer = [w + (a,) for w in layer for a in range(dim) if not w or a >= w[-1]]
        words.extend(layer)
    return words


def _add_scaled(into: dict, table: dict, s) -> None:
    """into += s * table over word keys, dropping cancelled entries."""
    for v, r in table.items():
        t = into[v] + r * s if v in into else r * s
        if t.is_zero():
            into.pop(v, None)
        else:
            into[v] = t


def _normal_order(lie, word: tuple) -> dict:
    """{sorted v: r_v} with F^{|w|} L_w = sum_v r_v F^{|w|-|v|} F^{|v|} L_v.

    A sorted word is its own table.  Otherwise the word's longest sorted
    suffix takes the remaining letters, last first, each through _insert;
    the rationals r_v depend on the structure constants only.  Nothing is
    kept here, so the tables held stay keyed by sorted words."""
    k = len(word) - 1
    while k > 0 and word[k - 1] <= word[k]:
        k -= 1
    if k <= 0:
        return {word: _ONE}
    table = _insert(lie, word[k - 1], word[k:])
    for a in reversed(word[:k - 1]):
        nxt: dict = {}
        for v, r in table.items():
            _add_scaled(nxt, _insert(lie, a, v), r)
        table = nxt
    return table


@memo("insert")
def _insert(lie, a: int, v: tuple) -> dict:
    """{sorted u: s_u} with F L_a F^{|v|} L_v = sum_u s_u F^{|v|+1-|u|}
    F^{|u|} L_u, for a letter a and a sorted word v.

    If a <= v[0] the word (a,) + v is sorted.  Otherwise, with b = v[0],
    L_a L_b = L_b L_a + C_ab^c L_c: a goes into the rest of v, b into each
    word of that table, and each bracket letter c into the rest of v.  The
    longest word of a's table is sorted(v[1:] + (a,)), whose letters are
    all >= b, so b goes before it with no swap and every other call is on
    a shorter word."""
    if not v or a <= v[0]:
        return {(a,) + v: _ONE}
    b, rest = v[0], v[1:]
    table: dict = {}
    for u, r in _insert(lie, a, rest).items():
        _add_scaled(table, _insert(lie, b, u), r)
    for c in range(lie.dim):
        s = lie.c(a, b, c)
        if s:
            _add_scaled(table, _insert(lie, c, rest), s)
    return table


@memo("splits")
def _splits(lie, word: tuple) -> tuple:
    """((sub, rest, mult), ...) for a sorted word, with
    L_word o M_c = sum mult M_{L_sub c} L_rest by the Leibniz rule.

    The splits are those of the word's letter counts by _leibniz_splits,
    the kept counts spelling rest and the moved ones sub, both sorted; the
    multiplicity is the product of the binomials C(n, k) of the letters."""
    counts = tuple(map(word.count, range(lie.dim)))
    return tuple((_spell(n - k for n, k in zip(counts, kept)), _spell(kept), mult)
                 for kept, mult in _leibniz_splits(counts))


def _spell(counts) -> tuple:
    """The sorted word with the given letter counts."""
    return tuple(a for a, n in enumerate(counts) for _ in range(n))


@memo("sym")
def _sym_table(lie, multi: tuple) -> dict:
    """The normal-ordered sum of the distinct arrangements of a sorted word
    alpha, divided by |alpha|!.  _symmetrize(J^alpha) is alpha! times this
    table, alpha! the product of the factorials of the letter
    multiplicities, so its leading entry alpha is 1/alpha!."""
    table = {}
    weight = GaussRational(Fraction(1, factorial(len(multi))))
    for arrangement in dict.fromkeys(permutations(multi)):
        _add_scaled(table, _normal_order(lie, arrangement), weight)
    return table


@memo("inverse")
def _inverse_table(lie, word: tuple) -> dict:
    """{sorted beta: t_beta} with
    _symmetrize(sum_beta t_beta F^{|w|-|beta|} J^beta) = F^{|w|} L_w.

    _symmetrize(J^w) is F^{|w|} L_w plus shorter words, so the table is
    the triangular inverse of _sym_table."""
    table = {word: _ONE}
    mult = prod(factorial(word.count(a)) for a in set(word))
    for v, s in _sym_table(lie, word).items():
        if v != word:
            _add_scaled(table, _inverse_table(lie, v), -s * mult)
    return table


def _symmetrize(model: ModelSpace, f: Func) -> SymbolOp:
    """Symmetrized quantization of a momentum-polynomial symbol.

    Each sorted multi-index alpha inserts g = d^alpha f at J = 0, which is
    alpha! times the coefficient of J^alpha, through _sym_table(alpha): its
    entry r_v adds r_v (i lam)^{|alpha| - |v|} g to the word v.  Every g is
    read from one pass over the terms of f grouped by their momentum
    exponent, shortest alpha first, and each word's sum is built once.
    """
    for n in model.momentum_names:
        if n in f.profile:
            raise ValueError(f"cannot restrict through the envelope in {n}")
    gens, order = f.gens, f.order
    jidx = [gens.index(n) for n in model.momentum_names]
    groups: dict = {}
    for r, p in enumerate(f.series.coeffs):
        for e, c in p.terms.items():
            multi = tuple(a for a, i in enumerate(jidx) for _ in range(e[i]))
            weight = prod(factorial(e[i]) for i in jidx)
            rest = list(e)
            for i in jidx:
                rest[i] = 0
            g = groups.get(multi)
            if g is None:
                g = groups[multi] = [{} for _ in range(order + 1)]
            g[r][tuple(rest)] = c if weight == 1 else _scale(c, weight)
    origin = (0,) * len(gens)
    sums: dict = {}
    for multi in sorted(groups, key=lambda w: (len(w), w)):
        g = groups[multi]
        for v, r in _sym_table(model.lie, multi).items():
            k = len(multi) - len(v)
            if any(g[: order + 1 - k]):
                acc = sums.setdefault(v, [{} for _ in range(order + 1)])
                unit = {origin: r * _IMAG_POWERS[k % 4]}
                for s, terms in enumerate(g[: order + 1 - k]):
                    _mul_into(acc[s + k], terms, unit)
    return SymbolOp(model, {v: f._like(LambdaSeries._trusted(
        Poly._trusted_orders(gens, acc), order)) for v, acc in sums.items()})


def stdrep(model: ModelSpace, f: Func) -> SymbolOp:
    """Standard-ordered quantization of a momentum-polynomial symbol as an
    operator of left-invariant derivatives."""
    if not model.has_group:
        raise ValueError("the symbol calculus needs group coordinates")
    return _symmetrize(model, f)


@memo("sorted_symbol")
def _sorted_symbol(model: ModelSpace, v: tuple) -> dict:
    """{j: {exponent of J^beta: t}} with F^{|v|} L_v the symmetrized
    quantization of sum t F^j J^beta, j = |v| - |beta|, for a sorted word
    v: _inverse_table(v) with each beta spelled as its exponent over the
    model's generators."""
    jidx = [model.gens.index(n) for n in model.momentum_names]
    out: dict = {}
    for beta, t in _inverse_table(model.lie, v).items():
        expo = [0] * len(model.gens)
        for x in beta:
            expo[jidx[x]] += 1
        out.setdefault(len(v) - len(beta), {})[tuple(expo)] = t
    return out


def _word_symbol(model: ModelSpace, word: tuple, jidx=None) -> dict:
    """{j: {exponent of J^beta: t}} with F^{|w|} L_w the symmetrized
    quantization of sum t F^j J^beta, j = |w| - |beta|, for any word: the
    _sorted_symbol of each word v of its normal ordering, times r_v and
    shifted by |w| - |v|; a sorted word's is returned as it is kept.
    Nothing is kept per word: the words met (rest + w2 of each push) are
    mostly unsorted, and a table per word would grow with the run.  jidx
    is not read; the exponents come from the model."""
    table = _normal_order(model.lie, word)
    if word in table:  # a sorted word is its own table
        return _sorted_symbol(model, word)
    out: dict = {}
    for v, r in table.items():
        k = len(word) - len(v)
        for j, mono in _sorted_symbol(model, v).items():
            group = out.setdefault(j + k, {})
            for e, t in mono.items():
                group[e] = group[e] + r * t if e in group else r * t
    return out


def _symbol_product(model: ModelSpace, a: SymbolOp, b: SymbolOp) -> Func:
    """The momentum polynomial whose symmetrized quantization is a o b,
    with one base product per left word.

    For a left term c1 F^{|w1|} L_w1, each split (sub, rest, mult) of w1
    and each right term c2 F^{|w2|} L_w2 give mult F^{|sub|} L_sub c2 times
    _word_symbol(rest + w2).  They are summed on term dicts into one right
    operand R, and c1 R is one base product, exact because the base
    product differentiates the base coordinates only.  _moyal_into sums
    the products into one Func, whose envelope and grade every nonzero c1 R
    must share (c1 R is zero exactly when the lowest lam orders of c1 and
    R add up past K).  A zero result is the plain zero: the
    inverse of the symmetrization is triangular with unit diagonal, so the
    result vanishes exactly when a o b is the zero operator."""
    gens, order = model.gens, model.order
    right = _right_actions(model, b)
    # R carries the envelope and grade of the right coefficients
    carrier = [c2 for _, c2, _ in right]
    for c2 in carrier[1:]:
        carrier[0]._compatible(c2)
    acc = [{} for _ in range(order + 1)]
    first = None
    for w1, c1 in a.terms.items():
        racc = [{} for _ in range(order + 1)]
        for word, k, mult, h in _leibniz_push(model, w1, right):
            coeffs = h.series.coeffs
            for j, mono in _word_symbol(model, word).items():
                j += k
                if j > order:
                    continue
                unit = _scale(_IMAG_POWERS[j % 4], mult)
                for s, p in enumerate(coeffs[: order + 1 - j]):
                    _mul_into(racc[s + j], p.terms, mono, unit)
        rhs = LambdaSeries._trusted(Poly._trusted_orders(gens, racc), order)
        low, _ = rhs.lowest_order()
        if low is None:
            continue
        if low + c1.series.lowest_order()[0] <= order:  # c1 R is not zero
            first = first or c1
            first._compatible(c1)
        _moyal_into(acc, model, c1, carrier[0]._like(rhs))
    series = LambdaSeries._trusted(Poly._trusted_orders(gens, acc), order)
    if series.is_zero():
        return Func._trusted(gens, series, {}, 0)
    return Func._product(series, first, carrier[0])


# ---------------------------------------------------------------------------
# products on the cotangent factor
# ---------------------------------------------------------------------------


def star_std(model: ModelSpace, f: Func, g: Func) -> Func:
    """Standard-ordered product: the unique symbol with
    stdrep(f star_std g) = stdrep(f) stdrep(g); blockwise over the base."""
    return _symbol_product(model, stdrep(model, f), stdrep(model, g))


@memo("norm_exponent")
def _normalization_exponent(model: ModelSpace) -> DiffOperator:
    """A = (lam/2i)(Delta_0 - Delta_ver), the exponent of N, with
    Delta_0 - Delta_ver = sum_a xi_a o d/dJ_a: its modular term is zero
    on the nilpotent, hence unimodular, algebras that carry group coordinates."""
    if not model.has_group:
        raise ValueError("the normalization operator needs group coordinates")
    gens, order = model.gens, model.order
    delta = DiffOperator.zero(gens, order)
    for a in range(model.lie.dim):
        delta = delta + model.fundamental_field_M(model.basis_vector(a)).compose(
            DiffOperator.partial(gens, model.momentum_names[a], order))
    return delta.lam_shift(1) * (IMAG * GaussRational(Fraction(-1, 2)))


@memo("norm_op")
def neumaier_N(model: ModelSpace) -> DiffOperator:
    """N = exp(A) on momentum-polynomial symbols."""
    return _normalization_exponent(model).exp()


@memo("norm_op_inverse")
def neumaier_N_inverse(model: ModelSpace) -> DiffOperator:
    """exp(-A) = sigma(N), N with its odd lam tables negated, made with no
    composition.  Operator coefficients carry no lam, so
    sigma: lam -> -lam respects composition and sigma(exp A) = exp(sigma A);
    A is lam times a lam-free operator, so sigma(A) = -A, checked first."""
    if any(_normalization_exponent(model).tables[::2]):
        raise ValueError("the normalization exponent is not odd in lam")
    n = neumaier_N(model)
    return DiffOperator(n.gens, n.order, [
        {d: -c for d, c in t.items()} if r % 2 else t for r, t in enumerate(n.tables)])


def _gutt_right_operator(model: ModelSpace, a: int) -> DiffOperator:
    """S_a = sum_{k <= K} (i lam)^k <b_k ad_{e_b1} ... ad_{e_bk} e_a, J>
    d_J^{b1 ... bk} with S_a(f) = f * J_a for the symmetrization product on
    the momenta: on f = e^{<xi, J>} the right multiplication by e_a is the
    right BCH derivative psi(i lam ad_xi) e_a paired with J, and each letter
    of xi is a derivative d/dJ_b.  The terms are LieAlgebraData.psi_terms."""
    gens, order, names = model.gens, model.order, model.momentum_names
    op = DiffOperator.zero(gens, order)
    for word, v in model.lie.psi_terms(a, order):
        d = tuple(sum(names[b] == g for b in word) for g in gens)
        pairing = model.momentum_of(v).series.coeffs[0] * _IMAG_POWERS[len(word) % 4]
        op = op + DiffOperator(gens, order, [{}] * len(word) + [{d: pairing}])
    return op


@memo("right_momentum")
def right_momentum_operator(model: ModelSpace, a: int) -> DiffOperator:
    """R_a with R_a f = star_G(f, J_a).

    On momentum-level models R_a is the Gutt right multiplication S_a of
    _gutt_right_operator.  On group models star_G(f, J_a) =
    N^{-1}(Nf star_std N(J_a)), and star_std acts on the momenta as the
    symmetrization product does, so the middle map is S_a plus the
    multiplication by N(J_a) - J_a = A(J_a), where N = exp(A).  That is
    the constant -(i lam/2) times the modular component a, which A
    annihilates; it vanishes on the nilpotent, hence unimodular, algebras
    that carry group coordinates, so N(J_a) = J_a and the middle map is
    S_a itself.  The conjugation is the terminating
    series N^{-1} S N = sum_{k <= K} (-1)^k/k! ad_A^k(S), since A is
    O(lam), and composes no power of N.

    Only derivative orders |beta| <= K occur: S_a is the psi-series
    sum_k b_k (i lam)^k <ad_{e_b1} ... ad_{e_bk} e_a, J> d_J^{b1 ... bk}, so
    every order of derivative in the momenta costs one lam and the orders
    above K vanish modulo lam^(K+1).
    """
    op = _gutt_right_operator(model, a)
    if not model.has_group:
        return op
    arg = _normalization_exponent(model)
    return terminating_series(op, lambda t, k: (
        arg.compose(t) - t.compose(arg)) * GaussRational(Fraction(-1, k)), model.order)


# ---------------------------------------------------------------------------
# public products
# ---------------------------------------------------------------------------


def star_G(model: ModelSpace, f: Func, g: Func) -> Func:
    """Hermitian product on the cotangent factor: N^{-1}(Nf star_std Ng);
    for momentum-level models the symmetrization product directly.

    Two shortcuts are exact.  N = exp(A) and every term of A ends in a
    momentum derivative, so N and N^{-1} fix a momentum-free operand,
    envelope and grade included, and N is applied only to the others.  The
    symmetrized quantization of a momentum-free function is the single
    word (), so two such operands multiply by the base product; only a
    zero product differs, which the symbol calculus returns plain.
    """
    f_free, g_free = model.is_momentum_free(f), model.is_momentum_free(g)
    if f_free and g_free:
        out = moyal(model, f, g)
        return out.zero_like() if out.is_zero() else out
    if not model.has_group:
        return _symbol_product(model, _symmetrize(model, f), _symmetrize(model, g))
    n = neumaier_N(model)
    if not f_free:
        f = n.apply(f)
    if not g_free:
        g = n.apply(g)
    return neumaier_N_inverse(model).apply(star_std(model, f, g))


def schroedinger_rep(model: ModelSpace, f: Func, psi: Func) -> Func:
    """rho(f) psi = stdrep(Nf) psi."""
    if not model.has_group:
        raise ValueError("the position-space representation needs group coordinates")
    return stdrep(model, neumaier_N(model).apply(f)).apply(psi)


# the names StarProduct accepts, also the choices of the CLI's --product
STAR_PRODUCTS = ("moyal", "std", "weyl_g", "total")


class StarProduct:
    """A named multiplication rule on a model, selectable in scene files."""

    def __init__(self, model: ModelSpace, kind: str):
        if kind not in STAR_PRODUCTS:
            raise ValueError(f"unknown star product {kind!r}; "
                             f"choose from {sorted(STAR_PRODUCTS)}")
        if kind in ("std", "weyl_g") and not model.has_group:
            raise ValueError(f"product {kind!r} needs group coordinates")
        self.model = model
        self.kind = kind

    def __call__(self, f: Func, g: Func) -> Func:
        if self.kind == "moyal":
            return moyal(self.model, f, g)
        if self.kind == "std":
            return star_std(self.model, f, g)
        return star_G(self.model, f, g)

    def __repr__(self):
        return f"StarProduct({self.kind!r} on {self.model.lie.label})"


def check_strong_invariance(model: ModelSpace, star, funcs) -> list:
    """Verify J_xi * f - f * J_xi = -i lam L_{xi_M} f on all basis vectors.

    Returns a list of failure records (basis index, function index, first
    failing lam order); empty when the product is strongly invariant on the
    battery.
    """
    failures = []
    for a in range(model.lie.dim):
        ja = model.momentum(a)
        lie = model.fundamental_field_M(model.basis_vector(a))
        for k, f in enumerate(funcs):
            lhs = star(ja, f) - star(f, ja)
            rhs = _mul_ilam(lie.apply(f)) * GaussRational(-1)
            diff = lhs - rhs
            if not diff.is_zero():
                low, _ = diff.series.lowest_order()
                failures.append({"basis": a, "input": k, "first_bad_order": low})
    return failures
