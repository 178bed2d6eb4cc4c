"""Polynomial-coefficient differential operators as truncated lam-series.

An operator is stored in normal form sum_r lam^r sum_d c_{r,d} * partial^d
with Poly coefficients c_{r,d} and derivative multi-indices d over the named
generators.  Composition, application and formal adjoints are exact.

Application and composition work on flat term dicts {exponent:
GaussRational}, one per lam order, with the kernels of poly: products are
summed as unnormalised triples and each output Poly, LambdaSeries and Func
(and DiffOperator, through DiffOperator._trusted) is built once, at the
end.  Application reads partial^d f from the input's Func.partials cache,
envelope terms included, and is pruned by degree: it stops at the first
total derivative order above the input's total degree and skips an entry
d with some d_i above the input's degree in coordinate i, so an entry that
must give zero costs nothing.  apply_sum adds several applications into
one accumulator, for the quantized Koszul differential; every empty lam
order of their output is one shared zero Poly (Poly._trusted_orders).
at_one reads an operator applied to 1 off its d = 0 column, with no
application.
Composition differentiates the right factor's coefficients by the Leibniz
remainder monomial by monomial, reading only the nonzero coordinates of
the remainder: the right entries are flattened once per call, each is
differentiated at most once per remainder, and only the nonempty lam
orders are finished.  exp is one series.terminating_series, each term
composed with the exponent on its left.  Every weighted adjoint
is one adjoint_sum sum_beta (partial^beta)^+ o X_beta: the first-order
adjoints of the weight, one per coordinate, composed Horner-wise on the
tree of multi-indices.
The formal adjoint of an operator is the adjoint_sum of its conjugated
coefficients, its multiplications built through DiffOperator._trusted, and
the involution's step operator that of the moyal table.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, perm
from operator import add, gt, sub

from .funcs import Func
from .poly import Poly, _mul_into, _scale
from .scalars import GaussRational
from .series import LambdaSeries, series_inverse, terminating_series


class DiffOperator:
    __slots__ = ("gens", "order", "tables", "_by_degree")

    def __init__(self, gens, order: int, tables=None):
        object.__setattr__(self, "gens", tuple(gens))
        object.__setattr__(self, "order", int(order))
        tabs = []
        for r in range(order + 1):
            src = tables[r] if tables and r < len(tables) else {}
            clean = {}
            for d, c in src.items():
                if not isinstance(c, Poly):
                    c = Poly.constant(self.gens, c)
                if not c.is_zero():
                    clean[tuple(d)] = c
            tabs.append(clean)
        object.__setattr__(self, "tables", tuple(tabs))
        object.__setattr__(self, "_by_degree", None)

    def __setattr__(self, name, value):
        raise AttributeError("DiffOperator is immutable")

    @staticmethod
    def _trusted(gens: tuple, order: int, tables: tuple) -> "DiffOperator":
        """A DiffOperator that takes its parts as they are, without checks:
        a tuple of exactly order + 1 dicts {int multi-index tuple: nonzero
        Poly over gens}."""
        op = _new(DiffOperator)
        _set_gens(op, gens)
        _set_order(op, order)
        _set_tables(op, tables)
        _set_by_degree(op, None)
        return op

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(gens, order: int) -> "DiffOperator":
        return DiffOperator(gens, order)

    @staticmethod
    def identity(gens, order: int) -> "DiffOperator":
        gens = tuple(gens)
        return DiffOperator(gens, order, [{(0,) * len(gens): Poly.one(gens)}])

    @staticmethod
    def multiplication(p: Poly, order: int) -> "DiffOperator":
        return DiffOperator(p.gens, order, [{(0,) * len(p.gens): p}])

    @staticmethod
    def first_order(gens, order: int, coeffs: dict) -> "DiffOperator":
        """Vector field sum coeffs[name] * d/d name."""
        gens = tuple(gens)
        table = {}
        for name, c in coeffs.items():
            d = [0] * len(gens)
            d[gens.index(name)] = 1
            if not isinstance(c, Poly):
                c = Poly.constant(gens, c)
            if not c.is_zero():
                table[tuple(d)] = table.get(tuple(d), Poly.zero(gens)) + c
        return DiffOperator(gens, order, [table])

    @staticmethod
    def partial(gens, name, order: int) -> "DiffOperator":
        return DiffOperator.first_order(gens, order, {name: 1})

    def is_zero(self) -> bool:
        return all(not t for t in self.tables)

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "DiffOperator") -> "DiffOperator":
        if self.gens != other.gens or self.order != other.order:
            raise ValueError("operator mismatch")
        tabs = []
        for t1, t2 in zip(self.tables, other.tables):
            t = dict(t1)
            for d, c in t2.items():
                if d in t:
                    c = t[d] + c
                    if not c.terms:
                        del t[d]
                        continue
                t[d] = c
            tabs.append(t)
        return DiffOperator._trusted(self.gens, self.order, tuple(tabs))

    def __neg__(self) -> "DiffOperator":
        return self * GaussRational(-1)

    def __sub__(self, other: "DiffOperator") -> "DiffOperator":
        return self + (-other)

    def __mul__(self, scalar) -> "DiffOperator":
        scalar = GaussRational.coerce(scalar)
        tabs = [{d: c * scalar for d, c in t.items()} for t in self.tables]
        return DiffOperator(self.gens, self.order, tabs)

    __rmul__ = __mul__

    def lam_shift(self, k: int) -> "DiffOperator":
        tabs = [{} for _ in range(k)] + [dict(t) for t in self.tables]
        return DiffOperator(self.gens, self.order, tabs[: self.order + 1])

    def series_multiply(self, s: LambdaSeries) -> "DiffOperator":
        """Left-multiply by a pointwise lam-series of polynomials."""
        tabs = [{} for _ in range(self.order + 1)]
        for r1, p in enumerate(s.coeffs):
            if p.is_zero():
                continue
            for r2, t in enumerate(self.tables):
                if r1 + r2 > self.order:
                    break
                for d, c in t.items():
                    tgt = tabs[r1 + r2]
                    tgt[d] = tgt.get(d, Poly.zero(self.gens)) + p * c
        return DiffOperator(self.gens, self.order, tabs)

    # -- application and composition -----------------------------------------

    def apply(self, f: Func) -> Func:
        """Exact application, evaluated on the term dicts of f.

        partial^d f comes from f.partials(), taken once per multi-index and
        skipped where it vanishes by degree: the entries are read grouped by
        total derivative order, grouped once per operator, the orders above
        the input's total degree (Partials.top, unbounded under an
        envelope) are never asked for, and neither is an entry d with some
        d_i above the input's degree in coordinate i (Partials.bound).  The
        result is truncated at f.order and carries f's envelope and
        pi-grade; an operator without entries gives f.zero_like().
        """
        if f.gens != self.gens:
            raise ValueError("operator and function live on different generators")
        if self.is_zero():
            return f.zero_like()
        acc = [{} for _ in range(f.order + 1)]
        self._apply_into(acc, f)
        return f._like(LambdaSeries._trusted(Poly._trusted_orders(f.gens, acc), f.order))

    def _apply_into(self, acc: list, f: Func) -> None:
        """Add the lam orders of self(f) into acc, one triple accumulator
        per order of f, as apply does."""
        order = f.order
        partials = f.partials()
        top, bound = partials.top, partials.bound
        for degree, entries in self._entries_by_degree():
            if degree > top:
                break
            for r, d, c in entries:
                if r > order or any(map(gt, d, bound)):
                    continue
                for s, terms in enumerate(partials[d][: order + 1 - r]):
                    if terms:
                        _mul_into(acc[r + s], terms, c)

    def at_one(self) -> Func:
        """self applied to the constant function 1 at the operator's order,
        read off as its d = 0 column: the lam series of its entries without
        derivatives, every missing order one shared zero Poly."""
        gens = self.gens
        origin = (0,) * len(gens)
        zero = Poly._trusted(gens, {})
        return Func._trusted(gens, LambdaSeries._trusted(
            tuple([t.get(origin, zero) for t in self.tables]), self.order), {}, 0)

    def _entries_by_degree(self) -> tuple:
        """((|d|, ((r, d, c.terms), ...)), ...) in increasing |d|, built on
        the first call and held on the operator, which is immutable."""
        groups = self._by_degree
        if groups is None:
            by: dict = {}
            for r, table in enumerate(self.tables):
                for d, c in table.items():
                    by.setdefault(sum(d), []).append((r, d, c.terms))
            groups = tuple((n, tuple(by[n])) for n in sorted(by))
            object.__setattr__(self, "_by_degree", groups)
        return groups

    def compose(self, other: "DiffOperator") -> "DiffOperator":
        """self after other, in normal form via the multi-index Leibniz rule.

        For each split of a left multi-index d1 into (kept, rest), the right
        coefficients are differentiated by rest monomial by monomial and
        multiplied into the entry kept + d2 on term dicts.  The right
        entries are flattened once, in lam order, and each is
        differentiated at most once per rest: the first left order to ask
        for a rest has the most room, so its row serves the later ones.
        """
        if self.gens != other.gens or self.order != other.order:
            raise ValueError("operator mismatch")
        order = self.order
        rights = [(r2, d2, c2.terms) for r2, t2 in enumerate(other.tables)
                  for d2, c2 in t2.items()]
        rows: dict = {}  # rest -> [(r2, d2, nonzero partial^rest c2)]
        acc = [{} for _ in range(order + 1)]
        for r1, t1 in enumerate(self.tables):
            room = order - r1
            for d1, c1 in t1.items():
                for split, dcoeff in _leibniz_splits(d1):
                    rest = tuple(map(sub, d1, split))
                    row = rows.get(rest)
                    if row is None:
                        row = rows[rest] = [
                            (r2, d2, right) for r2, d2, terms in rights
                            if r2 <= room and (right := _diff_monomials(terms, rest))]
                    left = c1.terms
                    if dcoeff != 1:
                        left = {e: _scale(c, dcoeff) for e, c in left.items()}
                    for r2, d2, right in row:
                        if r2 > room:
                            break
                        d = tuple(map(add, split, d2))
                        _mul_into(acc[r1 + r2].setdefault(d, {}), left, right)
        tabs = tuple({d: p for d, t in tab.items()
                      if (p := Poly._trusted_sums(self.gens, t)).terms} if tab else {}
                     for tab in acc)
        return DiffOperator._trusted(self.gens, order, tabs)

    def exp(self) -> "DiffOperator":
        """exp of an operator whose lam-expansion starts at order >= 1, the
        terminating series with terms A^k/k! = A o (A^(k-1)/(k-1)!) / k: the
        small factor on the left, so the Leibniz splits run over A's low
        orders only."""
        if self.tables[0]:
            raise ValueError("exp needs a lam-graded operator with no order-0 part")
        return terminating_series(
            DiffOperator.identity(self.gens, self.order),
            lambda t, k: self.compose(t) * GaussRational(Fraction(1, k)), self.order)

    # -- adjoints -------------------------------------------------------------

    def formal_adjoint(self, weight: Func) -> "DiffOperator":
        """Adjoint with respect to <phi, psi> = integral of conj(phi) psi weight.

        The adjoint of sum_{r,d} lam^r c_{r,d} partial^d is
        sum_d (partial^d)^+ o M_{sum_r lam^r conj(c_{r,d})}, one
        adjoint_sum over the derivative multi-indices of the operator, with
        the lam orders of each multi-index folded into one multiplication.
        The multiplications are built through DiffOperator._trusted: their
        coefficients are conjugates of nonzero entries.
        """
        origin = (0,) * len(self.gens)
        terms = {}
        for r, table in enumerate(self.tables):
            for d, c in table.items():
                terms.setdefault(d, [{} for _ in self.tables])[r][origin] = c.conj()
        terms = {d: DiffOperator._trusted(self.gens, self.order, tuple(tabs))
                 for d, tabs in terms.items()}
        return adjoint_sum(weight, self.gens, self.order, terms)

    def __eq__(self, other):
        if not isinstance(other, DiffOperator):
            return NotImplemented
        return (
            self.gens == other.gens
            and self.order == other.order
            and self.tables == other.tables
        )

    def __repr__(self):
        parts = []
        for r, table in enumerate(self.tables):
            for d, c in sorted(table.items()):
                ds = "".join(
                    f"d/d{g}" + (f"^{k}" if k > 1 else "")
                    for g, k in zip(self.gens, d)
                    if k
                )
                lam = "" if r == 0 else (f"lam^{r}*" if r > 1 else "lam*")
                parts.append(f"{lam}({c!r}){'*' + ds if ds else ''}")
        return " + ".join(parts) if parts else "0"


def apply_sum(pairs) -> Func:
    """The sum of op.apply(f) over a nonempty list of (op, f) pairs, built
    as one Func: every application adds into one triple accumulator per lam
    order.  The f share their generators and order, and the nonzero f
    their envelope and grade, which the sum carries; nonzero f with
    different envelopes or grades raise ValueError, as Func + does."""
    carrier = next((f for _, f in pairs if not f.is_zero()), pairs[0][1])
    gens, order = carrier.gens, carrier.order
    acc = [{} for _ in range(order + 1)]
    for op, f in pairs:
        if op.gens != gens or f.order != order:
            raise ValueError("operators and functions must share generators and order")
        carrier._compatible(f)
        op._apply_into(acc, f)
    return carrier._like(LambdaSeries._trusted(Poly._trusted_orders(gens, acc), order))


def adjoint_sum(weight: Func, gens, order: int, terms: dict) -> DiffOperator:
    """sum_beta (partial^beta)^+ o X_beta for terms = {beta: X_beta}, the
    adjoints taken for <phi, psi> = integral of conj(phi) psi weight.

    The weight is a real Func over gens: a prefactor series rho whose leading
    term is an invertible constant, times a Gaussian envelope
    exp(-sum_i a_i x_i^2), so that the adjoints stay inside
    polynomial-coefficient operators.  Integration by parts gives one
    first-order adjoint per coordinate,

        (partial_i)^+ = -partial_i + 2 a_i x_i - rho^-1 partial_i rho,

    built for the coordinates the multi-indices touch, with the product
    rho^-1 partial_i rho formed only where partial_i rho is nonzero.  They
    commute, so (partial^beta)^+ is their product in any order, and the sum
    is taken Horner-wise on a tree of multi-indices: beta hangs below
    beta - e_i for its first nonzero index i and adds (partial_i)^+ o (its
    subtree's sum) to its parent's, one composition per beta.
    """
    gens = tuple(gens)
    if weight.gens != gens:
        raise ValueError("generator mismatch")
    if weight != weight.conj():
        raise ValueError("adjoint requires a real weight")
    rho = Func(weight.series.extend(order))
    rho_inv = series_inverse(rho)
    origin = (0,) * len(gens)
    firsts = {}

    def first(i):
        if i not in firsts:
            name = gens[i]
            drho = rho.diff(name)
            if drho.is_zero():
                tables = [{} for _ in range(order + 1)]
            else:
                tables = [{origin: -c} for c in (rho_inv * drho).series.coeffs]
            a = weight.profile.get(name)
            if a:
                lead = Poly.var(gens, name) * GaussRational(2 * a)
                tables[0][origin] = tables[0][origin] + lead if tables[0] else lead
            tables[0][origin[:i] + (1,) + origin[i + 1:]] = -Poly.one(gens)
            firsts[i] = DiffOperator(gens, order, tables)
        return firsts[i]

    sums = dict(terms)
    for n in range(max(map(sum, sums), default=0), 0, -1):
        for beta in [b for b in sums if sum(b) == n]:
            i = next(i for i, b in enumerate(beta) if b)
            parent = beta[:i] + (beta[i] - 1,) + beta[i + 1:]
            term = first(i).compose(sums.pop(beta))
            sums[parent] = sums[parent] + term if parent in sums else term
    return sums.get(origin, DiffOperator.zero(gens, order))


def _diff_monomials(terms: dict, m) -> dict:
    """partial^m of one coefficient, monomial by monomial; only the nonzero
    coordinates of m are read."""
    if not any(m):
        return terms
    axes = [(i, mi) for i, mi in enumerate(m) if mi]
    out = {}
    for e, c in terms.items():
        k = 1
        for i, mi in axes:
            if e[i] < mi:
                break
            k *= perm(e[i], mi)
        else:
            out[tuple(map(sub, e, m))] = _scale(c, k)
    return out


@cache
def _leibniz_splits(d: tuple) -> tuple:
    """All ways to split the multi-index d over (operator, coefficient), as
    (kept_on_operator, multinomial coefficient) pairs, the first entry of
    the kept index varying fastest; memoised per multi-index."""
    splits = ((), 1),
    for di in reversed(d):
        splits = tuple(((k,) + rest, coeff * comb(di, k))
                       for rest, coeff in splits for k in range(di + 1))
    return splits


_new = object.__new__
_set_gens = DiffOperator.gens.__set__
_set_order = DiffOperator.order.__set__
_set_tables = DiffOperator.tables.__set__
_set_by_degree = DiffOperator._by_degree.__set__
