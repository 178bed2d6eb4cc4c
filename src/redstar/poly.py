"""Multivariate polynomials over named generators with GaussRational coefficients.

Terms are stored sparsely as a map from exponent tuples to coefficients; no
zero coefficient is ever kept, so equality is plain coefficient-wise equality.
Canonical term order for printing and iteration is degrevlex over the fixed
generator order.

The term-dict kernels _mul_into, _scale and _diff_terms on {exponent:
GaussRational} dicts are shared by Poly, Func, DiffOperator and moyal.
_mul_into and _accumulate sum into an accumulator {exponent: (a, b, d)} of
unnormalised integer triples (a + b*i)/d, so a sum of many products costs
no gcd; Poly._trusted_sums finishes such an accumulator with one _make (one
gcd) per output term and drops its zero sums, and Poly._trusted_orders
finishes one accumulator per lam order, every empty order one shared zero
Poly (a Poly is immutable).  Other clean kernel output
becomes a Poly through Poly._trusted.  Poly(...) validates everything else.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .scalars import GaussRational, _make


def _degrevlex_key(expo):
    # graded reverse lexicographic: higher total degree first; ties broken by
    # the reversed exponent vector, smaller last-entry wins
    return (sum(expo), tuple(-e for e in reversed(expo)))


class Poly:
    __slots__ = ("gens", "terms")

    def __init__(self, gens, terms=None):
        object.__setattr__(self, "gens", tuple(gens))
        clean = {}
        if terms:
            for expo, coeff in terms.items():
                coeff = GaussRational.coerce(coeff)
                if coeff.is_zero():
                    continue
                expo = tuple(int(e) for e in expo)
                if len(expo) != len(self.gens):
                    raise ValueError("exponent length does not match generators")
                prev = clean.get(expo)
                if prev is not None:
                    coeff = prev + coeff
                    if coeff.is_zero():
                        del clean[expo]
                        continue
                clean[expo] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def _trusted(gens: tuple, terms: dict) -> "Poly":
        """A Poly that takes a clean term dict as it is, without checks: int
        exponent tuples of len(gens), GaussRational values and no zeros."""
        p = _new(Poly)
        _set_gens(p, gens)
        _set_terms(p, terms)
        return p

    @staticmethod
    def _trusted_sums(gens: tuple, acc: dict) -> "Poly":
        """The Poly of a triple accumulator of _mul_into and _accumulate: each
        sum normalised once, the zero sums dropped."""
        return Poly._trusted(gens, {e: _make(a, b, d)
                                    for e, (a, b, d) in acc.items() if a or b})

    @staticmethod
    def _trusted_orders(gens: tuple, accs) -> tuple:
        """The Polys of one triple accumulator per lam order, as
        _trusted_sums builds them; every empty accumulator gives one shared
        zero Poly."""
        zero = None
        out = []
        for acc in accs:
            if acc:
                out.append(Poly._trusted_sums(gens, acc))
            else:
                if zero is None:
                    zero = Poly._trusted(gens, {})
                out.append(zero)
        return tuple(out)

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(gens, c) -> "Poly":
        gens = tuple(gens)
        return Poly(gens, {(0,) * len(gens): GaussRational.coerce(c)})

    @staticmethod
    def zero(gens) -> "Poly":
        return Poly._trusted(tuple(gens), {})

    @staticmethod
    def one(gens) -> "Poly":
        return Poly.constant(gens, 1)

    @staticmethod
    def var(gens, name, power: int = 1) -> "Poly":
        gens = tuple(gens)
        idx = gens.index(name)
        expo = [0] * len(gens)
        expo[idx] = power
        return Poly(gens, {tuple(expo): GaussRational(1)})

    def ring_zero(self) -> "Poly":
        return Poly.zero(self.gens)

    # -- ring operations ----------------------------------------------

    def _check(self, other: "Poly"):
        if self.gens != other.gens:
            raise ValueError(f"generator mismatch: {self.gens} vs {other.gens}")

    def __add__(self, other):
        if type(other) is not Poly:
            if isinstance(other, (int, Fraction, GaussRational)):
                other = Poly.constant(self.gens, other)
            elif not isinstance(other, Poly):
                return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for expo, c in other.terms.items():
            prev = terms.get(expo)
            if prev is None:
                terms[expo] = c
            else:
                s = prev + c
                if s.a or s.b:
                    terms[expo] = s
                else:
                    del terms[expo]
        return Poly._trusted(self.gens, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly._trusted(self.gens, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not Poly:
            if isinstance(other, (int, Fraction, GaussRational)):
                other = Poly.constant(self.gens, other)
            elif not isinstance(other, Poly):
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction, GaussRational)):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not Poly:
            if isinstance(other, (int, Fraction, GaussRational)):
                c = GaussRational.coerce(other)
                if c.is_zero():
                    return Poly.zero(self.gens)
                return Poly._trusted(self.gens,
                                     {e: v * c for e, v in self.terms.items()})
            if not isinstance(other, Poly):
                return NotImplemented
        self._check(other)
        out: dict = {}
        _mul_into(out, self.terms, other.terms)
        return Poly._trusted_sums(self.gens, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not polynomial")
        out = Poly.one(self.gens)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- calculus and structure ----------------------------------------

    def diff(self, name: str) -> "Poly":
        return Poly._trusted(self.gens, _diff_terms(self.terms, self.gens.index(name)))

    def conj(self) -> "Poly":
        return Poly._trusted(self.gens, {e: c.conj() for e, c in self.terms.items()})

    def set_zero(self, names) -> "Poly":
        """Restrict by setting the listed generators to zero."""
        idxs = [self.gens.index(n) for n in names]
        out = {}
        for expo, c in self.terms.items():
            if any(expo[i] for i in idxs):
                continue
            out[expo] = c
        return Poly._trusted(self.gens, out)

    def degree_in(self, names) -> int:
        idxs = [self.gens.index(n) for n in names]
        return max((sum(e[i] for i in idxs) for e in self.terms), default=0)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def depends_on(self, name: str) -> bool:
        idx = self.gens.index(name)
        return any(e[idx] for e in self.terms)

    def rename(self, mapping: dict, new_gens) -> "Poly":
        """Transport onto a new generator tuple; mapping is old name -> new name.

        Unmapped generators keep their name; a generator missing from
        new_gens is dropped, which is only legal if it never occurs.
        """
        new_gens = tuple(new_gens)
        pos = {}
        for i, g in enumerate(self.gens):
            tgt = mapping.get(g, g)
            pos[i] = new_gens.index(tgt) if tgt in new_gens else None
        out = {}
        for expo, c in self.terms.items():
            e = [0] * len(new_gens)
            for i, k in enumerate(expo):
                if k:
                    if pos[i] is None:
                        raise ValueError(
                            f"generator {self.gens[i]!r} occurs but has no target"
                        )
                    e[pos[i]] += k
            key = tuple(e)
            out[key] = out.get(key, GaussRational(0)) + c
        return Poly(new_gens, out)

    def evaluate(self, point: dict) -> "Poly":
        """Substitute exact rational values for some generators."""
        idxs = {self.gens.index(n): GaussRational.coerce(v) for n, v in point.items()}
        out = {}
        for expo, c in self.terms.items():
            e = list(expo)
            for i, v in idxs.items():
                c = c * v ** e[i]
                e[i] = 0
            key = tuple(e)
            prev = out.get(key)
            out[key] = c if prev is None else prev + c
        return Poly(self.gens, out)

    def constant_term(self) -> GaussRational:
        return self.terms.get((0,) * len(self.gens), GaussRational(0))

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _degrevlex_key(kv[0]), reverse=True)

    def __eq__(self, other):
        if type(other) is not Poly:
            if isinstance(other, (int, Fraction, GaussRational)):
                other = Poly.constant(self.gens, other)
            elif not isinstance(other, Poly):
                return NotImplemented
        return self.gens == other.gens and self.terms == other.terms

    def __hash__(self):
        return hash((self.gens, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for expo, c in self.sorted_terms():
            factors = []
            for g, e in zip(self.gens, expo):
                if e == 1:
                    factors.append(g)
                elif e > 1:
                    factors.append(f"{g}^{e}")
            mono = "*".join(factors)
            cs = repr(c)
            if mono:
                parts.append(f"{cs}*{mono}" if cs != "1" else mono)
            else:
                parts.append(cs)
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# term-dict kernels
# ---------------------------------------------------------------------------


def _mul_into(acc: dict, left: dict, right: dict, scale=None) -> None:
    """acc += scale * left * right for term dicts {exponent: GaussRational}
    and a GaussRational scale (1 if None), into a triple accumulator
    {exponent: (a, b, d)}.

    Sums over one denominator add numerators; other sums take the product
    of the denominators.  Nothing is normalised and zero sums stay in acc:
    Poly._trusted_sums finishes it.
    """
    get = acc.get
    for e1, c1 in left.items():
        a1, b1, d1 = c1.a, c1.b, c1.d
        if scale is not None:
            sa, sb = scale.a, scale.b
            a1, b1, d1 = a1 * sa - b1 * sb, a1 * sb + b1 * sa, d1 * scale.d
        for e2, c2 in right.items():
            e = tuple(map(add, e1, e2))
            a2, b2 = c2.a, c2.b
            d = d1 * c2.d
            if b1 or b2:
                a, b = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
            else:
                a, b = a1 * a2, 0
            prev = get(e)
            if prev is None:
                acc[e] = (a, b, d)
            else:
                pa, pb, pd = prev
                if pd == d:
                    acc[e] = (pa + a, pb + b, d)
                else:
                    acc[e] = (pa * d + a * pd, pb * d + b * pd, pd * d)


def _accumulate(acc: dict, e: tuple, c: GaussRational, n: int = 1, m: int = 1) -> None:
    """acc[e] += c * n / m on a triple accumulator, for ints n and m > 0."""
    a, b, d = c.a * n, c.b * n, c.d * m
    prev = acc.get(e)
    if prev is None:
        acc[e] = (a, b, d)
    else:
        pa, pb, pd = prev
        if pd == d:
            acc[e] = (pa + a, pb + b, d)
        else:
            acc[e] = (pa * d + a * pd, pb * d + b * pd, pd * d)


def _scale(c: GaussRational, k) -> GaussRational:
    """c times an int or Fraction k, on the integer triple of c."""
    if type(k) is int:
        return _make(c.a * k, c.b * k, c.d)
    n = k.numerator
    return _make(c.a * n, c.b * n, c.d * k.denominator)


def _diff_terms(terms: dict, i: int, env=None) -> dict:
    """d/dx_i of one term dict; env is -2a under an envelope exp(-a x_i^2),
    whose derivative adds the term -2a*x_i*p."""
    out: dict = {}
    for e, c in terms.items():
        k = e[i]
        if k:
            out[e[:i] + (k - 1,) + e[i + 1:]] = _scale(c, k)
    if env is not None:
        for e, c in terms.items():
            up = e[:i] + (e[i] + 1,) + e[i + 1:]
            prev = out.get(up)
            out[up] = _scale(c, env) if prev is None else prev + _scale(c, env)
        out = {e: c for e, c in out.items() if not c.is_zero()}
    return out


_new = object.__new__
_set_gens = Poly.gens.__set__
_set_terms = Poly.terms.__set__
