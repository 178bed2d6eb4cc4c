"""Exact scalars: Gaussian rationals.

Everything downstream is built over Q(i).  A GaussRational is stored as
three ints (a, b, d) meaning (a + b*i)/d, with d > 0 and gcd(a, b, d) == 1,
so every value has exactly one triple and zero is (0, 0, 1).  Arithmetic
works on the triples with one gcd per result (_make); .re and .im are
read-only Fraction views.  Gaussian moment integrals additionally produce
factors pi^(k/4); a Func carries those as an explicit integer grade, so that
equality stays coefficient-wise with tolerance zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {x!r}")


class GaussRational:
    """A complex number re + im*i with exact rational re = a/d, im = b/d,
    stored as the ints a, b, d with d > 0 and gcd(a, b, d) == 1."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            re, im = _frac(re), _frac(im)
            d = lcm(re.denominator, im.denominator)
            a = re.numerator * (d // re.denominator)
            b = im.numerator * (d // im.denominator)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussRational is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    @staticmethod
    def coerce(x) -> "GaussRational":
        if type(x) is GaussRational:
            return x
        if isinstance(x, (int, Fraction)):
            return GaussRational(x)
        raise TypeError(f"cannot coerce {x!r} to GaussRational")

    def __add__(self, other):
        if type(other) is not GaussRational:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented  # a Func, Poly or series operand
            other = GaussRational(other)
        d, e = self.d, other.d
        if d == e:
            return _make(self.a + other.a, self.b + other.b, d)
        return _make(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        return _triple(-self.a, -self.b, self.d)

    def __sub__(self, other):
        if type(other) is not GaussRational:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GaussRational(other)
        d, e = self.d, other.d
        if d == e:
            return _make(self.a - other.a, self.b - other.b, d)
        return _make(self.a * e - other.a * d, self.b * e - other.b * d, d * e)

    def __rsub__(self, other):
        return GaussRational.coerce(other) + (-self)

    def __mul__(self, other):
        if type(other) is not GaussRational:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GaussRational(other)
        a, b, c, e = self.a, self.b, other.a, other.b
        # real and purely imaginary factors need two products, not four
        if not e:
            return _make(a * c, b * c, self.d * other.d)
        if not b:
            return _make(a * c, a * e, self.d * other.d)
        if not c:
            return _make(-b * e, a * e, self.d * other.d)
        if not a:
            return _make(-b * e, b * c, self.d * other.d)
        return _make(a * c - b * e, a * e + b * c, self.d * other.d)

    __rmul__ = __mul__

    def inverse(self) -> "GaussRational":
        a, b, d = self.a, self.b, self.d
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("inverse of 0")
        return _make(d * a, -d * b, n)

    def __truediv__(self, other):
        return self * GaussRational.coerce(other).inverse()

    def __rtruediv__(self, other):
        return GaussRational.coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("integer powers only")
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conj(self) -> "GaussRational":
        return _triple(self.a, -self.b, self.d)

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def is_real(self) -> bool:
        return not self.b

    def __eq__(self, other):
        if type(other) is not GaussRational:
            try:
                other = GaussRational.coerce(other)
            except TypeError:
                return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        # hash((re, im)) of the Fraction pair: set and dict order can reach
        # the reports, so these values are part of their byte determinism;
        # for d == 1 it is the hash of the int pair
        if self.d == 1:
            return hash((self.a, self.b))
        return hash((self.re, self.im))

    def __repr__(self):
        if not self.b:
            return str(self.re)
        if not self.a:
            return f"{self.im}*i"
        sign = "+" if self.b > 0 else "-"
        return f"({self.re} {sign} {abs(self.im)}*i)"


_set_a = GaussRational.a.__set__
_set_b = GaussRational.b.__set__
_set_d = GaussRational.d.__set__
_new = object.__new__


def _triple(a: int, b: int, d: int) -> GaussRational:
    """(a + b*i)/d from a triple that is already normalised."""
    x = _new(GaussRational)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


def _make(a: int, b: int, d: int) -> GaussRational:
    """(a + b*i)/d for ints with d != 0, normalised with one gcd; built in
    place, as _triple builds it, since it is the engine's hottest
    constructor."""
    if d != 1:
        g = gcd(a, b, d)
        if d < 0:
            g = -g
        if g != 1:
            a //= g
            b //= g
            d //= g
    x = _new(GaussRational)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


ZERO = GaussRational(0)
ONE = GaussRational(1)
I = GaussRational(0, 1)


def double_factorial(n: int) -> int:
    """(2k-1)!! for odd n = 2k-1; returns 1 for n <= 0."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def rational_sqrt(q: Fraction):
    """The rational square root of q >= 0, or None if q is no rational square."""
    num, den = isqrt(q.numerator), isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None
