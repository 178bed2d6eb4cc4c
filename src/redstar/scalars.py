"""Exact scalars: Gaussian rationals and rational multiples of powers of pi.

Everything downstream is built over Q(i).  Gaussian moment integrals
additionally produce factors pi^(k/4); those are carried as an explicit
integer grade so that equality stays coefficient-wise with tolerance zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {x!r}")


class GaussRational:
    """A complex number re + im*i with exact rational re, im."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRational is immutable")

    @staticmethod
    def coerce(x) -> "GaussRational":
        if isinstance(x, GaussRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussRational(x)
        raise TypeError(f"cannot coerce {x!r} to GaussRational")

    def __add__(self, other):
        if not isinstance(other, GaussRational):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented  # a Func, Poly or series operand
            other = GaussRational(other)
        return GaussRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def __sub__(self, other):
        if not isinstance(other, GaussRational):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GaussRational(other)
        return GaussRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussRational.coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, GaussRational):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GaussRational(other)
        return GaussRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "GaussRational":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of 0")
        return GaussRational(self.re / n, -self.im / n)

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
        return GaussRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __eq__(self, other):
        try:
            other = GaussRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re} {sign} {abs(self.im)}*i)"


ZERO = GaussRational(0)
ONE = GaussRational(1)
I = GaussRational(0, 1)


class PiScalar:
    """value * pi^(pi4/4) with an exact GaussRational value.

    The grade pi4 counts quarter powers of pi: Gaussian moment integrals
    always land on even grades (powers of sqrt(pi)); odd grades only enter
    through normalization constants such as pi^(-1/4).  Sums are defined
    only between equal grades, products add grades, and positivity of a
    PiScalar is positivity of its rational part since pi^(pi4/4) > 0.
    """

    __slots__ = ("value", "pi4")

    def __init__(self, value, pi4: int = 0):
        object.__setattr__(self, "value", GaussRational.coerce(value))
        object.__setattr__(self, "pi4", int(pi4))

    def __setattr__(self, name, value):
        raise AttributeError("PiScalar is immutable")

    @staticmethod
    def coerce(x) -> "PiScalar":
        if isinstance(x, PiScalar):
            return x
        return PiScalar(GaussRational.coerce(x), 0)

    def __add__(self, other):
        other = PiScalar.coerce(other)
        if self.value.is_zero():
            return other
        if other.value.is_zero():
            return self
        if self.pi4 != other.pi4:
            raise ValueError(
                f"cannot add pi-grades {self.pi4}/4 and {other.pi4}/4"
            )
        return PiScalar(self.value + other.value, self.pi4)

    __radd__ = __add__

    def __neg__(self):
        return PiScalar(-self.value, self.pi4)

    def __sub__(self, other):
        return self + (-PiScalar.coerce(other))

    def __mul__(self, other):
        other = PiScalar.coerce(other)
        return PiScalar(self.value * other.value, self.pi4 + other.pi4)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = PiScalar.coerce(other)
        return PiScalar(self.value / other.value, self.pi4 - other.pi4)

    def conj(self) -> "PiScalar":
        return PiScalar(self.value.conj(), self.pi4)

    def is_zero(self) -> bool:
        return self.value.is_zero()

    def is_positive(self) -> bool:
        return self.value.is_real() and self.value.re > 0

    def __eq__(self, other):
        try:
            other = PiScalar.coerce(other)
        except TypeError:
            return NotImplemented
        if self.value.is_zero() and other.value.is_zero():
            return True
        return self.value == other.value and self.pi4 == other.pi4

    def __hash__(self):
        if self.value.is_zero():
            return hash(0)
        return hash((self.value, self.pi4))

    def __repr__(self):
        if self.pi4 == 0 or self.value.is_zero():
            return repr(self.value)
        if self.pi4 % 2 == 0:
            tag = f"pi^({Fraction(self.pi4, 2)}/2)" if self.pi4 != 2 else "pi^(1/2)"
        else:
            tag = f"pi^({self.pi4}/4)"
        return f"{self.value!r}*{tag}"


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
