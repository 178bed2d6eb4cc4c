"""Truncated formal series in the deformation parameter lam.

A LambdaSeries holds coefficients 0..K of a ring-like value (Poly or
GaussRational) and all operations are exact modulo lam^(K+1).  The
classical limit is coefficient 0.  A value graded by powers of pi is not a
series coefficient: it is a Func, which carries the grade.

LambdaSeries(...) pads or truncates its coefficients to the order.  The
arithmetic below (+, -, *, shift, map, conj, of) already has exactly K+1 of
them, so it builds its result through LambdaSeries._trusted, which takes
the tuple as it is; so do the kernels of funcs, diffop, starprod and
integrate.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, neg

from .scalars import GaussRational, rational_sqrt


class LambdaSeries:
    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order: int):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("need at least one coefficient to infer the ring")
        zero = coeffs[0].ring_zero() if hasattr(coeffs[0], "ring_zero") else GaussRational(0)
        while len(coeffs) < order + 1:
            coeffs.append(zero)
        object.__setattr__(self, "coeffs", tuple(coeffs[: order + 1]))
        object.__setattr__(self, "order", int(order))

    def __setattr__(self, name, value):
        raise AttributeError("LambdaSeries is immutable")

    @staticmethod
    def _trusted(coeffs: tuple, order: int) -> "LambdaSeries":
        """A LambdaSeries that takes a tuple of exactly order + 1
        coefficients and an int order as they are, without checks."""
        s = _new(LambdaSeries)
        _set_coeffs(s, coeffs)
        _set_order(s, order)
        return s

    # -- constructors ----------------------------------------------------

    @staticmethod
    def of(value, order: int) -> "LambdaSeries":
        zero = value.ring_zero() if hasattr(value, "ring_zero") else GaussRational(0)
        return LambdaSeries._trusted((value,) + (zero,) * order, order)

    @staticmethod
    def lam_power(value, power: int, order: int) -> "LambdaSeries":
        zero = value.ring_zero() if hasattr(value, "ring_zero") else GaussRational(0)
        coeffs = [zero] * (order + 1)
        if power <= order:
            coeffs[power] = value
        return LambdaSeries(coeffs, order)

    def ring_zero(self):
        c = self.coeffs[0]
        return c.ring_zero() if hasattr(c, "ring_zero") else GaussRational(0)

    def zero_like(self) -> "LambdaSeries":
        return LambdaSeries.of(self.ring_zero(), self.order)

    # -- basic arithmetic -------------------------------------------------

    def _check(self, other: "LambdaSeries"):
        if self.order != other.order:
            raise ValueError(
                f"mismatched truncation orders {self.order} and {other.order}"
            )

    def __add__(self, other):
        if not isinstance(other, LambdaSeries):
            return LambdaSeries._trusted((self.coeffs[0] + other,) + self.coeffs[1:],
                                         self.order)
        self._check(other)
        return LambdaSeries._trusted(tuple(map(add, self.coeffs, other.coeffs)),
                                     self.order)

    __radd__ = __add__

    def __neg__(self):
        return LambdaSeries._trusted(tuple(map(neg, self.coeffs)), self.order)

    def __sub__(self, other):
        if isinstance(other, LambdaSeries):
            return self + (-other)
        return self + (-(self.zero_like() + other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Cauchy product truncated at the common order."""
        if type(other) is not LambdaSeries:
            return LambdaSeries._trusted(tuple([c * other for c in self.coeffs]),
                                         self.order)
        self._check(other)
        zero = self.ring_zero()
        out = [zero for _ in range(self.order + 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j in range(self.order + 1 - i):
                b = other.coeffs[j]
                if b.is_zero():
                    continue
                out[i + j] = out[i + j] + a * b
        return LambdaSeries._trusted(tuple(out), self.order)

    __rmul__ = __mul__

    def shift(self, powers: int) -> "LambdaSeries":
        """Multiply by lam^powers, truncating."""
        if powers <= 0:
            return self
        zeros = (self.ring_zero(),) * min(powers, self.order + 1)
        return LambdaSeries._trusted(zeros + self.coeffs[: self.order + 1 - len(zeros)],
                                     self.order)

    def map(self, fn) -> "LambdaSeries":
        return LambdaSeries._trusted(tuple([fn(c) for c in self.coeffs]), self.order)

    def conj(self) -> "LambdaSeries":
        return self.map(lambda c: c.conj())

    def truncate(self, order: int) -> "LambdaSeries":
        return LambdaSeries(list(self.coeffs[: order + 1]), order)

    def extend(self, order: int) -> "LambdaSeries":
        if order < self.order:
            return self.truncate(order)
        return LambdaSeries(list(self.coeffs), order)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def classical(self):
        return self.coeffs[0]

    def lowest_order(self):
        for r, c in enumerate(self.coeffs):
            if not c.is_zero():
                return r, c
        return None, None

    def __eq__(self, other):
        """Equality with a series, or with a ring scalar read as a constant series."""
        if type(other) is not LambdaSeries:
            if not (type(other) is type(self.coeffs[0])
                    or isinstance(other, (int, Fraction, GaussRational))):
                return NotImplemented
            other = self.zero_like() + other
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        parts = []
        for r, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if r == 0:
                parts.append(f"{c!r}")
            elif r == 1:
                parts.append(f"({c!r})*lam")
            else:
                parts.append(f"({c!r})*lam^{r}")
        return " + ".join(parts) if parts else "0"


def _leading_constant(a: LambdaSeries):
    """The constant value of the order-zero coefficient, or raise."""
    c0 = a.coeffs[0]
    if isinstance(c0, GaussRational):
        return c0
    if not c0.is_constant():
        raise ValueError("leading term is not a constant")
    return c0.constant_term()


def series_inverse(a: LambdaSeries, mul=None) -> LambdaSeries:
    """Multiplicative inverse with respect to mul (default: pointwise).

    Requires the order-zero coefficient to be an invertible constant.  The
    result satisfies mul(a, inv) == 1 exactly modulo lam^(K+1).  The
    pointwise inverse comes from the Cauchy recursion
    v_r = -c0^-1 sum_{j>=1} a_j v_{r-j}, one new coefficient per order; a
    supplied mul is corrected order by order against the defect 1 - mul(a, v).
    """
    c0 = _leading_constant(a)
    if c0.is_zero():
        raise ZeroDivisionError("leading term is zero; series is not invertible")
    c0inv = c0.inverse()
    if mul is None:
        minus = -c0inv
        coeffs = [a.ring_zero() + c0inv]
        for r in range(1, a.order + 1):
            acc = a.ring_zero()
            for j in range(1, r + 1):
                if not a.coeffs[j].is_zero():
                    acc = acc + a.coeffs[j] * coeffs[r - j]
            coeffs.append(acc * minus)
        return LambdaSeries(coeffs, a.order)
    one = a.zero_like() + GaussRational(1)
    v = a.zero_like() + c0inv
    for r in range(1, a.order + 1):
        defect = one - mul(a, v)
        v = v + LambdaSeries.lam_power(defect.coeffs[r] * c0inv, r, a.order)
    return v


def series_sqrt(a: LambdaSeries, mul=None) -> LambdaSeries:
    """Square root with respect to mul (default: pointwise multiplication).

    The order-zero coefficient must be the square of a positive rational;
    the result v satisfies mul(v, v) == a exactly modulo lam^(K+1).
    """
    if mul is None:
        mul = LambdaSeries.__mul__
    c0 = _leading_constant(a)
    if not c0.is_real() or c0.re <= 0:
        raise ValueError("leading term must be a positive rational constant")
    root = rational_sqrt(c0.re)
    if root is None:
        raise ValueError(f"leading term {c0.re} is not the square of a rational")
    v = a.zero_like() + GaussRational(root)
    half_inv = GaussRational(Fraction(1, 2) / root)
    for r in range(1, a.order + 1):
        defect = a - mul(v, v)
        v = v + LambdaSeries.lam_power(defect.coeffs[r] * half_inv, r, a.order)
    return v


_new = object.__new__
_set_coeffs = LambdaSeries.coeffs.__set__
_set_order = LambdaSeries.order.__set__
