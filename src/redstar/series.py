"""Truncated formal series in the deformation parameter lam.

A LambdaSeries holds coefficients 0..K, each a Poly, and all operations are
exact modulo lam^(K+1); LambdaSeries(...) refuses any other coefficient
with TypeError.  The classical limit is coefficient 0.  A value in
C[[lam]], or one graded by powers of pi, is not a series of scalars: it is
a Func constant in all coordinates, which carries the grade.

LambdaSeries(...) pads or truncates its coefficients to the order.  The
arithmetic below (+, -, *, shift, map, conj, of) already has exactly K+1 of
them, so it builds its result through LambdaSeries._trusted, which takes
the tuple as it is; so do the kernels of funcs, diffop, starprod and
integrate.

terminating_series sums every lam-series of the engine: the exponential
and logarithm of operators, the Koszul resolvent, the ad-series of a
conjugation, and the geometric and binomial series behind series_inverse,
series_sqrt and the vertical square root of morita.  Each step is linear
and raises the lam order, so the sum stops at order K, and earlier at its
first zero term.

series_inverse and series_sqrt take and return Funcs, under the pointwise
Func product unless another product is passed.  They stay in this module,
where perfbench's tracer counts their calls by name.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul, neg

from .poly import Poly
from .scalars import GaussRational, rational_sqrt


class LambdaSeries:
    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order: int):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("need at least one coefficient to infer the ring")
        if not all(type(c) is Poly for c in coeffs):
            raise TypeError("a LambdaSeries holds Poly coefficients")
        zero = coeffs[0].ring_zero()
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
    def of(value: Poly, order: int) -> "LambdaSeries":
        if type(value) is not Poly:
            raise TypeError("a LambdaSeries holds Poly coefficients")
        return LambdaSeries._trusted((value,) + (value.ring_zero(),) * order, order)

    def ring_zero(self) -> Poly:
        return self.coeffs[0].ring_zero()

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
        return self + (-other)

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
        """Equality with a series, or with a Poly or scalar read as a constant series."""
        if type(other) is not LambdaSeries:
            if not isinstance(other, (Poly, int, Fraction, GaussRational)):
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


def terminating_series(x, step, order: int):
    """x + t_1 + ... + t_order with t_0 = x and t_k = step(t_(k-1), k).

    step gets the newest term only, so the scalar of term k is folded into
    it.  For a linear step every term after a zero one is zero, so the sum
    stops at the first zero term."""
    y = term = x
    for k in range(1, order + 1):
        term = step(term, k)
        if term.is_zero():
            break
        y = y + term
    return y


def _leading_constant(a):
    """The constant value of a Func's order-zero coefficient, or raise."""
    c0 = a.series.coeffs[0]
    if not c0.is_constant():
        raise ValueError("leading term is not a constant")
    return c0.constant_term()


def series_inverse(a, mul=mul):
    """Multiplicative inverse of the Func a with respect to mul (default:
    the pointwise product).

    Requires the order-zero coefficient c0 to be an invertible constant.
    Then a = c0 (1 - e) with e = 1 - a/c0 = O(lam), and the inverse is the
    geometric series sum_(k <= K) e^k / c0 under mul, exact modulo
    lam^(K+1); it is two-sided, since e commutes with its powers.
    """
    c0 = _leading_constant(a)
    if c0.is_zero():
        raise ZeroDivisionError("leading term is zero; series is not invertible")
    c0inv = c0.inverse()
    e = -(a * c0inv) + GaussRational(1)
    return terminating_series(a.zero_like() + c0inv, lambda t, _: mul(e, t), a.order)


def series_sqrt(a, mul=mul):
    """Square root of the Func a with respect to mul (default: the
    pointwise product).

    The order-zero coefficient c0 must be the square of a positive
    rational.  The root is the binomial series
    sqrt(c0) sum_(k <= K) binom(1/2, k) x^k with x = a/c0 - 1 = O(lam)
    under mul, term k being mul(x, term k - 1) times
    binom(1/2, k) / binom(1/2, k - 1) = (3 - 2k)/(2k); its square under mul
    is a exactly modulo lam^(K+1).
    """
    c0 = _leading_constant(a)
    if not c0.is_real() or c0.re <= 0:
        raise ValueError("leading term must be a positive rational constant")
    root = rational_sqrt(c0.re)
    if root is None:
        raise ValueError(f"leading term {c0.re} is not the square of a rational")
    x = a * c0.inverse() + GaussRational(-1)
    return terminating_series(
        a.zero_like() + GaussRational(root),
        lambda t, k: mul(x, t) * GaussRational(Fraction(3 - 2 * k, 2 * k)), a.order)


_new = object.__new__
_set_coeffs = LambdaSeries.coeffs.__set__
_set_order = LambdaSeries.order.__set__
