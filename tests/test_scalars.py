"""GaussRational on integer triples against the pair-of-Fractions reference.

RefGauss below is the former GaussRational, kept here only as the
construction the triple arithmetic must reproduce exactly: equal values,
equal repr, equal hash and equal Fraction views.
"""

from fractions import Fraction
from math import gcd

import pytest

from redstar.scalars import GaussRational, _make


class RefGauss:
    """re + im*i with a pair of Fractions."""

    def __init__(self, re=0, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def coerce(x):
        return x if isinstance(x, RefGauss) else RefGauss(x)

    def __add__(self, other):
        other = RefGauss.coerce(other)
        return RefGauss(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return RefGauss(-self.re, -self.im)

    def __sub__(self, other):
        other = RefGauss.coerce(other)
        return RefGauss(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return RefGauss.coerce(other) + (-self)

    def __mul__(self, other):
        other = RefGauss.coerce(other)
        return RefGauss(self.re * other.re - self.im * other.im,
                        self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of 0")
        return RefGauss(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * RefGauss.coerce(other).inverse()

    def __rtruediv__(self, other):
        return RefGauss.coerce(other) * self.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = RefGauss(1)
        for _ in range(n):
            out = out * self
        return out

    def conj(self):
        return RefGauss(self.re, -self.im)

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def is_real(self):
        return self.im == 0

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re} {sign} {abs(self.im)}*i)"


def assert_same(got, ref):
    assert type(got) is GaussRational
    assert got.d > 0 and gcd(got.a, got.b, got.d) == 1
    assert (got.re, got.im) == (ref.re, ref.im)
    assert type(got.re) is Fraction and type(got.im) is Fraction
    assert repr(got) == repr(ref)
    assert hash(got) == hash(ref)
    assert got.is_zero() == ref.is_zero()
    assert got.is_real() == ref.is_real()
    assert got == GaussRational(ref.re, ref.im)


# zero, real, imaginary, mixed and negative-numerator values, written as
# ints, Fractions and strings; "2/4" and "-6/8" are not in lowest terms
PAIRS = [
    (0, 0), (3, 0), (-7, 0), (Fraction(5, 6), 0), (0, 1), (0, -1),
    (0, Fraction(-2, 3)), (1, 1), (Fraction(-3, 4), Fraction(5, 6)),
    (Fraction(1, 2), Fraction(-1, 3)), (-4, Fraction(7, 10)),
    ("2/4", "-6/8"), (Fraction(9, 15), 12),
]
SCALARS = [0, 2, -3, Fraction(-1, 2), Fraction(4, 6)]


def both(pair):
    return GaussRational(*pair), RefGauss(*pair)


@pytest.mark.parametrize("pair", PAIRS, ids=str)
def test_construction_and_unary(pair):
    x, r = both(pair)
    assert_same(x, r)
    assert_same(-x, -r)
    assert_same(x.conj(), r.conj())
    for n in range(4):
        assert_same(x ** n, r ** n)
    if r.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert_same(x.inverse(), r.inverse())
        assert_same(x ** -2, r ** -2)
        assert_same(1 / x, 1 / r)


@pytest.mark.parametrize("left", PAIRS, ids=str)
def test_binary(left):
    x, r = both(left)
    for right in PAIRS:
        y, s = both(right)
        assert_same(x + y, r + s)
        assert_same(x - y, r - s)
        assert_same(x * y, r * s)
        if not s.is_zero():
            assert_same(x / y, r / s)
        assert (x == y) == ((r.re, r.im) == (s.re, s.im))


@pytest.mark.parametrize("pair", PAIRS, ids=str)
@pytest.mark.parametrize("k", SCALARS, ids=str)
def test_mixed_operands(pair, k):
    x, r = both(pair)
    for got, ref in [(x + k, r + k), (k + x, k + r), (x - k, r - k),
                     (k - x, k - r), (x * k, r * k), (k * x, k * r)]:
        assert_same(got, ref)
    if k:
        assert_same(x / k, r / k)
    if not r.is_zero():
        assert_same(k / x, k / r)
    assert (x == k) == (r.is_real() and r.re == k)
    assert (k == x) == (x == k)


def test_equality_with_other_types():
    assert GaussRational(2) == 2 and 2 == GaussRational(2)
    assert GaussRational(Fraction(1, 2)) == Fraction(2, 4)
    assert GaussRational(1, 1) != 1
    assert GaussRational(1) != 1.0
    assert GaussRational(1) != "1"


@pytest.mark.parametrize("triple,pair", [
    ((2, 4, 6), (Fraction(1, 3), Fraction(2, 3))),
    ((3, -6, -9), (Fraction(-1, 3), Fraction(2, 3))),
    ((0, 0, -5), (0, 0)),
    ((0, 10, 4), (0, Fraction(5, 2))),
    ((-4, 0, 1), (-4, 0)),
    ((7, 0, 7), (1, 0)),
])
def test_make_normalises(triple, pair):
    assert_same(_make(*triple), RefGauss(*pair))


def test_immutable_and_hash_stable():
    x = GaussRational(Fraction(1, 2), 3)
    with pytest.raises(AttributeError):
        x.a = 5
    with pytest.raises(AttributeError):
        x.re = 1
    assert hash(GaussRational(3, -1)) == hash((3, -1))
    assert hash(x) == hash((Fraction(1, 2), Fraction(3)))
    assert {x: 1}[GaussRational("2/4", "6/2")] == 1


def test_property_against_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    fractions = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 40))
    values = st.tuples(fractions, fractions)
    ops = st.sampled_from(["add", "sub", "mul", "div", "conj", "neg", "pow"])

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(values, values, ops, st.integers(-3, 3))
    def check(left, right, op, n):
        x, r = both(left)
        y, s = both(right)
        if op == "add":
            got, ref = x + y, r + s
        elif op == "sub":
            got, ref = x - y, r - s
        elif op == "mul":
            got, ref = x * y, r * s
        elif op == "div":
            if s.is_zero():
                return
            got, ref = x / y, r / s
        elif op == "conj":
            got, ref = x.conj(), r.conj()
        elif op == "neg":
            got, ref = -x, -r
        else:
            if n < 0 and r.is_zero():
                return
            got, ref = x ** n, r ** n
        assert_same(got, ref)

    check()
