"""Closed-form Gaussian integration of damped polynomials.

Integrals of x^(2k) exp(-A x^2) over the line evaluate to
(2k-1)!!/(2A)^k * sqrt(pi/A); odd moments vanish.  All results are exact
rationals times quarter powers of pi, so downstream identity checks stay at
tolerance zero.  The total Gaussian coefficient A of each integrated
coordinate must be a positive rational square so that sqrt(A) is rational.
A density weight is a Func, so it enters as a factor of the integrand.
gaussian_integrate_shifted integrates x^s f for many monomials x^s in one
pass over the terms of f, sharing the moments; gaussian_integrate is its
single unshifted case.  The even moments are computed once per process:
MOMENTS holds them per decay, keyed by the exponent vector.  A term of f
meets only the shifts of its own parity in every coordinate, the ones that
make all exponents even; every other pairing is an odd moment and vanishes
without a lookup.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .funcs import Func
from .poly import Poly, _accumulate
from .scalars import double_factorial, rational_sqrt
from .series import LambdaSeries

# decay ((a, sqrt(a)) per integrated coordinate) -> {even exponents: moment}
MOMENTS: dict = {}


def gaussian_integrate(f: Func, block) -> Func:
    """Integrate the block coordinates out of f.

    A density weight enters as a factor: integrate f * w.  The envelope of
    the integrand must decay in every block coordinate.  The result is a Func
    over the remaining coordinates whose pi-grade has grown by 2 quarters
    (one factor sqrt(pi)) per integrated coordinate.
    """
    return gaussian_integrate_shifted(f, block, [(0,) * len(block)], f.order)[0]


def gaussian_integrate_shifted(f: Func, block, shifts, top: int) -> list:
    """[gaussian_integrate(x^s * f, block) for s in shifts] in one pass over
    the terms of f, keeping the lam coefficients 0..top (the higher ones come
    back zero).

    x^s is the monomial with exponents s in the block coordinates, in block
    order.  The shifts are bucketed by parity, so a term meets only those
    that give it even exponents; the moments come from MOMENTS.  Every
    shift that no term meets gets the same zero Func.
    """
    gens = f.gens
    for g in block:
        if g not in gens:
            raise ValueError(f"unknown coordinate {g!r}")
    pi4 = f.pi4 + 2 * len(block)
    if f.is_zero():
        return [Func._trusted(gens, f.series, {}, pi4) for _ in shifts]

    decay = []
    for g in block:
        a = f.profile.get(g, Fraction(0))
        if a <= 0:
            raise ValueError(f"no Gaussian decay in coordinate {g!r}")
        root = rational_sqrt(a)
        if root is None:
            raise ValueError(
                f"Gaussian coefficient {a} in {g!r} has no rational square root"
            )
        decay.append((a, root))
    moments = MOMENTS.setdefault(tuple(decay), {})
    idxs = [gens.index(g) for g in block]
    buckets: dict = {}
    for j, s in enumerate(shifts):
        buckets.setdefault(tuple([k & 1 for k in s]), []).append((j, s))

    kept = f.series.coeffs[: top + 1]
    accs = [None] * len(shifts)
    for r, p in enumerate(kept):
        for expo, c in p.terms.items():
            ks = [expo[i] for i in idxs]
            matching = buckets.get(tuple([k & 1 for k in ks]))
            if matching is None:
                continue
            rest = list(expo)
            for i in idxs:
                rest[i] = 0
            key = tuple(rest)
            for j, s in matching:
                shifted = tuple(map(add, ks, s))
                mom = moments.get(shifted)
                if mom is None:
                    mom = moments[shifted] = _moment(shifted, decay)
                acc = accs[j]
                if acc is None:
                    acc = accs[j] = [{} for _ in kept]
                _accumulate(acc[r], key, c, mom.numerator, mom.denominator)

    remaining = {g: a for g, a in f.profile.items() if g not in block}
    zero = Poly.zero(gens)
    pad = (zero,) * (f.order + 1 - len(kept))
    empty = Func._trusted(gens, LambdaSeries._trusted((zero,) * (f.order + 1), f.order),
                          remaining, pi4)
    return [empty if acc is None else Func._trusted(
                gens, LambdaSeries._trusted(Poly._trusted_orders(gens, acc) + pad, f.order),
                remaining, pi4)
            for acc in accs]


def _moment(ks, decay):
    """The integral of prod_i x_i^k_i exp(-a_i x_i^2) over the line in each
    coordinate, per factor sqrt(pi), for even exponents k_i:
    prod_i (k_i - 1)!! / (2 a_i)^(k_i / 2) / sqrt(a_i)."""
    out = Fraction(1)
    for k, (a, root) in zip(ks, decay):
        out *= Fraction(double_factorial(k - 1)) / (2 * a) ** (k // 2) / root
    return out
