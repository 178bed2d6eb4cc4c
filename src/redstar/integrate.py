"""Closed-form Gaussian integration of damped polynomials.

Integrals of x^(2k) exp(-A x^2) over the line evaluate to
(2k-1)!!/(2A)^k * sqrt(pi/A); odd moments vanish.  All results are exact
rationals times quarter powers of pi, so downstream identity checks stay at
tolerance zero.  The total Gaussian coefficient A of each integrated
coordinate must be a positive rational square so that sqrt(A) is rational.
A density weight is a Func, so it enters as a factor of the integrand.
"""

from __future__ import annotations

from fractions import Fraction

from .funcs import Func
from .poly import Poly
from .scalars import GaussRational, double_factorial, rational_sqrt
from .series import LambdaSeries


def gaussian_integrate(f: Func, block) -> Func:
    """Integrate the block coordinates out of f.

    A density weight enters as a factor: integrate f * w.  The envelope of
    the integrand must decay in every block coordinate.  The result is a Func
    over the remaining coordinates whose pi-grade has grown by 2 quarters
    (one factor sqrt(pi)) per integrated coordinate.
    """
    gens = f.gens
    for g in block:
        if g not in gens:
            raise ValueError(f"unknown coordinate {g!r}")

    if f.is_zero():
        return Func(f.series, {}, f.pi4 + 2 * len(block))

    exponents = {}
    for g in block:
        a = f.profile.get(g, Fraction(0))
        if a <= 0:
            raise ValueError(f"no Gaussian decay in coordinate {g!r}")
        root = rational_sqrt(a)
        if root is None:
            raise ValueError(
                f"Gaussian coefficient {a} in {g!r} has no rational square root"
            )
        exponents[g] = (a, root)

    idxs = {gens.index(g): exponents[g] for g in block}
    out_coeffs = []
    for p in f.series.coeffs:
        terms = {}
        for expo, c in p.terms.items():
            factor = GaussRational(1)
            e = list(expo)
            dead = False
            for i, (a, root) in idxs.items():
                k = expo[i]
                if k % 2 == 1:
                    dead = True
                    break
                m = k // 2
                factor = factor * GaussRational(
                    Fraction(double_factorial(2 * m - 1)) / (2 * a) ** m / root
                )
                e[i] = 0
            if dead:
                continue
            key = tuple(e)
            add = c * factor
            terms[key] = terms.get(key, GaussRational(0)) + add
        out_coeffs.append(Poly(gens, terms))

    remaining = {g: a for g, a in f.profile.items() if g not in exponents}
    return Func(
        LambdaSeries(out_coeffs, f.order),
        remaining,
        f.pi4 + 2 * len(block),
    )
