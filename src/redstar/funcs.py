"""Damped polynomial functions: the common value type of the engine.

A Func is a truncated lam-series of polynomials together with an optional
Gaussian envelope exp(-sum_c a_c c^2) over named coordinates and an integer
pi-grade (quarter powers of pi) for normalization constants.  Plain
observables are Funcs with empty envelope and grade zero; fiber states and
Gaussian-damped test functions carry envelopes.  Every value in C[[lam]],
times a power of pi or not, is a Func constant in all coordinates
(Func.scalar checks this): a positive or KMS functional, the parameter
kappa of koszul, the inverse and square root of series.  There is no
series of scalars, so the grade rules below hold for scalars too.  All
differential operators act through profile-aware differentiation, so the
class is closed under every operation of the engine.  Func.partials is the one derivative cache
of DiffOperator.apply, the base product and its multiplication operators;
it differentiates only the nonempty lam orders.

Func owns the envelope and grade rules: sums need equal envelopes and
grades (zero matches anything), products add both, and the lam-shift
Func.shift and the coefficient slice Func.coeff keep both.  Callers use these
instead of taking a Func apart and rebuilding it around its envelope and
grade.

Func(...) checks and sorts its profile.  A result whose envelope and grade
are those of an operand (+, -, conj, shift, coeff, diff, set_zero, the
product by a scalar, and Func * Func when at most one side has an envelope)
is built through Func._trusted, which takes them as they are; only merged
envelopes go through the checks again.  The kernels of diffop, starprod and
integrate build their output the same way, and so do the Koszul maps below
(koszul_homotopy, koszul_insertion), which take the {index tuple: Func}
components of an exterior form, walk their terms once and build each
output component once.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf
from operator import gt

from .poly import Poly, _accumulate, _diff_terms
from .scalars import GaussRational
from .series import LambdaSeries


class Func:
    __slots__ = ("gens", "series", "profile", "pi4")

    def __init__(self, series: LambdaSeries, profile=None, pi4: int = 0):
        p0 = series.coeffs[0]
        object.__setattr__(self, "gens", p0.gens)
        object.__setattr__(self, "series", series)
        prof = {}
        for name, a in (profile or {}).items():
            if type(a) is not Fraction:
                a = Fraction(a)
            if a:
                if name not in p0.gens:
                    raise ValueError(f"unknown coordinate {name!r} in profile")
                prof[name] = a
        object.__setattr__(self, "profile", dict(sorted(prof.items())))
        object.__setattr__(self, "pi4", int(pi4))

    def __setattr__(self, name, value):
        raise AttributeError("Func is immutable")

    @staticmethod
    def _trusted(gens: tuple, series: LambdaSeries, profile: dict, pi4: int) -> "Func":
        """A Func that takes its parts as they are, without checks: a series
        of Poly over gens, the sorted profile of nonzero Fractions of a Func
        over gens (shared, never mutated) and an int grade."""
        f = _new(Func)
        _set_gens(f, gens)
        _set_series(f, series)
        _set_profile(f, profile)
        _set_pi4(f, pi4)
        return f

    @staticmethod
    def _product(series: LambdaSeries, f: "Func", g: "Func") -> "Func":
        """The Func of a product of f and g with the given series: envelopes
        and pi-grades add."""
        if not g.profile:
            return Func._trusted(f.gens, series, f.profile, f.pi4 + g.pi4)
        if not f.profile:
            return Func._trusted(f.gens, series, g.profile, f.pi4 + g.pi4)
        prof = dict(f.profile)
        for k, v in g.profile.items():
            prof[k] = prof.get(k, Fraction(0)) + v
        return Func(series, prof, f.pi4 + g.pi4)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_poly(p: Poly, order: int, profile=None, pi4: int = 0) -> "Func":
        return Func(LambdaSeries.of(p, order), profile, pi4)

    @staticmethod
    def constant(gens, c, order: int) -> "Func":
        return Func.from_poly(Poly.constant(gens, c), order)

    @staticmethod
    def zero(gens, order: int) -> "Func":
        return Func.from_poly(Poly.zero(gens), order)

    @staticmethod
    def one(gens, order: int) -> "Func":
        return Func.from_poly(Poly.one(gens), order)

    @staticmethod
    def var(gens, name, order: int) -> "Func":
        return Func.from_poly(Poly.var(gens, name), order)

    def zero_like(self) -> "Func":
        return Func.zero(self.gens, self.order)

    @property
    def order(self) -> int:
        return self.series.order

    def is_zero(self) -> bool:
        return self.series.is_zero()

    # -- arithmetic -------------------------------------------------------

    def _compatible(self, other: "Func"):
        if self.gens != other.gens:
            raise ValueError("generator mismatch")
        if self.is_zero() or other.is_zero():
            return
        if self.profile != other.profile:
            raise ValueError(
                f"cannot add different envelopes {self.profile} and {other.profile}"
            )
        if self.pi4 != other.pi4:
            raise ValueError(f"cannot add pi-grades {self.pi4}/4 and {other.pi4}/4")

    def __add__(self, other):
        if type(other) is not Func:
            if isinstance(other, (int, Fraction, GaussRational)):
                other = Func.constant(self.gens, other, self.order)
            elif not isinstance(other, Func):
                return NotImplemented
        self._compatible(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        return self._like(self.series + other.series)

    __radd__ = __add__

    def __neg__(self):
        return self._like(-self.series)

    def __sub__(self, other):
        if type(other) is not Func:
            if isinstance(other, (int, Fraction, GaussRational)):
                other = Func.constant(self.gens, other, self.order)
            elif not isinstance(other, Func):
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction, GaussRational)):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        """Pointwise product; envelopes and pi-grades add."""
        if type(other) is not Func:
            if isinstance(other, (int, Fraction, GaussRational)):
                return self._like(self.series * other)
            if not isinstance(other, Func):
                return NotImplemented
        if self.gens != other.gens:
            raise ValueError("generator mismatch")
        return Func._product(self.series * other.series, self, other)

    __rmul__ = __mul__

    def _like(self, series: LambdaSeries) -> "Func":
        """series with this Func's generators, envelope and grade."""
        return Func._trusted(self.gens, series, self.profile, self.pi4)

    def conj(self) -> "Func":
        return self._like(self.series.conj())

    # -- lam-grading -------------------------------------------------------

    def shift(self, k: int) -> "Func":
        """lam^k * f, truncated; zero for k > order, envelope and grade kept."""
        return self._like(self.series.shift(k))

    def coeff(self, r: int) -> "Func":
        """The lam^r coefficient as a lam-constant Func, envelope and grade kept."""
        return self._like(LambdaSeries.of(self.series.coeffs[r], self.order))

    # -- calculus ----------------------------------------------------------

    def diff(self, name: str) -> "Func":
        """Envelope-aware partial derivative: under exp(-a x^2), d/dx also
        adds -2a*x*p."""
        i = self.gens.index(name)
        env = -2 * self.profile[name] if name in self.profile else None
        return self._like(self.series.map(
            lambda p: Poly._trusted(self.gens, _diff_terms(p.terms, i, env))))

    def partials(self) -> "Partials":
        """The cache alpha -> partial^alpha f, as lam coefficients' term dicts."""
        return Partials(self)

    def set_zero(self, names) -> "Func":
        """Restrict by putting the listed coordinates to zero (no envelope there)."""
        for n in names:
            if n in self.profile:
                raise ValueError(f"cannot restrict through the envelope in {n}")
        return self._like(self.series.map(lambda p: p.set_zero(names)))

    def depends_on(self, name: str) -> bool:
        return name in self.profile or any(p.depends_on(name) for p in self.series.coeffs)

    def rename(self, mapping: dict, new_gens) -> "Func":
        prof = {mapping.get(k, k): v for k, v in self.profile.items()}
        return Func(
            self.series.map(lambda p: p.rename(mapping, new_gens)), prof, self.pi4
        )

    def with_profile(self, extra: dict) -> "Func":
        prof = dict(self.profile)
        for k, v in extra.items():
            prof[k] = prof.get(k, Fraction(0)) + Fraction(v)
        return Func(self.series, prof, self.pi4)

    def with_pi4(self, delta: int) -> "Func":
        return Func(self.series, self.profile, self.pi4 + delta)

    def scalar(self) -> "Func":
        """This Func, checked to be constant in all coordinates: a value in
        C[[lam]] times pi^(pi4/4)."""
        if self.profile:
            raise ValueError("not a scalar: envelope present")
        if not all(p.is_constant() for p in self.series.coeffs):
            raise ValueError("not a scalar: coordinate dependence remains")
        return self

    def evaluate(self, point: dict) -> "Func":
        for n in point:
            if n in self.profile:
                raise ValueError("cannot evaluate through the envelope exactly")
        return Func(self.series.map(lambda p: p.evaluate(point)), self.profile, self.pi4)

    def __eq__(self, other):
        if type(other) is not Func:
            if isinstance(other, (int, Fraction, GaussRational)):
                other = Func.constant(self.gens, other, self.order)
            elif not isinstance(other, Func):
                return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return (
            self.gens == other.gens
            and self.profile == other.profile
            and self.pi4 == other.pi4
            and self.series == other.series
        )

    def __hash__(self):
        if self.is_zero():
            return hash("Func.zero")
        return hash((self.gens, self.series, tuple(self.profile.items()), self.pi4))

    def __repr__(self):
        body = repr(self.series)
        if self.profile:
            env = "*".join(f"exp(-{a}*{c}^2)" for c, a in self.profile.items())
            body = f"({body})*{env}"
        if self.pi4:
            body = f"({body})*pi^({self.pi4}/4)"
        return body


class Partials(dict):
    """alpha -> the lam coefficients of partial^alpha f as term dicts, each
    taken once from a cached lower derivative, envelope-aware as Func.diff.
    Past f's degree in a coordinate without envelope the list is empty.

    top is f's total degree, the highest |e| over its terms (-1 for zero),
    or inf under an envelope: every partial^alpha f with |alpha| > top
    vanishes, which DiffOperator.apply reads before it asks for one."""

    def __init__(self, f: Func):
        coeffs = [p.terms for p in f.series.coeffs]
        super().__init__({(0,) * len(f.gens): coeffs})
        self.envs = [-2 * f.profile[g] if g in f.profile else None for g in f.gens]
        exps = [e for t in coeffs for e in t]
        tops = map(max, zip(*exps)) if exps else [-1] * len(f.gens)
        self.bound = [inf if env is not None and exps else top
                      for env, top in zip(self.envs, tops)]
        self.top = (inf if f.profile else max(map(sum, exps))) if exps else -1

    def __missing__(self, d):
        if any(map(gt, d, self.bound)):
            return []
        i = next(i for i, k in enumerate(d) if k)
        lower = self[d[:i] + (d[i] - 1,) + d[i + 1:]]
        env = self.envs[i]
        out = self[d] = [_diff_terms(t, i, env) if t else t for t in lower]
        return out


# ---------------------------------------------------------------------------
# Koszul maps on the term dicts of exterior components
# ---------------------------------------------------------------------------


def koszul_homotopy(comps: dict, jidx, k: int) -> dict:
    """The Koszul homotopy h_k on {index tuple: Func} components.

    A term c x^e of the component at idx gives, for each momentum J_a
    (generator position jidx[a], a not in idx, e_a = e[jidx[a]] > 0), the
    term sign c e_a / (k + |e|_J) x^(e - 1_a) of the component at the
    sorted idx + (a,), where |e|_J is the momentum degree of the term and
    sign = (-1)^(number of entries of idx below a): d/dJ_a, the average
    over the momentum ray and the wedge with e_a.  The ray average has no
    closed form under an envelope in a momentum, so such a component
    raises ValueError."""
    out: dict = {}
    for idx, f in comps.items():
        if any(f.gens[j] in f.profile for j in jidx):
            raise ValueError("degree weighting across an envelope is undefined")
        free = [(a, j) for a, j in enumerate(jidx) if a not in idx]
        rows: dict = {}
        for r, p in enumerate(f.series.coeffs):
            for e, c in p.terms.items():
                n = k + sum([e[j] for j in jidx])
                for a, j in free:
                    m = e[j]
                    if m:
                        row = rows.get(a)
                        if row is None:
                            new = tuple(sorted(idx + (a,)))
                            sign = -1 if sum(i < a for i in idx) % 2 else 1
                            row = rows[a] = (sign, _component(out, new, f))
                        _accumulate(row[1][r], e[:j] + (m - 1,) + e[j + 1:], c,
                                    row[0] * m, n)
    return _finish_components(out)


def koszul_insertion(comps: dict, jidx) -> dict:
    """The classical Koszul differential sum_a J_a ins(e^a) on {index tuple:
    Func} components: the component at idx, with a at position m of idx,
    goes to idx without a, its exponents shifted by one in J_a (generator
    position jidx[a]) and its sign (-1)^m."""
    out: dict = {}
    for a, j in enumerate(jidx):
        for idx, f in comps.items():
            if a not in idx:
                continue
            m = idx.index(a)
            sign = -1 if m % 2 else 1
            accs = _component(out, idx[:m] + idx[m + 1:], f)
            for acc, p in zip(accs, f.series.coeffs):
                for e, c in p.terms.items():
                    _accumulate(acc, e[:j] + (e[j] + 1,) + e[j + 1:], c, sign)
    return _finish_components(out)


def _component(out: dict, idx: tuple, f: Func) -> list:
    """The triple accumulators of the output component at idx, one per lam
    order, created with f as the carrier of its envelope and grade; f must
    agree with an earlier carrier as a summand of a Func sum."""
    slot = out.get(idx)
    if slot is None:
        slot = out[idx] = (f, [{} for _ in f.series.coeffs])
    else:
        slot[0]._compatible(f)
    return slot[1]


def _finish_components(out: dict) -> dict:
    """{idx: Func} from the accumulators of _component, zero sums dropped."""
    comps = {}
    for idx, (f, accs) in out.items():
        polys = Poly._trusted_orders(f.gens, accs)
        if any(p.terms for p in polys):
            comps[idx] = f._like(LambdaSeries._trusted(polys, f.order))
    return comps


_new = object.__new__
_set_gens = Func.gens.__set__
_set_series = Func.series.__set__
_set_profile = Func.profile.__set__
_set_pi4 = Func.pi4.__set__
