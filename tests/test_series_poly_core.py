"""The exact arithmetic substrate: scalars, polynomials, truncated series,
differential operators, and closed-form Gaussian integration."""

import operator
import random
from fractions import Fraction
from math import factorial

import pytest

from redstar.diffop import DiffOperator
from redstar.funcs import Func
from redstar.integrate import gaussian_integrate
from redstar.involution import is_positive_scalar
from redstar.poly import Poly
from redstar.scalars import GaussRational, I, double_factorial
from redstar.series import LambdaSeries, series_inverse, series_sqrt, terminating_series

GENS = ("q", "p")
K = 4


def one():
    return Func.one(GENS, K)


def var(n):
    return Func.var(GENS, n, K)


def lam_times(f, k=1):
    return Func(f.series.shift(k), f.profile, f.pi4)


class TestScalars:
    def test_field_axioms_random(self):
        rng = random.Random(3)
        for _ in range(50):
            a = GaussRational(Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                              Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
            b = GaussRational(rng.randint(-5, 5), rng.randint(-5, 5))
            c = GaussRational(rng.randint(-5, 5), rng.randint(-5, 5))
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            if not a.is_zero():
                assert a * a.inverse() == GaussRational(1)
        assert I * I == GaussRational(-1)

    def test_conjugation_involutive(self):
        a = GaussRational(Fraction(2, 3), Fraction(-5, 7))
        assert a.conj().conj() == a
        assert (a * a.conj()).im == 0

    def test_pi_scalar_grading(self):
        # a value c * pi^(pi4/4) is a Func constant in every coordinate
        def scalar(c, pi4):
            return Func.constant(("x",), c, 2).with_pi4(pi4).scalar()

        assert scalar(2, 2) * scalar(3, -2) == scalar(6, 0)
        with pytest.raises(ValueError):
            scalar(1, 2) + scalar(1, 0)
        assert scalar(0, 2) + scalar(5, 0) == scalar(5, 0)
        assert scalar(5, 0) + scalar(0, 3) == scalar(5, 0)
        assert is_positive_scalar(scalar(Fraction(3, 2), 2))
        assert not is_positive_scalar(scalar(Fraction(-3, 2), 2))
        assert not is_positive_scalar(scalar(GaussRational(1, 1), 0))
        assert is_positive_scalar(scalar(0, 1))
        lowest_negative = scalar(0, 2) + scalar(-1, 2).shift(1) + scalar(4, 2).shift(2)
        assert not is_positive_scalar(lowest_negative)
        with pytest.raises(ValueError, match="coordinate dependence"):
            Func.var(("x",), "x", 2).scalar()
        with pytest.raises(ValueError, match="envelope"):
            Func.one(("x",), 2).with_profile({"x": 1}).scalar()

    def test_double_factorial(self):
        assert [double_factorial(n) for n in (-1, 1, 3, 5, 7)] == [1, 1, 3, 15, 105]


class TestSeries:
    def test_mul_examples(self):
        q = var("q")
        p = var("p")
        a = one() + lam_times(q)
        b = one() - lam_times(q)
        assert a.series * b.series == (one() - lam_times(q * q, 2)).series
        zero = Func.zero(GENS, K)
        assert (a.series * zero.series).is_zero()
        c = q + lam_times(p)
        assert c.series * p.series == (q * p + lam_times(p * p)).series

    def test_mul_commutative_and_mismatch(self):
        q = var("q")
        a = (one() + lam_times(q)).series
        b = (q * q + lam_times(q, 2)).series
        assert a * b == b * a
        with pytest.raises(ValueError):
            a * b.truncate(2)

    def test_equality_with_scalars_and_foreign_objects(self):
        zero = Func.zero(GENS, K).series
        assert zero == 0
        assert not (zero == object())
        assert zero != object()
        two = (one() * 2).series
        assert two == 2
        assert two == GaussRational(2)
        assert two == Poly.constant(GENS, 2)
        assert not (two == "2")
        assert LambdaSeries.of(Poly.constant(GENS, 3), K) == Fraction(3)

    def test_coefficients_are_polys(self):
        with pytest.raises(TypeError):
            LambdaSeries([GaussRational(1)], 2)
        with pytest.raises(TypeError):
            LambdaSeries([Poly.one(GENS), Fraction(1)], 2)
        with pytest.raises(TypeError):
            LambdaSeries.of(GaussRational(1), 2)

    def test_inverse_examples(self):
        assert series_inverse(one()) == one()
        two = one() * 2
        assert series_inverse(two) == one() * Fraction(1, 2)
        q = var("q")
        a = one() + lam_times(q)
        inv = series_inverse(a)
        geometric = (one() - lam_times(q) + lam_times(q * q, 2)
                     - lam_times(q * q * q, 3) + lam_times(q * q * q * q, 4))
        assert inv == geometric
        assert a * inv == one()

    def test_inverse_needs_invertible_leading_term(self):
        q = var("q")
        with pytest.raises(ValueError):
            series_inverse(q)
        with pytest.raises(ZeroDivisionError):
            series_inverse(lam_times(q))

    def test_sqrt_examples(self):
        assert series_sqrt(one()) == one()
        q = var("q")
        a = one() * 4 + lam_times(q) * 4
        s = series_sqrt(a)
        assert s * s == a
        expected_start = one() * 2 + lam_times(q)
        assert s.series.coeffs[0] == expected_start.series.coeffs[0]
        assert s.series.coeffs[1] == expected_start.series.coeffs[1]
        assert s.series.coeffs[2] == (-(q * q) * Fraction(1, 4)).series.coeffs[0]

    def test_sqrt_with_supplied_multiplication(self):
        from redstar.geometry import ModelSpace, abelian_lie
        from redstar.starprod import moyal

        m = ModelSpace(abelian_lie(1), base_dim=2, order=4)

        def mul(a, b):
            return moyal(m, a, b)

        u = m.var("q") * m.var("p")
        a = m.one() + Func(u.series.shift(1))
        s = series_sqrt(a, mul)
        assert mul(s, s) == a
        assert s.series.coeffs[1] == (u * Fraction(1, 2)).series.coeffs[0]

    def test_terminating_series_passes_k(self):
        """Term k is step(term k-1, k): lam^k / k! sums to exp(lam)."""
        seen = []

        def step(t, k):
            seen.append(k)
            return t.shift(1) * GaussRational(Fraction(1, k))

        got = terminating_series(one(), step, K)
        assert seen == list(range(1, K + 1))
        assert got == Func(LambdaSeries([Poly.constant(GENS, Fraction(1, factorial(k)))
                                         for k in range(K + 1)], K))

    def test_terminating_series_stops_at_the_first_zero_term(self):
        """A zero term ends the sum: the step is not called again, even where
        it would give a nonzero term."""
        q = var("q").series
        calls = []

        def step(t, k):
            calls.append(k)
            return t.zero_like() if k == 2 else q.shift(k)

        assert terminating_series(q, step, K) == q + q.shift(1)
        assert calls == [1, 2]

    @pytest.mark.parametrize("order", [0, 1, 3])
    def test_terminating_series_takes_at_most_order_steps(self, order):
        """A step that never gives zero is called order times."""
        q = var("q").series
        calls = []

        def step(t, k):
            calls.append(k)
            return t

        assert terminating_series(q, step, order) == q * GaussRational(order + 1)
        assert calls == list(range(1, order + 1))

    def test_inverse_with_supplied_multiplication_is_two_sided(self):
        from redstar.geometry import ModelSpace, abelian_lie
        from redstar.starprod import moyal

        m = ModelSpace(abelian_lie(1), base_dim=2, order=4)

        def mul(a, b):
            return moyal(m, a, b)

        q, p = m.var("q"), m.var("p")
        a = m.one() * 3 + Func((q + p * p).series.shift(1)) + Func((q * p).series.shift(2))
        inv = series_inverse(a, mul)
        one_ = m.one()
        assert mul(a, inv) == one_ and mul(inv, a) == one_
        # the coefficients of a do not commute under the product
        assert mul(q + p * p, q * p) != mul(q * p, q + p * p)

    def test_sqrt_rejections(self):
        q = var("q")
        with pytest.raises(ValueError):
            series_sqrt(one() * 2)  # 2 is not a rational square
        with pytest.raises(ValueError):
            series_sqrt(one() * (-4))
        with pytest.raises(ValueError):
            series_sqrt(q)

    def test_ring_axioms_random(self):
        rng = random.Random(11)

        def rand_series(deg=6):
            out = Func.zero(GENS, K)
            for r in range(K + 1):
                t = Poly.zero(GENS)
                for _ in range(3):
                    e = [0, 0]
                    for _ in range(rng.randint(0, deg)):
                        e[rng.randint(0, 1)] += 1
                    t = t + Poly(GENS, {tuple(e): GaussRational(rng.randint(-3, 3))})
                out = out + Func(LambdaSeries.of(t, K).shift(r))
            return out.series

        for _ in range(12):
            a, b, c = rand_series(), rand_series(), rand_series()
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a

    def test_classical_limit(self):
        q = var("q")
        s = (q + lam_times(q * q)).series
        assert s.classical() == q.series.coeffs[0]


class TestPoly:
    def test_no_zero_terms_stored(self):
        p = Poly(GENS, {(1, 0): 1, (0, 1): 0})
        assert (0, 1) not in p.terms
        assert (p - p).is_zero()

    def test_canonical_order_repr(self):
        p = Poly(GENS, {(2, 0): 1, (0, 2): 1, (1, 1): 1})
        assert repr(p) == "q^2 + q*p + p^2"

    def test_rename_and_drop(self):
        p = Poly(GENS, {(1, 0): 2})
        q = p.rename({"q": "x"}, ("x", "y"))
        assert q == Poly(("x", "y"), {(1, 0): 2})
        with pytest.raises(ValueError):
            Poly(GENS, {(1, 1): 1}).rename({}, ("q",))
        assert Poly(GENS, {(1, 0): 1}).rename({}, ("q",)) == Poly(("q",), {(1,): 1})

    def test_evaluate(self):
        p = Poly(GENS, {(2, 1): 1})
        assert p.evaluate({"q": Fraction(1, 2)}) == Poly(
            GENS, {(0, 1): Fraction(1, 4)}
        )

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
    def test_mixing_with_func_is_a_type_error(self, op):
        p = Poly.var(GENS, "q")
        with pytest.raises(TypeError):
            op(p, one())
        with pytest.raises(TypeError):
            op(one(), p)


class TestFuncArithmetic:
    @pytest.mark.parametrize("c", [2, Fraction(2, 3), GaussRational(1, -2)],
                             ids=["int", "Fraction", "GaussRational"])
    def test_scalar_on_the_left(self, c):
        f = var("q") * var("p") + lam_times(var("q"))
        assert c - f == -(f - c)
        assert (c - f) + f == Func.constant(GENS, c, K)
        assert c + f == f + c and c * f == f * c
        assert (c - one() * c).is_zero()
        with pytest.raises(ValueError, match="envelopes"):
            c - f.with_profile({"q": 1})

    def test_foreign_operand_is_a_type_error(self):
        with pytest.raises(TypeError):
            object() - one()
        with pytest.raises(TypeError):
            one() - object()


class TestDiffOperator:
    def test_apply_examples(self):
        q = var("q")
        d = DiffOperator.partial(GENS, "q", K)
        assert (d.apply(q * q) - q * 2).is_zero()
        ident = DiffOperator.identity(GENS, K)
        f = q * q + var("p")
        assert (ident.apply(f) - f).is_zero()

    def test_exponential_example(self):
        # exp((lam/2i) d_g d_P) applied to g P leaves g P - i lam / 2
        gens = ("g", "P")
        arg = DiffOperator.partial(gens, "g", K).compose(
            DiffOperator.partial(gens, "P", K)
        ).lam_shift(1) * (I * GaussRational(Fraction(-1, 2)))
        op = arg.exp()
        gp = Func.var(gens, "g", K) * Func.var(gens, "P", K)
        got = op.apply(gp)
        expect = gp + Func(Func.one(gens, K).series.shift(1) * (I * Fraction(-1, 2)))
        assert (got - expect).is_zero()

    def test_leibniz_first_order(self, rand):
        d = DiffOperator.first_order(GENS, K, {"q": Poly.var(GENS, "p")})
        f = var("q") * var("q")
        g = var("p") + var("q")
        lhs = d.apply(f * g)
        rhs = d.apply(f) * g + f * d.apply(g)
        assert (lhs - rhs).is_zero()

    def test_compose_matches_application(self):
        d = DiffOperator.first_order(GENS, K, {"q": Poly.var(GENS, "q")})
        e = DiffOperator.partial(GENS, "p", K) + DiffOperator.multiplication(
            Poly.var(GENS, "q"), K
        )
        f = var("q") * var("p") * var("p") + var("q")
        assert (d.compose(e).apply(f) - d.apply(e.apply(f))).is_zero()


class TestFormalAdjoint:
    def test_first_example(self):
        gens = ("x",)
        w = Func.one(gens, K).with_profile({"x": 1})
        d = DiffOperator.partial(gens, "x", K)
        adj = d.formal_adjoint(w)
        expect = -d + DiffOperator.multiplication(Poly.var(gens, "x") * 2, K)
        assert adj == expect

    def test_multiplication_self_adjoint(self):
        gens = ("x",)
        w = Func.one(gens, K).with_profile({"x": 1})
        p = Poly(gens, {(2,): 1, (0,): 3})
        d = DiffOperator.multiplication(p, K)
        assert d.formal_adjoint(w) == d

    def test_euler_example(self):
        gens = ("x",)
        w = Func.one(gens, K).with_profile({"x": 1})
        x = Poly.var(gens, "x")
        d = DiffOperator.partial(gens, "x", K).series_multiply(
            LambdaSeries.of(x, K)
        )
        # x d/dx -> -x d/dx - 1 + 2 x^2
        adj = d.formal_adjoint(w)
        expect = (-d) + DiffOperator.multiplication(x * x * 2 - Poly.one(gens), K)
        assert adj == expect

    def test_adjoint_involutive_antihomomorphism(self):
        gens = ("x", "y")
        w = Func.constant(gens, 2, K).with_profile({"x": 1, "y": 1})
        d = DiffOperator.partial(gens, "x", K).series_multiply(
            LambdaSeries.of(Poly.var(gens, "y"), K)
        )
        e = DiffOperator.partial(gens, "y", K) + DiffOperator.multiplication(
            Poly.var(gens, "x") * GaussRational(0, 1), K
        )
        assert d.formal_adjoint(w).formal_adjoint(w) == d
        assert d.compose(e).formal_adjoint(w) == e.formal_adjoint(w).compose(
            d.formal_adjoint(w)
        )

    def test_adjoint_against_integration(self):
        rng = random.Random(5)
        gens = ("x",)
        w = Func.one(gens, K).with_profile({"x": 1})
        half = {"x": Fraction(1, 2)}

        def rand_state():
            out = Func.zero(gens, K)
            for _ in range(2):
                t = Func.one(gens, K)
                for _ in range(rng.randint(0, 3)):
                    t = t * Func.var(gens, "x", K)
                out = out + t * GaussRational(rng.randint(-3, 3), rng.randint(-1, 1))
            return out

        d = DiffOperator.partial(gens, "x", K).series_multiply(
            LambdaSeries.of(Poly.var(gens, "x"), K)
        ) + DiffOperator.multiplication(Poly.var(gens, "x") * GaussRational(0, 1), K)
        adj = d.formal_adjoint(w)
        for _ in range(10):
            phi, psi = rand_state(), rand_state()
            lhs = gaussian_integrate(phi.conj() * d.apply(psi) * w, ["x"])
            rhs = gaussian_integrate(adj.apply(phi).conj() * psi * w, ["x"])
            assert (lhs - rhs).is_zero()

    def test_weight_class_errors(self):
        gens = ("x",)
        bad = Func.from_poly(Poly.one(gens) + Poly.var(gens, "x") ** 2, K, {"x": 1})
        d = DiffOperator.partial(gens, "x", K)
        with pytest.raises(ValueError):
            d.formal_adjoint(bad)

    def test_weight_class_errors_without_derivatives(self):
        """An operator with no derivative to move still checks the weight:
        a non-real weight and a non-constant leading prefactor raise."""
        gens = ("x",)
        x = Poly.var(gens, "x")
        ops = [DiffOperator.zero(gens, K), DiffOperator.multiplication(x * x + 1, K)]
        weights = [Func.from_poly(Poly.one(gens) + x * GaussRational(0, 1), K, {"x": 1}),
                   Func.from_poly(Poly.one(gens) + x * x, K, {"x": 1})]
        for op in ops:
            for w in weights:
                with pytest.raises(ValueError):
                    op.formal_adjoint(w)

    def test_generator_mismatch(self):
        """A weight over other generators raises, be they the same names in
        another order or a longer list, instead of reading its exponents and
        envelope against the operator's generators; so does an operator
        with no derivative to move."""
        gens = ("x", "y")
        ops = [DiffOperator.partial(gens, "y", K),
               DiffOperator.multiplication(Poly.var(gens, "x"), K)]
        for wgens in (("y", "x"), ("x", "y", "z")):
            w = Func(LambdaSeries([Poly.one(wgens), Poly.var(wgens, "y")], K),
                     {"x": 1, "y": 1})
            for d in ops:
                with pytest.raises(ValueError, match="generator mismatch"):
                    d.formal_adjoint(w)


class TestGaussianIntegrate:
    def test_normalization(self):
        gens = ("g",)
        f = Func.one(gens, K).with_profile({"g": 1})
        out = gaussian_integrate(f, ["g"])
        assert out.pi4 == 2 and out.series.coeffs[0].constant_term() == GaussRational(1)

    def test_second_moment(self):
        gens = ("g",)
        f = (Func.var(gens, "g", K) ** 2 if False
             else Func.var(gens, "g", K) * Func.var(gens, "g", K)).with_profile({"g": 1})
        out = gaussian_integrate(f, ["g"])
        assert out.series.coeffs[0].constant_term() == GaussRational(Fraction(1, 2))

    def test_odd_moment_vanishes(self):
        gens = ("g",)
        f = Func.var(gens, "g", K).with_profile({"g": 1})
        assert gaussian_integrate(f, ["g"]).is_zero()

    def test_moment_formula_general(self):
        gens = ("g",)
        for k in range(1, 4):
            f = Func.one(gens, K)
            for _ in range(2 * k):
                f = f * Func.var(gens, "g", K)
            out = gaussian_integrate(f.with_profile({"g": 1}), ["g"])
            assert out.series.coeffs[0].constant_term() == GaussRational(
                Fraction(double_factorial(2 * k - 1), 2 ** k)
            )

    def test_linear_and_total_derivative(self):
        rng = random.Random(9)
        gens = ("g",)
        w = Func.one(gens, K).with_profile({"g": 1})

        def rand_poly():
            out = Func.zero(gens, K)
            for _ in range(3):
                t = Func.one(gens, K)
                for _ in range(rng.randint(0, 4)):
                    t = t * Func.var(gens, "g", K)
                out = out + t * GaussRational(rng.randint(-3, 3))
            return out

        for _ in range(10):
            f, g = rand_poly(), rand_poly()
            s = gaussian_integrate((f + g) * w, ["g"])
            assert (s - (gaussian_integrate(f * w, ["g"])
                         + gaussian_integrate(g * w, ["g"]))).is_zero()
            # (d_g + d_g log w) f integrates to zero against w
            total = f.diff("g") + f * Func.var(gens, "g", K) * GaussRational(-2)
            assert gaussian_integrate(total * w, ["g"]).is_zero()

    def test_non_gaussian_rejected(self):
        gens = ("g",)
        f = Func.one(gens, K)
        with pytest.raises(ValueError):
            gaussian_integrate(f, ["g"])
        with pytest.raises(ValueError):
            gaussian_integrate(f.with_profile({"g": Fraction(1, 2)}), ["g"])
