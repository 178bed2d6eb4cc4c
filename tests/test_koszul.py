"""Koszul complexes, homotopies, the deformed restriction and the bimodule."""

from fractions import Fraction

import pytest

from redstar.funcs import Func
from redstar.geometry import ModelSpace, abelian_lie, aff1, heisenberg3
from redstar.koszul import (
    ReductionConfig,
    SuperObservable,
    deformed_homotopy,
    deformed_restriction,
    homotopy_h,
    koszul,
    left_module,
    quantized_BC_member,
    quantized_koszul,
    reduced_star,
    right_module,
)
from redstar.poly import Poly
from redstar.scalars import GaussRational, I
from redstar.series import LambdaSeries
from redstar.starprod import moyal, neumaier_N
from redstar.suites import SuiteContext, suite_koszul, suite_reduction


def lam_const(m, c, k=1):
    return Func(m.one().series.shift(k) * c, {}, 0)


class TestClassicalComplex:
    def test_degree_one_example(self, model_r, rand):
        m = model_r
        f = rand.poly(m, 2)
        x = SuperObservable(m, {(0,): f})
        assert (koszul(m, x).comps[()] - f * m.momentum(0)).is_zero()

    def test_degree_two_bookkeeping(self, model_heis, rand):
        m = model_heis
        f = rand.poly(m, 2)
        x = SuperObservable(m, {(0, 1): f})
        dx = koszul(m, x)
        # f e1^e2 -> f (J1 e2 - J2 e1)
        assert (dx.comps[(1,)] - f * m.momentum(0)).is_zero()
        assert (dx.comps[(0,)] + f * m.momentum(1)).is_zero()
        assert koszul(m, dx).is_zero()

    def test_homotopy_examples(self, model_r):
        m = model_r
        j = m.momentum(0)
        h = homotopy_h(m, SuperObservable.scalar(m, j * j), 0)
        assert (h.comps[(0,)] - j).is_zero()
        phi = m.var("g") * m.var("q")
        assert homotopy_h(m, SuperObservable.scalar(m, m.prolong(phi)), 0).is_zero()
        h1 = homotopy_h(m, SuperObservable.scalar(m, j), 0)
        assert (h1.comps[(0,)] - m.one()).is_zero()
        assert (koszul(m, h1).comps[()] - j).is_zero()

    def test_prolongation(self, model_r, rand):
        m = model_r
        phi = rand.poly(m, 2, m.base_names + m.group_names)
        assert (m.restrict(m.prolong(phi)) - phi).is_zero()
        with pytest.raises(ValueError):
            m.prolong(m.momentum(0))


class TestQuantizedKoszul:
    def test_abelian_no_corrections(self, model_r, rand):
        m = model_r
        cfg = ReductionConfig(m, Fraction(1, 2))
        f = rand.poly(m, 2)
        x = SuperObservable(m, {(0,): f})
        got = quantized_koszul(cfg, x).comps[()]
        assert (got - cfg.star(f, m.momentum(0))).is_zero()

    def test_affine_modular_term(self, model_aff, rand):
        m = model_aff
        cfg = ReductionConfig(m, Fraction(1, 2))
        f = rand.base(m, 2)
        x = SuperObservable(m, {(0,): f})
        got = quantized_koszul(cfg, x).comps[()]
        expect = cfg.star(f, m.momentum(0)) + lam_const(m, I * Fraction(1, 2)) * f
        assert (got - expect).is_zero()

    @pytest.mark.parametrize("kappa,coeffs", [
        (0, [0]),
        (Fraction(1, 2), [Fraction(1, 2)]),
        ((Fraction(1, 2), 1), [Fraction(1, 2), 1]),
        ([Fraction(1, 2), 3], [Fraction(1, 2), 3]),
    ], ids=["zero", "half", "half_plus_lam", "half_plus_3lam"])
    def test_kappa_is_a_constant_func(self, model_aff, kappa, coeffs):
        """kappa = sum_r c_r lam^r, the constant Func of its coefficients."""
        m = model_aff
        got = ReductionConfig(m, kappa).kappa
        expect = Func(LambdaSeries([Poly.constant(m.gens, c) for c in coeffs], m.order))
        assert got == expect and repr(got) == repr(expect) and hash(got) == hash(expect)
        assert type(got) is Func and got.scalar() is got
        assert (got.profile, got.pi4) == ({}, 0)

    def test_kappa_refuses_series_and_floats(self, model_aff):
        m = model_aff
        series = LambdaSeries([Poly.constant(m.gens, Fraction(1, 2))], m.order)
        for kappa in (series, 0.5, [Fraction(1, 2), 0.5], [series]):
            with pytest.raises(TypeError):
                ReductionConfig(m, kappa)

    def test_square_zero_all_kappas(self, model_heis, rand):
        m = model_heis
        for kap in (0, Fraction(1, 2), [Fraction(1, 2), 1]):
            cfg = ReductionConfig(m, kap)
            x = SuperObservable(m, {(0, 1): rand.poly(m, 2), (1, 2): rand.poly(m, 2)})
            assert quantized_koszul(cfg, quantized_koszul(cfg, x)).is_zero()


class TestDeformedRestriction:
    def test_prolongation_inverse(self, model_heis, rand):
        m = model_heis
        cfg = ReductionConfig(m, Fraction(1, 2))
        phi = rand.poly(m, 2, m.base_names + m.group_names)
        assert (deformed_restriction(cfg, m.prolong(phi)) - phi).is_zero()

    def test_momentum_pairing_example(self, model_r):
        m = model_r
        cfg = ReductionConfig(m, Fraction(1, 2))
        gp = m.var("g") * (m.momentum(0) * GaussRational(-1))
        got = deformed_restriction(cfg, gp)
        assert (got - lam_const(m, I * Fraction(-1, 2))).is_zero()
        p2 = m.momentum(0) * m.momentum(0)
        assert deformed_restriction(cfg, p2).is_zero()

    def test_closed_form(self, model_r, model_heis, rand):
        for m in (model_r, model_heis):
            cfg = ReductionConfig(m, Fraction(1, 2))
            n = neumaier_N(m)
            for _ in range(5):
                f = rand.poly(m, 3)
                assert (deformed_restriction(cfg, f) - m.restrict(n.apply(f))).is_zero()

    def test_abelian_homotopy_matches_classical_without_mixing(self, model_r, rand):
        # no group dependence means the star product cannot mix momenta in,
        # so the deformed degree-zero homotopy reduces to the classical one
        m = model_r
        cfg = ReductionConfig(m, Fraction(1, 2))
        f = rand.poly(m, 3, m.base_names + m.momentum_names)
        lhs = deformed_homotopy(cfg, SuperObservable.scalar(m, f), 0)
        rhs = homotopy_h(m, SuperObservable.scalar(m, f), 0)
        assert (lhs - rhs).is_zero()


class TestBimodule:
    def test_left_module_momentum_example(self, model_r, rand):
        m = model_r
        cfg = ReductionConfig(m, Fraction(1, 2))
        phi = m.fiber_state(rand.poly(m, 2, m.base_names + m.group_names))
        p_sym = m.momentum(0) * GaussRational(-1)
        got = left_module(cfg, p_sym, phi)
        expect = Func(phi.diff("g").series.shift(1) * (-I), phi.profile, phi.pi4)
        assert (got - expect).is_zero()

    def test_left_module_classical_limit(self, model_heis, rand):
        m = model_heis
        cfg = ReductionConfig(m, Fraction(1, 2))
        f = rand.poly(m, 2)
        phi = m.fiber_state(rand.poly(m, 1, m.base_names + m.group_names))
        got = left_module(cfg, f, phi)
        assert got.series.coeffs[0] == (m.restrict(f) * phi).series.coeffs[0]

    def test_reduced_star_reproduces_base_product(self, model_r, rand):
        m = model_r
        cfg = ReductionConfig(m, Fraction(1, 2))
        q, p = m.var("q"), m.var("p")
        got = reduced_star(cfg, q, p)
        assert (got - (q * p + lam_const(m, I * Fraction(1, 2)))).is_zero()
        u = rand.base(m, 2)
        assert (reduced_star(cfg, m.one(), u) - u).is_zero()
        a, b, c = rand.base(m, 2), rand.base(m, 2), rand.base(m, 2)
        assert (reduced_star(cfg, reduced_star(cfg, a, b), c)
                - reduced_star(cfg, a, reduced_star(cfg, b, c))).is_zero()

    def test_right_module_examples(self, model_r, rand):
        m = model_r
        cfg = ReductionConfig(m, Fraction(1, 2))
        phi = m.fiber_state(rand.poly(m, 2, m.base_names + m.group_names))
        assert (right_module(cfg, phi, m.one()) - phi).is_zero()
        u = rand.base(m, 2)
        assert (right_module(cfg, m.one(), u) - u).is_zero()
        got = right_module(cfg, phi, u)
        assert (got - moyal(m, phi, u)).is_zero()

    def test_normalizer_examples(self, model_r, rand):
        m = model_r
        cfg = ReductionConfig(m, Fraction(1, 2))
        assert quantized_BC_member(cfg, m.prolong(rand.base(m, 2)))
        assert not quantized_BC_member(cfg, m.var("g"))
        x = SuperObservable(m, {(0,): rand.poly(m, 1)})
        elt = quantized_koszul(cfg, x).comps.get((), m.zero())
        assert quantized_BC_member(cfg, elt)


@pytest.mark.parametrize("lie", [abelian_lie(1), abelian_lie(2), heisenberg3(), aff1()])
def test_koszul_suite(lie):
    m = ModelSpace(lie, base_dim=2, order=3)
    ctx = SuiteContext(m, seed=29, trials=4, degree_cap=3)
    recs = suite_koszul(ctx)
    bad = [r for r in recs if r["status"] == "fail"]
    assert not bad, bad


@pytest.mark.parametrize("lie", [abelian_lie(1), heisenberg3(), aff1()])
def test_reduction_suite(lie):
    m = ModelSpace(lie, base_dim=2, order=3)
    ctx = SuiteContext(m, seed=31, trials=4, degree_cap=2)
    recs = suite_reduction(ctx)
    bad = [r for r in recs if r["status"] == "fail"]
    assert not bad, bad


def test_deformed_homotopy_of_zero(model_r):
    cfg = ReductionConfig(model_r, Fraction(1, 2))
    zero = SuperObservable(model_r, {})
    assert deformed_homotopy(cfg, zero, 0).is_zero()
    assert deformed_homotopy(cfg, zero, 1).is_zero()
