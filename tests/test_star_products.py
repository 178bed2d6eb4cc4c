"""Star products: pinned examples plus the identity batteries per model."""

import random
from fractions import Fraction

import pytest

from redstar.funcs import Func
from redstar.geometry import (LieAlgebraData, ModelSpace, abelian_lie, aff1, heisenberg3,
                              random_poly)
from redstar.scalars import GaussRational, I
from redstar.starprod import (
    StarProduct,
    check_strong_invariance,
    moyal,
    neumaier_N,
    schroedinger_rep,
    star_G,
    star_std,
    stdrep,
)
from redstar.suites import SuiteContext, suite_star


def lam_const(m, c, k=1):
    return Func(m.one().series.shift(k) * c, {}, 0)


class TestMoyal:
    def test_canonical_commutator(self, model_r):
        m = model_r
        q, p = m.var("q"), m.var("p")
        assert (moyal(m, q, p) - (q * p + lam_const(m, I * Fraction(1, 2)))).is_zero()
        assert (moyal(m, p, q) - (q * p - lam_const(m, I * Fraction(1, 2)))).is_zero()
        comm = moyal(m, q, p) - moyal(m, p, q)
        assert (comm - lam_const(m, I)).is_zero()

    def test_unit(self, model_r, rand):
        m = model_r
        f = rand.base(m, 4)
        assert (moyal(m, m.one(), f) - f).is_zero()
        assert (moyal(m, f, m.one()) - f).is_zero()


class TestStdRep:
    def test_momentum_becomes_derivative(self, model_r):
        m = model_r
        p_sym = m.momentum(0) * GaussRational(-1)
        psi = m.fiber_state(m.var("g") * m.var("g"))
        got = stdrep(m, p_sym).apply(psi)
        expect = Func(psi.diff("g").series.shift(1) * (-I), psi.profile, psi.pi4)
        assert (got - expect).is_zero()

    def test_momentum_free_multiplies(self, model_r, rand):
        m = model_r
        phi = rand.poly(m, 2, m.base_names + m.group_names)
        psi = m.fiber_state(rand.poly(m, 2, m.group_names))
        assert (stdrep(m, phi).apply(psi) - phi * psi).is_zero()

    def test_constant_term(self, model_r, rand):
        m = model_r
        f = rand.poly(m, 2, m.base_names + m.group_names)
        assert (stdrep(m, f).apply(m.one()) - m.restrict(f)).is_zero()

    def test_symmetrization_matches_permutation_form(self, model_heis):
        # the derivative-expansion form against the explicit permutation sum
        # on momentum monomials up to degree three
        import math
        from itertools import permutations

        m = model_heis
        psi = m.fiber_state(m.var("g1") * m.var("g2") + m.var("g3"))
        fields = [m.left_invariant_field(a) for a in range(3)]
        for multi in [(0,), (0, 1), (0, 0), (0, 1, 2), (1, 1, 2)]:
            f = m.one()
            for a in multi:
                f = f * m.momentum(a)
            got = stdrep(m, f).apply(psi)
            k = len(multi)
            acc = psi.zero_like()
            for sigma in permutations(multi):
                val = psi
                for a in reversed(sigma):
                    val = fields[a].apply(val)
                acc = acc + val
            # (i lam)^k (1/k!) times the full permutation sum
            expect = Func(acc.series.shift(k) * (I ** k) * GaussRational(
                Fraction(1, math.factorial(k))), acc.profile, acc.pi4)
            assert (got - expect).is_zero(), multi


class TestStarStd:
    def test_examples(self, model_r):
        m = model_r
        p_sym = m.momentum(0) * GaussRational(-1)
        x = m.var("g")
        assert (star_std(m, p_sym, x) - (x * p_sym - lam_const(m, I))).is_zero()
        assert (star_std(m, x, p_sym) - x * p_sym).is_zero()
        assert (star_std(m, p_sym, p_sym) - p_sym * p_sym).is_zero()

    def test_unique_symbol(self, model_heis, rand):
        m = model_heis
        f = rand.poly(m, 2)
        g = rand.poly(m, 2)
        prod = star_std(m, f, g)
        psi = m.fiber_state(rand.poly(m, 2, m.group_names))
        lhs = stdrep(m, prod).apply(psi)
        rhs = stdrep(m, f).apply(stdrep(m, g).apply(psi))
        assert (lhs - rhs).is_zero()


class TestNormalizer:
    def test_examples(self, model_r):
        m = model_r
        p_sym = m.momentum(0) * GaussRational(-1)
        n = neumaier_N(m)
        assert (n.apply(p_sym * p_sym) - p_sym * p_sym).is_zero()
        xp = m.var("g") * p_sym
        assert (n.apply(xp) - (xp + lam_const(m, I * Fraction(-1, 2)))).is_zero()
        assert (n.apply(m.one()) - m.one()).is_zero()

    def test_fixes_momenta_nilpotent(self, model_heis):
        m = model_heis
        n = neumaier_N(m)
        for a in range(3):
            assert (n.apply(m.momentum(a)) - m.momentum(a)).is_zero()


class TestStarG:
    def test_weyl_symmetric_example(self, model_r):
        m = model_r
        p_sym = m.momentum(0) * GaussRational(-1)
        x = m.var("g")
        expect = x * p_sym - lam_const(m, I * Fraction(1, 2))
        assert (star_G(m, p_sym, x) - expect).is_zero()

    def test_covariance_heisenberg(self, model_heis):
        m = model_heis
        for a in range(3):
            for b in range(3):
                lhs = star_G(m, m.momentum(a), m.momentum(b)) - star_G(
                    m, m.momentum(b), m.momentum(a)
                )
                br = m.lie.bracket_vec(m.basis_vector(a), m.basis_vector(b))
                rhs = Func(m.momentum_of(br).series.shift(1) * I)
                assert (lhs - rhs).is_zero()

    def test_momentum_subalgebra_matches_enveloping_product(self, model_heis):
        # the group-coordinate route and the symmetrization route agree on
        # momentum polynomials
        m = model_heis
        m_lie = ModelSpace(heisenberg3(), base_dim=2, order=3, group_level=False)
        for (a, b) in [(0, 1), (1, 2), (0, 2)]:
            f1 = star_G(m, m.momentum(a), m.momentum(b))
            f2 = star_G(m_lie, m_lie.momentum(a), m_lie.momentum(b))
            # compare coefficients through a common generator set
            t1 = f1.rename({}, m_lie.gens)
            assert (t1 - f2).is_zero()

    def test_blockwise_total(self, model_r, rand):
        m = model_r
        q = m.var("q")
        p_sym = m.momentum(0) * GaussRational(-1)
        assert (star_G(m, q, p_sym) - q * p_sym).is_zero()
        u, v = m.var("q"), m.var("p")
        assert (star_G(m, u, v) - moyal(m, u, v)).is_zero()


def n4():
    """The filiform algebra [e1, e2] = e3, [e1, e3] = e4, of class three."""
    return LieAlgebraData(4, {(0, 1, 2): 1, (1, 0, 2): -1,
                              (0, 2, 3): 1, (2, 0, 3): -1}, "n4")


@pytest.mark.parametrize("K", [2, 3])
@pytest.mark.parametrize("lie", [heisenberg3, n4], ids=["heis3", "n4"])
def test_group_star_G_is_gutt_product_on_momenta(lie, K):
    """On momentum polynomials the group-level product, with its fields,
    N and standard ordering, equals the symmetrization product of the
    momentum-level model."""
    m = ModelSpace(lie(), 2, K)
    flat = ModelSpace(lie(), 2, K, group_level=False)
    assert m.has_group and not flat.has_group
    rng = random.Random(K)
    deformed = 0
    for _ in range(6):
        f, g = (random_poly(rng, m, 3, m.momentum_names, 4).rename({}, flat.gens)
                for _ in range(2))
        got = star_G(m, f.rename({}, m.gens), g.rename({}, m.gens))
        expect = star_G(flat, f, g)
        assert got.rename({}, flat.gens) == expect
        assert repr(got) == repr(expect)
        deformed += expect != f * g
    assert deformed >= 3


class TestSchroedinger:
    def test_examples(self, model_r, rand):
        m = model_r
        psi = m.fiber_state(rand.poly(m, 2, m.group_names))
        p_sym = m.momentum(0) * GaussRational(-1)
        got = schroedinger_rep(m, p_sym, psi)
        expect = Func(psi.diff("g").series.shift(1) * (-I), psi.profile, psi.pi4)
        assert (got - expect).is_zero()
        assert (schroedinger_rep(m, m.one(), psi) - psi).is_zero()
        x = m.var("g")
        assert (schroedinger_rep(m, x, psi) - x * psi).is_zero()


class TestStrongInvariance:
    def test_weyl_passes(self, model_r, model_heis, rand):
        for m in (model_r, model_heis):
            funcs = [rand.poly(m, 3) for _ in range(4)] + [m.constant(3)]
            assert not check_strong_invariance(
                m, lambda f, g, m=m: star_G(m, f, g), funcs
            )

    def test_report_catches_violations(self, model_r):
        # a deliberately broken product must be reported with the bad order
        m = model_r

        def broken(f, g):
            out = star_G(m, f, g)
            return out + Func(f.series.shift(2), f.profile, f.pi4) * 7

        fails = check_strong_invariance(m, broken, [m.var("q")])
        assert fails and fails[0]["first_bad_order"] == 2


class TestStarProductSelector:
    def test_names(self, model_r):
        for name in ("moyal", "std", "weyl_g", "total"):
            StarProduct(model_r, name)
        with pytest.raises(ValueError):
            StarProduct(model_r, "fedosov")

    def test_group_products_gated(self, model_aff):
        with pytest.raises(ValueError):
            StarProduct(model_aff, "std")
        StarProduct(model_aff, "total")


@pytest.mark.parametrize("order", [1, 3])
@pytest.mark.parametrize("lie", [heisenberg3(), abelian_lie(1), abelian_lie(2)],
                         ids=["heis3", "line", "plane"])
def test_std_hermitian_witness(lie, order):
    """The fixed witness of the std negative control: defect -i lam."""
    m = ModelSpace(lie, base_dim=2, order=order)
    f, g = m.var(m.group_names[0]), m.momentum(0)
    defect = star_std(m, f, g).conj() - star_std(m, g.conj(), f.conj())
    assert defect == lam_const(m, -I)


@pytest.mark.parametrize("lie,label", [
    (abelian_lie(1), "line"),
    (abelian_lie(2), "plane"),
    (heisenberg3(), "heis3"),
    (aff1(), "aff1"),
])
def test_star_suite(lie, label):
    m = ModelSpace(lie, base_dim=2, order=3)
    ctx = SuiteContext(m, seed=23, trials=4, degree_cap=3)
    recs = suite_star(ctx)
    bad = [r for r in recs if r["status"] == "fail"]
    assert not bad, bad
