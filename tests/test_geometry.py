"""The product model: Lie algebra data, vector fields, brackets, densities."""

import random
from fractions import Fraction

import pytest

from redstar.funcs import Func
from redstar.geometry import (
    LieAlgebraData,
    ModelSpace,
    abelian_lie,
    aff1,
    classical_BC_member,
    classical_reduced_bracket,
    density_weight,
    fiber_integral,
    gaussian_base_weight,
    heisenberg3,
    lebesgue_weight,
    lift_density,
    modular_vector_field,
    poisson_bracket,
    psi_coefficients,
    random_poly,
)
from redstar.scalars import GaussRational
from redstar.starprod import _normalization_exponent


def filiform(dim):
    """[e1, e_k] = e_{k+1} for 1 < k < dim: nilpotent of class dim - 1."""
    sc = {}
    for k in range(1, dim - 1):
        sc[(0, k, k + 1)] = 1
        sc[(k, 0, k + 1)] = -1
    return LieAlgebraData(dim, sc, f"n{dim}")


class TestLieAlgebraData:
    def test_antisymmetry_diagnostics(self):
        with pytest.raises(ValueError, match=r"antisymmetry violated at C\[1\]\[2\]\^1"):
            LieAlgebraData(2, {(0, 1, 0): 1, (1, 0, 0): 1})

    def test_jacobi_diagnostics(self):
        bad = {(0, 1, 2): 1, (1, 0, 2): -1,
               (0, 2, 1): 1, (2, 0, 1): -1,
               (1, 2, 2): 1, (2, 1, 2): -1}
        with pytest.raises(ValueError, match="Jacobi identity violated"):
            LieAlgebraData(3, bad)

    def test_modular_covector(self):
        assert aff1().modular == (Fraction(1), Fraction(0))
        assert heisenberg3().modular == (0, 0, 0)
        assert not any(heisenberg3().modular) and any(aff1().modular)

    def test_nilpotency_detection(self):
        assert abelian_lie(2).nilpotency_class == 1
        assert heisenberg3().nilpotency_class == 2
        assert aff1().nilpotency_class is None

    def test_group_coordinates_gated(self):
        assert ModelSpace(heisenberg3(), 2, 3).has_group
        assert filiform(4).nilpotency_class == 3
        assert ModelSpace(filiform(4), 2, 3).has_group
        assert not ModelSpace(aff1(), 2, 3).has_group
        with pytest.raises(ValueError, match="nilpotent"):
            ModelSpace(aff1(), 2, 3, group_level=True)

    @pytest.mark.parametrize("lie", [heisenberg3(), filiform(4), filiform(5),
                                     abelian_lie(2)], ids=lambda lie: lie.label)
    def test_group_coordinates_imply_a_zero_modular_vector(self, lie):
        """Group coordinates come only with nilpotent algebras, where
        tr ad e_a = sum_b C_ab^b vanishes: the premise on which the
        exponent of N and the right momentum multiplications drop the
        modular term, so that A(J_a) = 0 and N(J_a) = J_a."""
        m = ModelSpace(lie, 2, 2)
        assert m.has_group and lie.is_nilpotent
        assert all(sum(lie.c(a, b, b) for b in range(lie.dim)) == 0
                   for a in range(lie.dim))
        assert not any(lie.modular)
        a_op = _normalization_exponent(m)
        assert all(a_op.apply(m.momentum(a)).is_zero() for a in range(lie.dim))

    def test_psi_coefficients(self):
        """z/(1 - e^{-z}) = 1 + z/2 + z^2/12 - z^4/720 + z^6/30240 - ..."""
        assert psi_coefficients(6) == [1, Fraction(1, 2), Fraction(1, 12), 0,
                                       Fraction(-1, 720), 0, Fraction(1, 30240)]

    def test_psi_terms_end_at_the_class(self):
        """On n5 (class 4) the brackets of e2 reach ad_{e1}^3 e2 = e5, but
        b_3 = 0 and every 4-letter bracket vanishes, so the terms stop at two
        letters; a lower cap cuts them off."""
        lie = filiform(5)
        terms = dict(lie.psi_terms(1, 8))
        assert max(map(len, terms)) == 2
        assert terms[()] == (0, 1, 0, 0, 0)
        assert terms[(0,)] == (0, 0, Fraction(1, 2), 0, 0)
        assert terms[(0, 0)] == (0, 0, 0, Fraction(1, 12), 0)
        assert dict(filiform(5).psi_terms(1, 1)) == {
            w: v for w, v in terms.items() if len(w) <= 1}


class TestFundamentalFields:
    def test_abelian_line(self, model_r):
        xi = model_r.fundamental_field_C((1,))
        g = model_r.var("g")
        assert (xi.apply(g) + model_r.one()).is_zero()  # -d/dg

    def test_heisenberg_example(self, model_heis):
        xi = model_heis.fundamental_field_C(model_heis.basis_vector(0))
        # -(d/dg1 - (g2/2) d/dg3)
        assert (xi.apply(model_heis.var("g1")) + model_heis.one()).is_zero()
        assert (xi.apply(model_heis.var("g3"))
                - model_heis.var("g2") * Fraction(1, 2)).is_zero()

    def test_coadjoint_part_abelian(self, model_r):
        xi = model_r.fundamental_field_M((1,))
        assert xi.apply(model_r.var("J")).is_zero()

    def test_bracket_antihomomorphism(self, model_heis, rand):
        m = model_heis
        t = rand.poly(m, 3)
        for a in range(3):
            for b in range(3):
                xa = m.fundamental_field_M(m.basis_vector(a))
                xb = m.fundamental_field_M(m.basis_vector(b))
                lhs = xa.apply(xb.apply(t)) - xb.apply(xa.apply(t))
                br = m.lie.bracket_vec(m.basis_vector(a), m.basis_vector(b))
                rhs = m.fundamental_field_M(br).apply(t) * GaussRational(-1)
                assert (lhs - rhs).is_zero()


@pytest.mark.parametrize("dim", [4, 5])
def test_left_invariant_fields_close_on_filiform(dim):
    """[X_a, X_b] = C_ab^c X_c beyond class two, on random degree-4 group
    polynomials; the psi terms past ad_g are needed for it."""
    lie = filiform(dim)
    m = ModelSpace(lie, 2, 1)
    xs = [m.left_invariant_field(a) for a in range(dim)]
    assert any(p.degree_in(m.group_names) >= 2
               for x in xs for p in x.tables[0].values())
    rng = random.Random(dim)
    for _ in range(3):
        f = random_poly(rng, m, 4, m.group_names, 5)
        dx = [x.apply(f) for x in xs]
        for a in range(dim):
            for b in range(dim):
                rhs = m.zero()
                for c in range(dim):
                    if lie.c(a, b, c):
                        rhs = rhs + dx[c] * GaussRational(lie.c(a, b, c))
                assert (xs[a].apply(dx[b]) - xs[b].apply(dx[a]) - rhs).is_zero()


class TestPoissonBracket:
    def test_canonical_pair(self, model_r):
        m = model_r
        assert (poisson_bracket(m, m.var("q"), m.var("p")) - m.one()).is_zero()

    def test_equivariance(self, model_heis):
        m = model_heis
        for a in range(3):
            for b in range(3):
                br = poisson_bracket(m, m.momentum(a), m.momentum(b))
                expect = m.momentum_of(m.lie.bracket_vec(
                    m.basis_vector(a), m.basis_vector(b)))
                assert (br - expect).is_zero()

    def test_antisymmetry_and_jacobi(self, model_heis, rand):
        m = model_heis
        for _ in range(6):
            f, g, h = rand.poly(m, 2), rand.poly(m, 2), rand.poly(m, 2)
            assert (poisson_bracket(m, f, f)).is_zero()
            assert (poisson_bracket(m, f, g) + poisson_bracket(m, g, f)).is_zero()
            jac = poisson_bracket(m, f, poisson_bracket(m, g, h))
            jac = jac + poisson_bracket(m, g, poisson_bracket(m, h, f))
            jac = jac + poisson_bracket(m, h, poisson_bracket(m, f, g))
            assert jac.is_zero()

    def test_leibniz(self, model_r, rand):
        m = model_r
        f, g, h = rand.poly(m, 2), rand.poly(m, 2), rand.poly(m, 2)
        lhs = poisson_bracket(m, f, g * h)
        rhs = poisson_bracket(m, f, g) * h + g * poisson_bracket(m, f, h)
        assert (lhs - rhs).is_zero()

    def test_group_coordinate_bracket(self, model_r):
        m = model_r
        br = poisson_bracket(m, m.var("g"), m.momentum(0))
        assert (br + m.one()).is_zero()  # {g, J} = -1 for the abelian line


class TestConstraintAlgebra:
    def test_momentum_square_is_member(self, model_heis):
        m = model_heis
        assert classical_BC_member(m, m.momentum(0) * m.momentum(0))

    def test_base_only_member_abelian(self, model_r, rand):
        assert classical_BC_member(model_r, rand.base(model_r, 3))

    def test_group_coordinate_not_member(self, model_r):
        assert not classical_BC_member(model_r, model_r.var("g"))

    def test_reduced_bracket(self, model_r):
        m = model_r
        q, p = m.var("q"), m.var("p")
        assert (classical_reduced_bracket(m, q, p) - m.one()).is_zero()
        assert (classical_reduced_bracket(m, q * q, p) - q * 2).is_zero()
        assert classical_reduced_bracket(m, q, m.constant(5)).is_zero()


class TestDensities:
    def test_lift_is_module_map(self, model_r):
        m = model_r
        om = gaussian_base_weight(m, 1)
        mu = lift_density(m, om)
        assert mu.profile == om.profile
        mu2 = lift_density(m, om * 2)
        assert mu2.series == (om.series * 2)
        assert mu.series.coeffs[0].constant_term().re > 0

    def test_weight_needs_positive_leading_term(self, model_r):
        m = model_r
        for c in (0, -1, GaussRational(1, 1)):
            with pytest.raises(ValueError, match="positive leading prefactor"):
                density_weight(m.constant(c))
        with pytest.raises(ValueError, match="positive leading prefactor"):
            gaussian_base_weight(m, 1, prefactor=-2)
        with pytest.raises(ValueError, match="pi-grade"):
            density_weight(m.one().with_pi4(2))
        with pytest.raises(ValueError, match="envelope grows"):
            gaussian_base_weight(m, -1)
        assert density_weight(m.constant(3)) == m.constant(3)

    def test_lift_rejects_fiber_weights(self, model_heis):
        m = model_heis
        om = gaussian_base_weight(m, 1)
        for bad in (om * (m.one() + m.var("g1")), om * (m.one() + m.var("J2")),
                    om.with_profile({"g3": 1})):
            with pytest.raises(ValueError, match="only involve base coordinates"):
                lift_density(m, bad)

    def test_lift_requires_nilpotent(self, model_aff):
        with pytest.raises(ValueError):
            lift_density(model_aff, gaussian_base_weight(model_aff, 1))

    def test_fiber_integral_examples(self, model_r, rand):
        m = model_r
        phi = m.fiber_state(m.one()) * m.fiber_state(m.one())  # e^{-g^2}
        out = fiber_integral(m, phi)
        assert out.pi4 == 2 and out.series.coeffs[0].constant_term() == GaussRational(1)
        u = rand.base(m, 2)
        out = fiber_integral(m, u * phi)
        assert (out - Func(u.series, {}, 2)).is_zero()
        g2 = m.var("g") * m.var("g") * phi
        assert fiber_integral(m, g2).series.coeffs[0].constant_term() == GaussRational(
            Fraction(1, 2)
        )

    def test_fiber_integral_kills_derivatives(self, model_heis, rand):
        m = model_heis
        phi = m.fiber_state(rand.poly(m, 2, m.base_names + m.group_names))
        phi = phi * m.fiber_state(m.one())
        for a in range(3):
            out = fiber_integral(m, m.lie_derivative_C(a, phi))
            assert out.is_zero()

    def test_modular_vector_field(self, model_r):
        m = model_r
        assert modular_vector_field(m, lebesgue_weight(m)).is_zero()
        om = gaussian_base_weight(m, 1)
        delta = modular_vector_field(m, om)
        assert (delta.apply(m.var("q")) - m.var("p") * 2).is_zero()
        assert delta.apply(m.one()).is_zero()
        f, g = m.var("q") * m.var("p"), m.var("q")
        lhs = delta.apply(f * g)
        rhs = delta.apply(f) * g + f * delta.apply(g)
        assert (lhs - rhs).is_zero()
