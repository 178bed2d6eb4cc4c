"""The conjugation transport, the positive functional and its representation,
the weighted involution, KMS structures and the modular class."""

from fractions import Fraction
from pathlib import Path

import pytest

from redstar import integrate, involution, suites
from redstar.cli import load_scene
from redstar.funcs import Func
from redstar.geometry import (
    ModelSpace,
    abelian_lie,
    aff1,
    gaussian_base_weight,
    heisenberg3,
    lebesgue_weight,
    lift_density,
    monomial,
    monomials,
)
from redstar.involution import (
    PositiveFunctional,
    conj_transport,
    conj_transport_check,
    density_ratio_hat,
    gns_check,
    inner_product_mu,
    involution_comparison,
    is_positive_scalar,
    kms_check,
    kms_functional,
    modular_class,
    modular_inner_difference,
    omega_mu,
    reduced_involution,
    transport,
    transport_inner,
)
from redstar.koszul import ReductionConfig, SuperObservable, quantized_koszul, right_module
from redstar.scalars import GaussRational, I
from redstar.series import LambdaSeries
from redstar.starprod import moyal
from redstar.suites import SuiteContext, suite_gns, suite_involution, suite_kms


SCENES = Path(__file__).resolve().parent.parent / "scenes"


def mstar(m):
    return lambda a, b: moyal(m, a, b)


class TestConjTransport:
    def test_displays_all_models_and_kappas(self, model_r, model_heis, model_aff, rand):
        for m in (model_r, model_heis, model_aff):
            for kap in (0, Fraction(1, 2), [Fraction(1, 2), 1]):
                cfg = ReductionConfig(m, kap)
                rep = conj_transport_check(cfg, rand.poly(m, 2))
                assert all(rep.values()), (m.lie.label, kap, rep)

    def test_abelian_b_vanishes(self, model_r, rand):
        cfg = ReductionConfig(model_r, Fraction(1, 2))
        ops = conj_transport(cfg, rand.poly(model_r, 2))
        assert ops["B"].is_zero()

    def test_transport_kills_prolongations_at_leading_order(self, model_r, rand):
        m = model_r
        cfg = ReductionConfig(m, Fraction(1, 2))
        phi = m.prolong(rand.poly(m, 2, m.base_names + m.group_names))
        a0 = transport(cfg, transport_inner(cfg, phi), m.basis_vector(0))
        assert a0.series.coeffs[0].is_zero()

    def test_invariant_functions_conjugate_cleanly(self, model_r, rand):
        from redstar.koszul import deformed_restriction

        m = model_r
        cfg = ReductionConfig(m, Fraction(1, 2))
        u = rand.base(m, 3)  # base functions are invariant
        lhs = deformed_restriction(cfg, u).conj()
        rhs = deformed_restriction(cfg, u.conj())
        assert (lhs - rhs).is_zero()


class TestPositiveFunctional:
    def test_positivity_battery(self, model_r, rand):
        m = model_r
        cfg = ReductionConfig(m, Fraction(1, 2))
        mu = lift_density(m, gaussian_base_weight(m, 1))
        posf = PositiveFunctional(cfg, mu)
        for _ in range(25):
            f = rand.poly(m, 2).with_profile(
                {g: Fraction(1, 2) for g in m.group_names})
            assert posf.positivity(f)

    def test_gelfand_ideal(self, model_r, rand):
        m = model_r
        cfg = ReductionConfig(m, Fraction(1, 2))
        mu = lift_density(m, gaussian_base_weight(m, 1))
        posf = PositiveFunctional(cfg, mu)
        x = SuperObservable(m, {(0,): m.fiber_state(rand.poly(m, 1))})
        elt = quantized_koszul(cfg, x).comps.get((), m.zero())
        assert posf.in_gelfand_ideal(elt)
        assert omega_mu(cfg, cfg.star(elt.conj(), elt), mu).is_zero()

    def test_gns_identification(self, model_r, model_heis, rand):
        for m in (model_r, model_heis):
            cfg = ReductionConfig(m, Fraction(1, 2))
            mu = lift_density(m, gaussian_base_weight(m, 1))
            f, g = rand.state(m, 2), rand.state(m, 2)
            rep = gns_check(cfg, f, g, mu)
            assert rep["isometry"] and rep["intertwining"]

    def test_inner_product_normalization(self):
        # trivial base: the half-Gaussian pairs to the plain Gaussian integral
        m = ModelSpace(abelian_lie(1), base_dim=0, order=3)
        cfg = ReductionConfig(m, Fraction(1, 2))
        mu = lift_density(m, lebesgue_weight(m))
        phi = m.fiber_state(m.one())
        val = inner_product_mu(cfg, phi, phi, mu)
        assert val.series.coeffs[0].constant_term() == GaussRational(1)
        assert val.pi4 == 2
        assert all(c.is_zero() for c in val.series.coeffs[1:])


class TestReducedInvolution:
    def test_lebesgue_is_conjugation(self, model_r, rand):
        m = model_r
        u = rand.base(m, 3) + rand.base(m, 2) * I
        assert (reduced_involution(m, u, lebesgue_weight(m)) - u.conj()).is_zero()

    def test_unit_fixed(self, model_r):
        m = model_r
        om = gaussian_base_weight(m, 1)
        assert (reduced_involution(m, m.one(), om) - m.one()).is_zero()

    def test_gaussian_first_order(self, model_r):
        m = model_r
        om = gaussian_base_weight(m, 1)
        q = m.var("q")
        us = reduced_involution(m, q, om)
        first = us.series.coeffs[1]
        assert first == (m.var("p").series.coeffs[0] * (I * 2))

    def test_axioms(self, model_r, rand):
        m = model_r
        om = gaussian_base_weight(m, 1)
        mul = mstar(m)
        for _ in range(6):
            u, v = rand.base(m, 2), rand.base(m, 2)
            su = reduced_involution(m, u, om)
            sv = reduced_involution(m, v, om)
            assert (reduced_involution(m, su, om) - u).is_zero()
            assert (reduced_involution(m, mul(u, v), om) - mul(sv, su)).is_zero()
            assert (reduced_involution(m, u * I, om) + su * I).is_zero()

    def test_defining_adjointness(self, model_r, rand):
        m = model_r
        cfg = ReductionConfig(m, Fraction(1, 2))
        om = gaussian_base_weight(m, 1)
        mu = lift_density(m, om)
        u = rand.base(m, 2)
        us = reduced_involution(m, u, om)
        for _ in range(4):
            phi, psi = rand.state(m, 2), rand.state(m, 2)
            lhs = inner_product_mu(cfg, phi, right_module(cfg, psi, u), mu)
            rhs = inner_product_mu(cfg, right_module(cfg, phi, us), psi, mu)
            assert lhs == rhs

    def test_unsupported_weight_rejected(self, model_r):
        m = model_r
        bad = gaussian_base_weight(m, 1, prefactor=m.one() + m.var("q") * m.var("q"))
        with pytest.raises(ValueError):
            reduced_involution(m, m.var("q"), bad)

    @pytest.mark.parametrize("extra", ["pi4", "envelope", "g1", "J1"])
    def test_rejects_non_base_input(self, model_heis, extra):
        """A pi-grade, an envelope, a group or a momentum coordinate is not
        carried through as a constant: the input is refused."""
        m = model_heis
        om = gaussian_base_weight(m, 1)
        u = m.var("q") * m.var("p") + m.var("q")
        bad = {"pi4": lambda: u.with_pi4(2),
               "envelope": lambda: u.with_profile({"q": 1}),
               "g1": lambda: u + m.var("g1"),
               "J1": lambda: u + m.var("J1")}[extra]()
        with pytest.raises(ValueError, match="plain polynomial series on the base"):
            reduced_involution(m, bad, om)


class TestKMS:
    def test_gaussian_kms(self, model_r, rand):
        m = model_r
        om = gaussian_base_weight(m, 1)
        for _ in range(6):
            u, v = rand.base(m, 3), rand.base(m, 3)
            rep = kms_check(m, u, v, om)
            assert rep["holds"]

    def test_lebesgue_trace(self, model_r, rand):
        m = model_r
        mul = mstar(m)
        leb = lebesgue_weight(m)
        damp = {n: Fraction(1, 2) for n in m.base_names}
        for _ in range(6):
            u = rand.base(m, 2).with_profile(damp)
            v = rand.base(m, 2).with_profile(damp)
            assert kms_functional(m, mul(v, u), leb) == kms_functional(
                m, mul(u, v), leb)

    def test_constant_trivial(self, model_r, rand):
        m = model_r
        om = gaussian_base_weight(m, 1)
        rep = kms_check(m, m.constant(Fraction(2, 7)), rand.base(m, 2), om)
        assert rep["holds"]


class TestDensityRatio:
    def test_constants(self, model_r):
        m = model_r
        om = gaussian_base_weight(m, 1)
        assert (density_ratio_hat(m, om, m.one()) - m.one()).is_zero()
        assert (density_ratio_hat(m, om, m.one() * 2) - m.one() * 2).is_zero()

    def test_polynomial_ratio(self, model_r):
        m = model_r
        om = gaussian_base_weight(m, 1)
        mul = mstar(m)
        rho = m.one() + m.var("q") * m.var("q")
        rh = density_ratio_hat(m, om, rho)
        assert Func(LambdaSeries.of(rh.series.coeffs[0], m.order)) == rho
        # the defining identity on cubic monomials
        for mono in (m.var("q") * m.var("p") * m.var("p"),
                     m.var("p") * m.var("p") * m.var("p")):
            lhs = kms_functional(m, mono * rho, om)
            rhs = kms_functional(m, mul(rh, mono), om)
            assert lhs == rhs

    def test_needs_gaussian_weight(self, model_r):
        m = model_r
        with pytest.raises(ValueError):
            density_ratio_hat(m, lebesgue_weight(m), m.one())

    @pytest.mark.parametrize("lie", [abelian_lie(1), heisenberg3(), aff1()],
                             ids=["abelian", "heis3", "aff1"])
    def test_identity_on_monomials(self, lie):
        """tau_Omega(x^e rho) = tau_Omega(rho_hat * x^e) on every base
        monomial of degree <= deg rho + 3, also for a weight whose
        prefactor carries a lam-dependent base polynomial.  At K = 4 the
        corrections of rho_hat there reach past base degree 4."""
        m = ModelSpace(lie, base_dim=2, order=4)
        mul = mstar(m)
        q, p = m.var("q"), m.var("p")
        weights = [gaussian_base_weight(m, 1),
                   gaussian_base_weight(m, 1, m.one() + (q * q).shift(1))]
        for om in weights:
            for rho, degree in ((m.one() + q * q, 2), (m.one() + (q * q).shift(1), 2),
                                (m.one() + q * p + (p * p * p).shift(2), 3)):
                rh = density_ratio_hat(m, om, rho)
                for e in monomials(m.base_names, degree + 3):
                    mono = monomial(m, m.base_names, e)
                    assert kms_functional(m, mono * rho, om) == \
                        kms_functional(m, mul(rh, mono), om)

    def test_rejects_non_base_ratio(self, model_r):
        m = model_r
        om = gaussian_base_weight(m, 1)
        for rho in (m.one() + m.momentum(0), m.one() + m.var(m.group_names[0]),
                    m.one().with_profile({"q": 1}), m.one().with_pi4(2)):
            with pytest.raises(ValueError):
                density_ratio_hat(m, om, rho)


class TestInvolutionComparison:
    def test_trivial_and_constant(self, model_r, rand):
        m = model_r
        om = gaussian_base_weight(m, 1)
        us = [m.var("q"), m.var("p"), rand.base(m, 2)]
        reps = involution_comparison(m, om, [m.one(), m.one() * 2], us)
        assert [rep["holds"] for rep in reps] == [True, True]

    def test_lam_corrected_weight(self, model_r):
        m = model_r
        om = gaussian_base_weight(m, 1)
        rho = m.one() + Func((m.var("q") * m.var("q")).series.shift(1))
        us = [m.var("q"), m.var("p"), m.var("q") * m.var("p")]
        (rep,) = involution_comparison(m, om, [rho], us)
        assert rep["holds"]

    def test_suite_involves_each_pair_once(self, monkeypatch):
        """The comparisons of the involution suite run as one call: on the
        affine-line scene its three inputs are involved under omega,
        2 omega and omega rho_l, nine reduced_involution calls in all, and
        the weight omega * 1 reuses the images under omega."""
        scene = load_scene(str(SCENES / "affine_line.json"))
        ctx = scene.context(scene.model())
        comparing, calls = [False], []
        compare, involve = involution_comparison, involution.reduced_involution

        def counted_comparison(*args, **kwargs):
            comparing[0] = True
            try:
                return compare(*args, **kwargs)
            finally:
                comparing[0] = False

        def counted_involution(model, u, omega):
            if comparing[0]:
                calls.append((u, omega))
            return involve(model, u, omega)

        monkeypatch.setattr(suites, "involution_comparison", counted_comparison)
        monkeypatch.setattr(involution, "reduced_involution", counted_involution)
        recs = {r["id"]: r for r in suite_involution(ctx)}
        assert recs["involution.comparison"]["status"] == "pass"
        assert len(calls) == len(set(calls)) == 9


class TestModularClass:
    def test_first_order_and_display(self, model_r):
        m = model_r
        om = gaussian_base_weight(m, 1)
        mc = modular_class(m, om, cap=2)
        assert mc["first_order_is_minus_i_delta"]
        d1q = mc["D"](m.var("q")).series.coeffs[1]
        assert d1q == (m.var("p").series.coeffs[0] * (I * (-2)))
        # the correction of u* itself carries +i times the modular field
        us = reduced_involution(m, m.var("q"), om)
        assert us.series.coeffs[1] == (m.var("p").series.coeffs[0] * (I * 2))

    def test_lebesgue_derivation_vanishes(self, model_r):
        m = model_r
        mc = modular_class(m, lebesgue_weight(m), cap=2)
        for e in monomials(m.base_names, 2):
            assert mc["D"](monomial(m, m.base_names, e)).is_zero()

    def test_automorphism(self, model_r, rand):
        m = model_r
        om = gaussian_base_weight(m, 1)
        mul = mstar(m)
        imap = modular_class(m, om, cap=2)["I"]
        for _ in range(4):
            u, v = rand.base(m, 1, 2), rand.base(m, 1, 2)
            assert (imap(mul(u, v)) - mul(imap(u), imap(v))).is_zero()

    def test_inner_difference(self, model_r):
        m = model_r
        om = gaussian_base_weight(m, 1)
        rho = m.one() + Func((m.var("q") * m.var("q")).series.shift(1))
        rep = modular_inner_difference(m, om, om * rho, cap=1)
        assert rep["inner"]


class TestGaussianClosedForms:
    """Closed forms for the weight exp(-c (q^2 + p^2)) on the abelian model
    at order 5.  The involution is u* = conj(u) o A_lam for the linear map
    A q = a q + b p, A p = a p - b q with a = (1 + c^2 lam^2) / (1 - c^2 lam^2)
    and b = 2 i c lam / (1 - c^2 lam^2); the modular derivation, the
    logarithm of u -> conj(u*), is D q = -2 i artanh(c lam) p and
    D p = 2 i artanh(c lam) q."""

    K = 5
    CS = [Fraction(1), Fraction(3, 2), Fraction(1, 3)]

    @staticmethod
    def lam_series(m, coeffs):
        """sum_k coeffs[k] lam^k as a constant Func, up to the model order."""
        out = m.zero()
        for k, c in enumerate(coeffs[: m.order + 1]):
            out = out + (m.one() * c).shift(k)
        return out

    def involution(self, m, u, c):
        a = self.lam_series(m, [1] + [2 * c ** k if k % 2 == 0 else 0
                                      for k in range(1, m.order + 1)])
        b = self.lam_series(m, [2 * I * c ** k if k % 2 else 0
                                for k in range(m.order + 1)])
        q, p = m.var("q"), m.var("p")
        images = (a * q + b * p, a * p - b * q)
        idx = [m.gens.index(n) for n in m.base_names]
        out = m.zero()
        for r, poly in enumerate(u.conj().series.coeffs):
            for expo, coeff in poly.terms.items():
                term = m.one() * coeff
                for image, i in zip(images, idx):
                    for _ in range(expo[i]):
                        term = term * image
                out = out + term.shift(r)
        return out

    @pytest.mark.parametrize("c", CS, ids=str)
    def test_involution(self, rand, c):
        m = ModelSpace(abelian_lie(1), base_dim=2, order=self.K)
        om = gaussian_base_weight(m, c)
        for _ in range(8):
            u = rand.base(m, 6, 4) + rand.base(m, 6, 4) * I
            assert not u.is_zero()
            assert (reduced_involution(m, u, om) - self.involution(m, u, c)).is_zero()

    @pytest.mark.parametrize("c", CS, ids=str)
    def test_modular_derivation(self, c):
        m = ModelSpace(abelian_lie(1), base_dim=2, order=self.K)
        d = modular_class(m, gaussian_base_weight(m, c), cap=2)["D"]
        # 2 i artanh(c lam) = 2 i sum_k (c lam)^(2k+1) / (2k+1)
        t = self.lam_series(m, [2 * I * c ** k / k if k % 2 else 0
                                for k in range(self.K + 1)])
        q, p = m.var("q"), m.var("p")
        dq, dp = -t * p, t * q
        for expo, expect in [((1, 0), dq), ((0, 1), dp), ((2, 0), 2 * q * dq),
                             ((1, 1), dq * p + q * dp)]:
            assert (d(monomial(m, m.base_names, expo)) - expect).is_zero(), expo


@pytest.mark.parametrize("lie", [abelian_lie(1), aff1()])
def test_involution_suite(lie):
    m = ModelSpace(lie, base_dim=2, order=3)
    ctx = SuiteContext(m, seed=37, trials=4, degree_cap=2)
    recs = suite_involution(ctx)
    bad = [r for r in recs if r["status"] == "fail"]
    assert not bad, bad


@pytest.mark.parametrize("lie", [abelian_lie(1), heisenberg3()])
def test_gns_suite(lie):
    m = ModelSpace(lie, base_dim=2, order=3)
    ctx = SuiteContext(m, seed=41, trials=4, degree_cap=2)
    recs = suite_gns(ctx)
    bad = [r for r in recs if r["status"] == "fail"]
    assert not bad, bad


def test_gns_suite_skips_without_fibers(model_aff):
    ctx = SuiteContext(model_aff, seed=41, trials=4, degree_cap=2)
    recs = suite_gns(ctx)
    assert all(r["status"] == "skip" for r in recs)


def test_positivity_needs_modular_equivariance(model_aff):
    # without group coordinates the modular weight cannot transform, and a
    # naive weight indeed fails positivity on the constraint ideal directions
    m = model_aff
    cfg = ReductionConfig(m, Fraction(1, 2))
    posf = PositiveFunctional(cfg, gaussian_base_weight(m, 1))
    val = posf(cfg.star(m.momentum(0).conj(), m.momentum(0)))
    assert val.series.lowest_order()[0] == 2 and not is_positive_scalar(val)


def test_kms_suite(model_r):
    ctx = SuiteContext(model_r, seed=43, trials=4, degree_cap=3)
    recs = suite_kms(ctx)
    bad = [r for r in recs if r["status"] == "fail"]
    assert not bad, bad


class TestOperationCounts:
    """The weighted functional and the commutator columns are evaluated by
    linearity: per-entry or per-shift work shows up in these counts."""

    @staticmethod
    def count(monkeypatch, name, module=involution):
        calls = []
        real = getattr(module, name)

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(module, name, counting)
        return calls

    def test_inner_difference_builds_each_commutator_once(self, monkeypatch):
        m = ModelSpace(aff1(), base_dim=2, order=3)
        om = gaussian_base_weight(m, 1)
        rho = m.one() + (m.var("q") * m.var("q")).shift(1)
        calls = self.count(monkeypatch, "moyal")
        assert modular_inner_difference(m, om, om * rho, cap=1)["inner"]
        # 36 unknown monomials of degree <= 1 + 2K, each commuted with the
        # 3 basis monomials of degree <= 1 on both sides, for all K shifts
        assert len(calls) == 36 * 3 * 2

    def test_density_ratio_integrates_no_gram_entry(self, monkeypatch, model_r):
        m = model_r
        om = gaussian_base_weight(m, 1)
        rho = m.one() + m.var("q") * m.var("q")
        kms = self.count(monkeypatch, "kms_functional")
        products = self.count(monkeypatch, "moyal")
        # every Gaussian integral, gaussian_integrate included, is a pass
        passes = self.count(monkeypatch, "gaussian_integrate_shifted", integrate)
        solves = self.count(monkeypatch, "solve_linear")
        density_ratio_hat(m, om, rho)
        size = len(m._field_cache)
        rh = density_ratio_hat(m, om, rho)
        assert Func(LambdaSeries.of(rh.series.coeffs[0], m.order)) == rho
        # one application of the cached P^-1: no base product, no integral
        # and no linear solve, and a warm weight builds nothing new
        assert not kms and not products and not passes and not solves
        assert len(m._field_cache) == size
