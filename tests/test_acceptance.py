"""Acceptance criteria, exercised at desk scale with tolerance zero.

Scale: base dimension two with the standard symplectic matrix, structure
groups R, R^2 and the three-dimensional nilpotent algebra at group level
plus the affine line at momentum level, truncation order four, random
polynomial inputs of degree up to six (four for associativity batteries),
and at least twenty-five seeded random trials per identity aggregated over
the applicable models.  Every check is exact; each criterion prints one
pass line when it completes.
"""

import random
import time
from fractions import Fraction

from redstar.funcs import Func
from redstar.geometry import (
    ModelSpace,
    abelian_lie,
    aff1,
    fiber_integral,
    gaussian_base_weight,
    heisenberg3,
    lebesgue_weight,
    lift_density,
    modular_vector_field,
    random_poly,
)
from redstar.involution import (
    PositiveFunctional,
    gns_check,
    inner_product_mu,
    kms_check,
    kms_functional,
    omega_mu,
    reduced_involution,
)
from redstar.koszul import (
    ReductionConfig,
    SuperObservable,
    deformed_homotopy,
    deformed_restriction,
    homotopy_h,
    koszul,
    left_module,
    quantized_koszul,
    reduced_star,
    right_module,
)
from redstar.morita import (
    InducedVector,
    InnerProductModule,
    KernelSpace,
    RankOneOperator,
    VerticalOperator,
    classical_inner_product,
    complete_positivity_sample,
    deformation_comparison_H,
    external_inner_product,
    fullness_element,
    inner_product_red,
    inner_product_red_closed_form,
    rieffel_induce,
    schroedinger_class,
    vertical_sqrt,
)
from redstar.scalars import GaussRational, I
from redstar.starprod import (
    check_strong_invariance,
    moyal,
    neumaier_N,
    star_G,
    star_std,
    stdrep,
)

ORDER = 4
SEED = 20260808


def _models():
    return {
        "line": ModelSpace(abelian_lie(1), 2, ORDER),
        "plane": ModelSpace(abelian_lie(2), 2, ORDER),
        "nilpotent": ModelSpace(heisenberg3(), 2, ORDER),
    }


MODELS = _models()
AFFINE = ModelSpace(aff1(), 2, ORDER)
ALL_MODELS = dict(MODELS, affine=AFFINE)
# per-model trial counts summing to >= 25 for each identity battery
TRIALS = {"line": 13, "plane": 6, "nilpotent": 6, "affine": 6}
KAPPAS = (0, Fraction(1, 2), [Fraction(1, 2), 1])


class Rand:
    def __init__(self, seed=SEED):
        self.rng = random.Random(seed)

    def poly(self, m, deg, gens=None, nterms=3):
        return random_poly(self.rng, m, deg, gens, nterms)

    def base(self, m, deg=6, nterms=3):
        return self.poly(m, deg, m.base_names, nterms)

    def state(self, m, deg=2, nterms=3):
        return m.fiber_state(self.poly(m, deg, m.base_names + m.group_names, nterms))

    def super(self, m, degree, deg=2):
        import itertools

        comps = {}
        for idx in itertools.combinations(range(m.lie.dim), degree):
            comps[idx] = self.poly(m, deg, None, 2)
        return SuperObservable(m, comps)


def report(n, text):
    print(f"PASS  criterion {n:2d}: {text}")


def lam_times(f, k=1, scalar=None):
    s = f.series.shift(k)
    if scalar is not None:
        s = s * scalar
    return Func(s, f.profile, f.pi4)


# --------------------------------------------------------------------------
# 1. star-product laws
# --------------------------------------------------------------------------


def test_criterion_01_star_product_laws():
    rand = Rand()
    for tag, m in MODELS.items():
        t0 = time.time()
        trials = TRIALS[tag]
        prods = {
            "moyal": lambda f, g, m=m: moyal(m, f, g),
            "weyl_g": lambda f, g, m=m: star_G(m, f, g),
            "total": lambda f, g, m=m: star_G(m, f, g),
        }
        for name, mul in prods.items():
            for _ in range(trials):
                f, g, h = (rand.poly(m, 4) for _ in range(3))
                if name == "moyal":
                    f, g, h = rand.base(m, 4), rand.base(m, 4), rand.base(m, 4)
                assert (mul(mul(f, g), h) - mul(f, mul(g, h))).is_zero(), (tag, name)
                assert (mul(m.one(), f) - f).is_zero()
                assert (mul(f, m.one()) - f).is_zero()
                assert (mul(f, g).conj() - mul(g.conj(), f.conj())).is_zero()
        # standard-ordered property and associativity of std
        fiber_gens = m.group_names + m.momentum_names
        for _ in range(trials):
            phi = rand.poly(m, 4, m.group_names)
            f = rand.poly(m, 4, fiber_gens)
            assert (star_std(m, phi, f) - phi * f).is_zero()
            g, h = rand.poly(m, 3), rand.poly(m, 3)
            assert (star_std(m, star_std(m, f, g), h)
                    - star_std(m, f, star_std(m, g, h))).is_zero()
        elapsed = time.time() - t0
        assert elapsed < 120, f"star suite on {tag} took {elapsed:.1f}s"
    report(1, "associativity, unitality, Hermitian and standard-ordered laws")


# --------------------------------------------------------------------------
# 2. strong invariance and covariance
# --------------------------------------------------------------------------


def test_criterion_02_strong_invariance_and_covariance():
    rand = Rand()
    for tag, m in MODELS.items():
        funcs = [rand.poly(m, 4) for _ in range(TRIALS[tag])]
        fails = check_strong_invariance(m, lambda f, g, m=m: star_G(m, f, g), funcs)
        assert not fails, (tag, fails)
    for tag, m in ALL_MODELS.items():
        for a in range(m.lie.dim):
            for b in range(m.lie.dim):
                lhs = star_G(m, m.momentum(a), m.momentum(b)) - star_G(
                    m, m.momentum(b), m.momentum(a))
                br = m.lie.bracket_vec(m.basis_vector(a), m.basis_vector(b))
                rhs = lam_times(m.momentum_of(br), 1, I)
                assert (lhs - rhs).is_zero(), (tag, a, b)
    report(2, "strong invariance of the Hermitian fiber product; covariance")


# --------------------------------------------------------------------------
# 3. classical Koszul complex
# --------------------------------------------------------------------------


def test_criterion_03_classical_koszul():
    rand = Rand()
    for tag, m in ALL_MODELS.items():
        trials = TRIALS[tag]
        dim = m.lie.dim
        for k in range(1, dim + 1):
            for _ in range(max(2, trials // dim)):
                x = rand.super(m, k, 3)
                assert koszul(m, koszul(m, x)).is_zero(), (tag, k)
                lhs = homotopy_h(m, koszul(m, x), k - 1) + koszul(
                    m, homotopy_h(m, x, k))
                assert (lhs - x).is_zero(), (tag, k)
        for _ in range(trials):
            f = rand.poly(m, 6)
            x0 = SuperObservable.scalar(m, f)
            lhs = SuperObservable.scalar(m, m.prolong(m.restrict(f))) + koszul(
                m, homotopy_h(m, x0, 0))
            assert (lhs - x0).is_zero(), tag
            phi = m.restrict(rand.poly(m, 6))
            assert homotopy_h(
                m, SuperObservable.scalar(m, m.prolong(phi)), 0).is_zero(), tag
            assert (m.restrict(m.prolong(phi)) - phi).is_zero()
            x1 = rand.super(m, 1, 4)
            assert m.restrict(koszul(m, x1).comps.get((), m.zero())).is_zero()
    report(3, "classical complex: square zero, homotopies, augmented exactness")


# --------------------------------------------------------------------------
# 4. quantized Koszul for the three kappa values
# --------------------------------------------------------------------------


def test_criterion_04_quantized_koszul():
    rand = Rand()
    for tag, m in ALL_MODELS.items():
        trials = max(3, TRIALS[tag] // 2)
        for kap in KAPPAS:
            cfg = ReductionConfig(m, kap)
            for _ in range(max(2, trials // 2)):
                x = rand.super(m, 1, 2)
                assert quantized_koszul(cfg, quantized_koszul(cfg, x)).is_zero()
                if m.lie.dim >= 2:
                    x2 = rand.super(m, 2, 2)
                    assert quantized_koszul(
                        cfg, quantized_koszul(cfg, x2)).is_zero()
                f = rand.poly(m, 2)
                fx = x.map(lambda c, f=f: cfg.star(f, c))
                lhs = quantized_koszul(cfg, fx)
                rhs = quantized_koszul(cfg, x).map(lambda c, f=f: cfg.star(f, c))
                assert (lhs - rhs).is_zero(), (tag, kap)
                assert deformed_restriction(
                    cfg, quantized_koszul(cfg, x).comps.get((), m.zero())
                ).is_zero(), (tag, kap)
                phi = m.restrict(rand.poly(m, 3))
                assert (deformed_restriction(cfg, m.prolong(phi)) - phi).is_zero()
                g = rand.poly(m, 2)
                lhs = SuperObservable.scalar(
                    m, m.prolong(deformed_restriction(cfg, g)))
                lhs = lhs + quantized_koszul(
                    cfg, deformed_homotopy(cfg, SuperObservable.scalar(m, g), 0))
                assert (lhs - SuperObservable.scalar(m, g)).is_zero(), (tag, kap)
    report(4, "quantized complex for kappa in {0, 1/2, 1/2+lam}")


# --------------------------------------------------------------------------
# 5. closed forms of the trivial model
# --------------------------------------------------------------------------


def test_criterion_05_closed_forms():
    rand = Rand()
    counts = {"line": 15, "plane": 7, "nilpotent": 8}
    for tag, m in MODELS.items():
        cfg = ReductionConfig(m, Fraction(1, 2))
        n_op = neumaier_N(m)
        for _ in range(counts[tag]):
            f = rand.poly(m, 4)
            assert (deformed_restriction(cfg, f)
                    - m.restrict(n_op.apply(f))).is_zero(), tag
        for _ in range(TRIALS[tag]):
            f = rand.poly(m, 3)
            phi = rand.state(m, 2)
            assert (left_module(cfg, f, phi)
                    - stdrep(m, n_op.apply(f)).apply(phi)).is_zero(), tag
            u = rand.base(m, 3)
            assert (right_module(cfg, phi, u) - moyal(m, phi, u)).is_zero(), tag
            v = rand.base(m, 3)
            assert (reduced_star(cfg, u, v) - moyal(m, u, v)).is_zero(), tag
    report(5, "deformed restriction, module actions and reduced product in closed form")


# --------------------------------------------------------------------------
# 6. bimodule laws and the momentum action
# --------------------------------------------------------------------------


def test_criterion_06_bimodule_laws():
    rand = Rand()
    for tag, m in ALL_MODELS.items():
        cfg = ReductionConfig(m, Fraction(1, 2))
        trials = TRIALS[tag] if tag == "line" else max(4, TRIALS[tag] // 2)
        for _ in range(trials):
            f, g = rand.poly(m, 2), rand.poly(m, 2)
            phi = rand.state(m, 2) if m.has_group else rand.base(m, 2)
            u = rand.base(m, 2)
            assert (left_module(cfg, cfg.star(f, g), phi)
                    - left_module(cfg, f, left_module(cfg, g, phi))).is_zero(), tag
            assert (right_module(cfg, left_module(cfg, f, phi), u)
                    - left_module(cfg, f, right_module(cfg, phi, u))).is_zero(), tag
        for a in range(m.lie.dim):
            phi = rand.state(m, 2) if m.has_group else rand.base(m, 2)
            lhs = left_module(cfg, m.momentum(a), phi)
            rhs = m.zero()
            if m.has_group:
                rhs = lam_times(m.lie_derivative_C(a, phi), 1, I) * GaussRational(-1)
            mod = m.lie.modular[a]
            if mod:
                rhs = rhs - lam_times(phi * cfg.kappa, 1, I) * GaussRational(mod)
            assert (lhs - rhs).is_zero(), (tag, a)
    report(6, "module laws, compatibility, and the momentum action with its weight")


# --------------------------------------------------------------------------
# 7. positivity and the representation of the functional
# --------------------------------------------------------------------------


def test_criterion_07_positivity_gns():
    rand = Rand()
    for tag in ("line", "nilpotent"):
        m = MODELS[tag]
        cfg = ReductionConfig(m, Fraction(1, 2))
        mu = lift_density(m, gaussian_base_weight(m, 1))
        posf = PositiveFunctional(cfg, mu)
        for _ in range(13 if tag == "line" else 12):
            f = rand.poly(m, 2).with_profile(
                {g: Fraction(1, 2) for g in m.group_names})
            assert posf.positivity(f), tag
        x = SuperObservable(m, {(0,): m.fiber_state(rand.poly(m, 1))})
        elt = quantized_koszul(cfg, x).comps.get((), m.zero())
        assert posf.in_gelfand_ideal(elt)
        assert omega_mu(cfg, cfg.star(elt.conj(), elt), mu).is_zero()
        for _ in range(13 if tag == "line" else 12):
            f, g = rand.state(m, 2), rand.state(m, 2)
            rep = gns_check(cfg, f, g, mu)
            assert rep["isometry"] and rep["intertwining"], tag
    report(7, "positivity, the Gel'fand ideal, and the unitary identification")


# --------------------------------------------------------------------------
# 8. the reduced involution and the KMS identity
# --------------------------------------------------------------------------


def test_criterion_08_involution_and_kms():
    t0 = time.time()
    rand = Rand()
    m = MODELS["line"]
    cfg = ReductionConfig(m, Fraction(1, 2))
    gauss = gaussian_base_weight(m, 1)
    leb = lebesgue_weight(m)
    mul = lambda a, b: moyal(m, a, b)
    mu = lift_density(m, gauss)

    # defining adjointness, involutivity, anti-multiplicativity
    for _ in range(13):
        u, v = rand.base(m, 3), rand.base(m, 3)
        su = reduced_involution(m, u, gauss)
        sv = reduced_involution(m, v, gauss)
        assert (reduced_involution(m, su, gauss) - u).is_zero()
        assert (reduced_involution(m, mul(u, v), gauss) - mul(sv, su)).is_zero()
        assert (reduced_involution(m, u * I, gauss) + su * I).is_zero()
    u = rand.base(m, 2)
    su = reduced_involution(m, u, gauss)
    for _ in range(25):
        phi, psi = rand.state(m, 2), rand.state(m, 2)
        lhs = inner_product_mu(cfg, phi, right_module(cfg, psi, u), mu)
        rhs = inner_product_mu(cfg, right_module(cfg, phi, su), psi, mu)
        assert lhs == rhs

    # translation-invariant weight: plain conjugation
    for _ in range(25):
        u = rand.base(m, 4) + rand.base(m, 3) * I
        assert (reduced_involution(m, u, leb) - u.conj()).is_zero()

    # Gaussian weight: first-order correction is the modular field
    q = m.var("q")
    us = reduced_involution(m, q, gauss)
    assert us.series.coeffs[1] == (m.var("p").series.coeffs[0] * (I * 2))
    delta = modular_vector_field(m, gauss)
    assert (delta.apply(q) - m.var("p") * 2).is_zero()

    # KMS identity at degree three, truncation order three
    m3 = ModelSpace(abelian_lie(1), 2, 3)
    gauss3 = gaussian_base_weight(m3, 1)
    mul3 = lambda a, b: moyal(m3, a, b)
    for _ in range(25):
        u, v = rand.base(m3, 3), rand.base(m3, 3)
        rep = kms_check(m3, u, v, gauss3)
        assert rep["holds"]
    damp = {n: Fraction(1, 2) for n in m3.base_names}
    for _ in range(8):
        u = rand.base(m3, 2).with_profile(damp)
        v = rand.base(m3, 2).with_profile(damp)
        assert kms_functional(m3, mul3(v, u), lebesgue_weight(m3)) == \
            kms_functional(m3, mul3(u, v), lebesgue_weight(m3))
    elapsed = time.time() - t0
    assert elapsed < 300, f"involution criterion took {elapsed:.1f}s"
    report(8, "involution laws, trace weight, modular first order, KMS identity")


# --------------------------------------------------------------------------
# 9. the module inner product and finite-rank structure
# --------------------------------------------------------------------------


def test_criterion_09_morita_suite():
    rand = Rand()
    for tag in ("line", "plane", "nilpotent"):
        m = MODELS[tag]
        cfg = ReductionConfig(m, Fraction(1, 2))
        ip = lambda a, b, cfg=cfg: inner_product_red(cfg, a, b)
        ehat = fullness_element(m)
        assert (ip(ehat, ehat) - m.one()).is_zero(), tag
        for _ in range(TRIALS[tag]):
            phi, psi = rand.state(m, 2), rand.state(m, 2)
            u = rand.base(m, 2)
            base = ip(phi, psi)
            lhs = ip(phi, right_module(cfg, psi, u))
            rhs = Func(moyal(m, Func(base.series, base.profile, 0), u).series,
                       {}, base.pi4)
            assert (lhs - rhs).is_zero(), tag
            assert (ip(phi, psi).conj() - ip(psi, phi)).is_zero(), tag
            f = rand.poly(m, 2)
            assert (ip(phi, left_module(cfg, f, psi))
                    - ip(left_module(cfg, f.conj(), phi), psi)).is_zero(), tag
            assert (RankOneOperator(cfg, phi, ehat)(ehat) - phi).is_zero(), tag
    m = MODELS["line"]
    cfg = ReductionConfig(m, Fraction(1, 2))
    states = [rand.state(m, 1) for _ in range(3)]
    pts = [{"q": Fraction(k, 2), "p": Fraction(1 - k, 3)} for k in range(5)]
    rep = complete_positivity_sample(cfg, states, pts)
    assert rep["all_psd"] and rep["witness"]
    for _ in range(6):
        a, b, chi, xi = (rand.state(m, 1) for _ in range(4))
        t = RankOneOperator(cfg, a, b)
        ip = lambda x, y: inner_product_red(cfg, x, y)
        assert (ip(t(chi), xi) - ip(chi, t.adjoint()(xi))).is_zero()
        t2 = RankOneOperator(cfg, chi, xi)
        probe = rand.state(m, 1)
        assert (t.compose(t2)(probe) - t(t2(probe))).is_zero()
    report(9, "unit-norm state, module laws, rank-one algebra, sampled positivity")


# --------------------------------------------------------------------------
# 10. the classical crossed product
# --------------------------------------------------------------------------


def test_criterion_10_crossed_product():
    rand = Rand()
    for tag in ("line", "nilpotent"):
        m = MODELS[tag]
        ks = KernelSpace(m)

        def rk():
            out = None
            for _ in range(2):
                t = Func.one(ks.gens, m.order)
                for _ in range(rand.rng.randint(0, 2)):
                    t = t * Func.var(ks.gens, rand.rng.choice(ks.gens), m.order)
                t = t * GaussRational(rand.rng.randint(-2, 2))
                out = t if out is None else out + t
            return ks.kernel(out)

        for _ in range(13 if tag == "line" else 12):
            k1, k2, k3 = rk(), rk(), rk()
            assert (ks.conv(ks.conv(k1, k2), k3)
                    - ks.conv(k1, ks.conv(k2, k3))).is_zero(), tag
            assert (ks.star(ks.conv(k1, k2))
                    - ks.conv(ks.star(k2), ks.star(k1))).is_zero(), tag
            assert (ks.star(ks.star(k1)) - k1).is_zero(), tag
            a, b, chi = rand.state(m, 1), rand.state(m, 1), rand.state(m, 1)
            emb = ks.from_pair(a, b)
            cl = classical_inner_product(m, b, chi)
            rhs = Func((a * Func(cl.series, cl.profile, 0)).series, a.profile,
                       a.pi4 + cl.pi4)
            assert (ks.act(emb, chi) - rhs).is_zero(), tag
            c, d = rand.state(m, 1), rand.state(m, 1)
            mid = classical_inner_product(m, b, c)
            rhs2 = ks.from_pair(
                Func((a * Func(mid.series, {}, 0)).series, a.profile,
                     a.pi4 + mid.pi4), d)
            assert (ks.conv(ks.from_pair(a, b), ks.from_pair(c, d)) - rhs2
                    ).is_zero(), tag
    report(10, "kernel composition, involution, and the rank-one embedding")


# --------------------------------------------------------------------------
# 11. deformed vertical operators
# --------------------------------------------------------------------------


def test_criterion_11_vertical_operators():
    rand = Rand()
    for tag in ("line", "nilpotent"):
        m = MODELS[tag]
        cfg = ReductionConfig(m, Fraction(1, 2))
        can = lambda a, b, cfg=cfg: inner_product_red_closed_form(cfg, a, b)
        d1 = VerticalOperator.fundamental(m, 0)
        d2 = VerticalOperator.multiplication(
            m, m.var("q") + m.var(m.group_names[0]))
        if m.lie.dim > 1:
            d2 = d2.compose(VerticalOperator.fundamental(m, 1))
        for _ in range(13 if tag == "line" else 12):
            phi, psi = rand.state(m, 1), rand.state(m, 1)
            de = d1.compose(d2)
            assert (de.apply(phi) - d1.apply(d2.apply(phi))).is_zero(), tag
            assert (can(phi, d1.apply(psi)) - can(d1.adjoint().apply(phi), psi)
                    ).is_zero(), tag
            assert (d1.adjoint().apply(phi) + d1.apply(phi)).is_zero(), tag
            dd = de + d2
            assert (can(phi, dd.apply(psi)) - can(dd.adjoint().apply(phi), psi)
                    ).is_zero(), tag
    m = MODELS["line"]
    cfg = ReductionConfig(m, Fraction(1, 2))
    can = lambda a, b: inner_product_red_closed_form(cfg, a, b)
    l0 = VerticalOperator.fundamental(m, 0)
    pert = VerticalOperator.identity(m) + l0.compose(l0).lam_shift(1)
    h = deformation_comparison_H(cfg, pert.apply, g_cap=1, word_cap=2, probe_cap=2)
    assert (h - pert).is_zero()
    assert (h - h.adjoint()).is_zero()
    v = vertical_sqrt(cfg, h)
    assert (v.adjoint().compose(v) - h).is_zero()
    for _ in range(5):
        phi, psi = rand.state(m, 1), rand.state(m, 1)
        assert (can(phi, pert.apply(psi)) - can(v.apply(phi), v.apply(psi))).is_zero()
    report(11, "vertical composition, adjoint generators, comparison round trip")


# --------------------------------------------------------------------------
# 12. induction through the position-space module
# --------------------------------------------------------------------------


def test_criterion_12_rieffel_induction():
    rand = Rand()
    for tag in ("line", "nilpotent"):
        m = MODELS[tag]
        cfg = ReductionConfig(m, Fraction(1, 2))
        module = InnerProductModule.canonical(cfg)
        act = rieffel_induce(cfg, module)

        def rf():
            return m.fiber_state(rand.poly(m, 1, m.group_names, 2))

        for _ in range(13 if tag == "line" else 12):
            b1, b2 = rf(), rf()
            u1, u2 = rand.base(m, 2), rand.base(m, 2)
            v1 = InducedVector([(schroedinger_class(m, b1), u1)])
            v2 = InducedVector([(schroedinger_class(m, b2), u2)])
            lhs = external_inner_product(cfg, module, v1, v2)
            om_part = fiber_integral(m, m.restrict(
                neumaier_N(m).apply(star_G(m, b1.conj(), b2))))
            rhs = Func((Func(om_part.series, {}, 0)
                        * moyal(m, u1.conj(), u2)).series, {}, om_part.pi4)
            assert (lhs - rhs).is_zero(), tag
            h1, h2 = rand.base(m, 1), rand.base(m, 1)
            inner_big = Func((Func(om_part.series, {}, 0)
                              * moyal(m, u1.conj(), u2)).series, {}, om_part.pi4)
            assoc_lhs = moyal(m, h1.conj(),
                              moyal(m, Func(inner_big.series, {}, 0), h2))
            assoc_lhs = Func(assoc_lhs.series, {}, inner_big.pi4)
            wv1 = InducedVector([(schroedinger_class(m, b1), moyal(m, u1, h1))])
            wv2 = InducedVector([(schroedinger_class(m, b2), moyal(m, u2, h2))])
            assert (assoc_lhs
                    - external_inner_product(cfg, module, wv1, wv2)).is_zero(), tag
        chi = rf()
        beta = schroedinger_class(m, chi)
        vec = InducedVector([(beta, m.one())])
        out = act(m.momentum(0) * GaussRational(-1), vec)
        total_beta = m.zero()
        for nb, nx in out.terms:
            total_beta = total_beta + nb
            assert (nx - m.one()).is_zero()
        lx = m.left_invariant_field(0).apply(beta)
        expect = Func(lx.series.shift(1) * (-I), lx.profile, lx.pi4)
        assert (total_beta - expect).is_zero(), tag
    report(12, "external inner product, associativity map, induced momentum action")
