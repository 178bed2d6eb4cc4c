"""Module inner products, rank-one operators, vertical calculus, kernels,
and induction of representations."""

from fractions import Fraction

import pytest

from redstar import morita, starprod, suites
from redstar.diffop import DiffOperator
from redstar.funcs import Func
from redstar.geometry import (ModelSpace, abelian_lie, fiber_integral, heisenberg3, monomial,
                              monomials)
from redstar.integrate import gaussian_integrate_shifted
from redstar.koszul import ReductionConfig, left_module, right_module
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
    fullness_element_sqrt_path,
    inner_product_red,
    inner_product_red_closed_form,
    rieffel_induce,
    schroedinger_class,
    vertical_sqrt,
)
from redstar.scalars import GaussRational, I
from redstar.starprod import SymbolOp, moyal, neumaier_N, pbw_words, star_G
from redstar.suites import SuiteContext, suite_crossed, suite_morita, suite_rieffel


class TestInnerProduct:
    def test_fullness(self, model_r, model_heis):
        for m in (model_r, model_heis):
            cfg = ReductionConfig(m, Fraction(1, 2))
            ehat = fullness_element(m)
            assert (inner_product_red(cfg, ehat, ehat) - m.one()).is_zero()
            e2 = fullness_element_sqrt_path(cfg)
            assert (inner_product_red(cfg, e2, e2) - m.one()).is_zero()

    def test_closed_form(self, model_heis, rand):
        m = model_heis
        cfg = ReductionConfig(m, Fraction(1, 2))
        phi, psi = rand.state(m, 2), rand.state(m, 2)
        assert (inner_product_red(cfg, phi, psi)
                - inner_product_red_closed_form(cfg, phi, psi)).is_zero()

    def test_right_linearity_symmetry_adjointness(self, model_r, rand):
        m = model_r
        cfg = ReductionConfig(m, Fraction(1, 2))
        ip = lambda a, b: inner_product_red(cfg, a, b)
        for _ in range(6):
            phi, psi = rand.state(m, 2), rand.state(m, 2)
            u = rand.base(m, 2)
            base = ip(phi, psi)
            lhs = ip(phi, right_module(cfg, psi, u))
            rhs = Func(moyal(m, Func(base.series, base.profile, 0), u).series,
                       {}, base.pi4)
            assert (lhs - rhs).is_zero()
            assert (ip(phi, psi).conj() - ip(psi, phi)).is_zero()
            f = rand.poly(m, 2)
            assert (ip(phi, left_module(cfg, f, psi))
                    - ip(left_module(cfg, f.conj(), phi), psi)).is_zero()

    def test_nondegenerate_lowest_order(self, model_r, rand):
        m = model_r
        cfg = ReductionConfig(m, Fraction(1, 2))
        for _ in range(6):
            phi = rand.state(m, 2)
            n = inner_product_red(cfg, phi, phi)
            if phi.is_zero():
                assert n.is_zero()
            else:
                assert not n.is_zero()


class TestRankOne:
    def test_dual_basis(self, model_r, rand):
        m = model_r
        cfg = ReductionConfig(m, Fraction(1, 2))
        ehat = fullness_element(m)
        for _ in range(4):
            phi = rand.state(m, 2)
            assert (RankOneOperator(cfg, phi, ehat)(ehat) - phi).is_zero()
        th = RankOneOperator(cfg, ehat, ehat)
        assert (th(ehat) - ehat).is_zero()

    def test_zero_slot(self, model_r, rand):
        m = model_r
        cfg = ReductionConfig(m, Fraction(1, 2))
        t = RankOneOperator(cfg, rand.state(m, 1), m.zero())
        assert t(rand.state(m, 1)).is_zero()

    def test_adjoint_and_composition(self, model_r, rand):
        m = model_r
        cfg = ReductionConfig(m, Fraction(1, 2))
        ip = lambda a, b: inner_product_red(cfg, a, b)
        for _ in range(4):
            a, b, chi, xi = (rand.state(m, 1) for _ in range(4))
            t = RankOneOperator(cfg, a, b)
            assert (ip(t(chi), xi) - ip(chi, t.adjoint()(xi))).is_zero()
            t2 = RankOneOperator(cfg, chi, xi)
            probe = rand.state(m, 1)
            assert (t.compose(t2)(probe) - t(t2(probe))).is_zero()


class TestCompletePositivity:
    def test_gram_samples(self, model_r, rand):
        m = model_r
        cfg = ReductionConfig(m, Fraction(1, 2))
        states = [rand.state(m, 1) for _ in range(3)]
        pts = [{"q": Fraction(k, 2), "p": Fraction(1 - k, 3)} for k in range(5)]
        rep = complete_positivity_sample(cfg, states, pts)
        assert rep["all_psd"] and rep["witness"]

    def test_single_state(self, model_r, rand):
        m = model_r
        cfg = ReductionConfig(m, Fraction(1, 2))
        phi = rand.state(m, 1)
        n = inner_product_red(cfg, phi, phi)
        r, c = n.series.lowest_order()
        # classical positivity at sampled points
        for k in range(3):
            v = n.evaluate({"q": Fraction(k, 3), "p": Fraction(k, 2)})
            low = v.series.lowest_order()[1]
            if low is not None:
                cc = low.constant_term()
                assert cc.is_real() and cc.re >= 0


class TestVerticalOperators:
    def test_fundamental_adjoint(self, model_r, model_heis, rand):
        for m in (model_r, model_heis):
            cfg = ReductionConfig(m, Fraction(1, 2))
            can = lambda a, b: inner_product_red_closed_form(cfg, a, b)
            d = VerticalOperator.fundamental(m, 0)
            for _ in range(3):
                phi, psi = rand.state(m, 1), rand.state(m, 1)
                assert (can(phi, d.apply(psi)) - can(d.adjoint().apply(phi), psi)
                        ).is_zero()
                # for the unimodular model the generator adjoint is the sign flip
                assert (d.adjoint().apply(phi) + d.apply(phi)).is_zero()

    def test_multiplication_self_adjoint(self, model_r, rand):
        m = model_r
        cfg = ReductionConfig(m, Fraction(1, 2))
        can = lambda a, b: inner_product_red_closed_form(cfg, a, b)
        dq = VerticalOperator.multiplication(m, m.var("q"))
        phi, psi = rand.state(m, 1), rand.state(m, 1)
        assert (can(phi, dq.apply(psi)) - can(dq.adjoint().apply(phi), psi)).is_zero()

    def test_composition(self, model_heis, rand):
        m = model_heis
        d1 = VerticalOperator.fundamental(m, 0)
        d2 = VerticalOperator.fundamental(m, 1).compose(
            VerticalOperator.multiplication(m, m.var("g2")))
        phi = rand.state(m, 2)
        assert (d1.compose(d2).apply(phi) - d1.apply(d2.apply(phi))).is_zero()

    def test_comparison_roundtrip(self, model_r, rand):
        m = model_r
        cfg = ReductionConfig(m, Fraction(1, 2))
        can = lambda a, b: inner_product_red_closed_form(cfg, a, b)
        h0 = deformation_comparison_H(cfg, lambda psi: psi, g_cap=1,
                                      word_cap=1, probe_cap=1)
        assert (h0 - VerticalOperator.identity(m)).is_zero()
        l0 = VerticalOperator.fundamental(m, 0)
        pert = VerticalOperator.identity(m) + l0.compose(l0).lam_shift(1)
        h = deformation_comparison_H(cfg, pert.apply, g_cap=1, word_cap=2,
                                     probe_cap=2)
        assert (h - pert).is_zero()
        assert (h - h.adjoint()).is_zero()
        v = vertical_sqrt(cfg, h)
        assert (v.adjoint().compose(v) - h).is_zero()
        for _ in range(3):
            phi, psi = rand.state(m, 1), rand.state(m, 1)
            assert (can(phi, pert.apply(psi))
                    - can(v.apply(phi), v.apply(psi))).is_zero()

    @pytest.mark.parametrize("lie", [lambda: abelian_lie(1), heisenberg3],
                             ids=["abelian1", "heis3"])
    def test_vertical_sqrt_refuses_a_non_hermitian_operator(self, lie):
        """H = id + lam L_{e_1} is not Hermitian, since L_{e_1}^* = -L_{e_1},
        so no V has V^* V = H."""
        m = ModelSpace(lie(), 2, 3)
        l0 = VerticalOperator.fundamental(m, 0)
        h = VerticalOperator.identity(m) + l0.lam_shift(1)
        assert not (h.adjoint() - h).is_zero()
        with pytest.raises(ValueError, match="Hermitian"):
            vertical_sqrt(ReductionConfig(m), h)

    @pytest.mark.parametrize("lie", [lambda: abelian_lie(1), heisenberg3],
                             ids=["abelian1", "heis3"])
    def test_vertical_sqrt_refuses_an_operator_off_the_identity(self, lie):
        """H = 4 id and H = id + L_{e_1}^* L_{e_1} are Hermitian, but their
        lam^0 part is not the identity, so the binomial series in H - id
        does not terminate; H = id + lam^2 L_{e_1}^* L_{e_1} has a root."""
        m = ModelSpace(lie(), 2, 3)
        cfg = ReductionConfig(m)
        one = VerticalOperator.identity(m)
        l0 = VerticalOperator.fundamental(m, 0)
        square = l0.adjoint().compose(l0)
        for h in (one.scale(GaussRational(4)), one + square):
            assert (h.adjoint() - h).is_zero()
            with pytest.raises(ValueError, match="id \\+ O\\(lam\\)"):
                vertical_sqrt(cfg, h)
        h = one + square.lam_shift(2)
        v = vertical_sqrt(cfg, h)
        assert (v.adjoint().compose(v) - h).is_zero()

    def test_caps_too_small_raise(self, model_r):
        m = model_r
        cfg = ReductionConfig(m, Fraction(1, 2))
        l0 = VerticalOperator.fundamental(m, 0)
        pert = VerticalOperator.identity(m) + l0.compose(l0).lam_shift(1)
        with pytest.raises(ValueError, match="caps too small"):
            deformation_comparison_H(cfg, pert.apply, g_cap=0, word_cap=1,
                                     probe_cap=1)

    @pytest.mark.parametrize("caps", [(1, 1, 1), (1, 2, 2)])
    def test_order_zero_mismatch_raises(self, model_heis, caps):
        """ket = 2 psi differs from the identity at order 0, which no
        H = id + O(lam) can meet; the identity itself gives H = id."""
        m = model_heis
        cfg = ReductionConfig(m, Fraction(1, 2))
        g_cap, word_cap, probe_cap = caps
        h = deformation_comparison_H(cfg, lambda psi: psi, g_cap=g_cap,
                                     word_cap=word_cap, probe_cap=probe_cap)
        assert (h - VerticalOperator.identity(m)).is_zero()
        with pytest.raises(ValueError, match="at order 0"):
            deformation_comparison_H(cfg, lambda psi: psi * 2, g_cap=g_cap,
                                     word_cap=word_cap, probe_cap=probe_cap)

    @pytest.mark.parametrize("caps", [(-1, 2, 2), (1, -1, 2), (1, 2, -1)],
                             ids=["g_cap", "word_cap", "probe_cap"])
    def test_negative_cap_raises(self, model_r, caps):
        m = model_r
        cfg = ReductionConfig(m, Fraction(1, 2))
        l0 = VerticalOperator.fundamental(m, 0)
        pert = VerticalOperator.identity(m) + l0.compose(l0).lam_shift(1)
        g_cap, word_cap, probe_cap = caps
        with pytest.raises(ValueError, match="negative cap"):
            deformation_comparison_H(cfg, pert.apply, g_cap=g_cap,
                                     word_cap=word_cap, probe_cap=probe_cap)

    @pytest.mark.parametrize("lie", [heisenberg3(), abelian_lie(2)],
                             ids=["heis3", "abelian2"])
    def test_columns_match_direct_construction(self, lie):
        """Every column of the comparison solve, built from the moments of
        L_w psi_j, equals applying the candidate operator {w: g^e} and
        taking the closed-form inner product with every probe, which is
        lam-free; the entries left at zero are zero there too."""
        m = ModelSpace(lie, base_dim=2, order=3)
        cfg = ReductionConfig(m, Fraction(1, 2))
        gnames = m.group_names
        pexps = monomials(gnames, 2)
        probes = [m.fiber_state(monomial(m, gnames, a)) for a in pexps]
        words = pbw_words(lie.dim, 2)
        for g_cap in (1, 2):
            gexps = monomials(gnames, g_cap)
            cols, _ = morita._comparison_system(m, lambda psi: psi, pexps,
                                                words, gexps)
            assert len(cols) == len(words) * len(gexps)
            for u, col in enumerate(cols):
                w, e = words[u // len(gexps)], gexps[u % len(gexps)]
                cand = VerticalOperator(m, {w: monomial(m, gnames, e)})
                kets = [cand.apply(psi) for psi in probes]
                direct = [inner_product_red_closed_form(cfg, phi, ket)
                          for phi in probes for ket in kets]
                assert all(p.is_zero() for d in direct for p in d.series.coeffs[1:])
                assert col == [d.series.coeffs[0] for d in direct], (w, e)
            assert any(not p.is_zero() for col in cols[1:] for p in col)

    def test_comparison_op_counts(self, model_heis):
        """One solve on heis3 calls the ket once per probe and makes one
        field application per (non-empty word, probe), one moment pass per
        (probe, word) for the columns and one per probe for the target, and
        no base product or closed-form inner product."""
        m = model_heis
        cfg = ReductionConfig(m, Fraction(1, 2))
        gnames = m.group_names
        l0 = VerticalOperator.fundamental(m, 0)
        pert = VerticalOperator.identity(m) + l0.compose(l0).lam_shift(1)
        probes = [m.fiber_state(monomial(m, gnames, e)) for e in monomials(gnames, 2)]
        kets = {psi: pert.apply(psi) for psi in probes}
        counts = {"ket": 0, "apply": 0, "moyal": 0, "op_apply": 0, "moments": 0,
                  "closed_form": 0}

        def counting(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(DiffOperator, "apply", counting("apply", DiffOperator.apply))
            mp.setattr(SymbolOp, "apply", counting("op_apply", SymbolOp.apply))
            counted_moyal = counting("moyal", starprod.moyal)
            for mod in (starprod, morita):
                mp.setattr(mod, "moyal", counted_moyal)
            mp.setattr(morita, "gaussian_integrate_shifted",
                       counting("moments", morita.gaussian_integrate_shifted))
            mp.setattr(morita, "inner_product_red_closed_form",
                       counting("closed_form", inner_product_red_closed_form))
            h = deformation_comparison_H(cfg, counting("ket", kets.__getitem__),
                                         g_cap=1, word_cap=2, probe_cap=2)
        assert (h - pert).is_zero()
        # 10 probes and 10 words, 9 of them non-empty
        assert counts == {"ket": 10, "apply": 9 * 10, "moyal": 0, "op_apply": 0,
                          "moments": 10 * 10 + 10, "closed_form": 0}


def test_suite_comparison_perturbs_each_state_once(model_heis):
    """morita.comparison applies its planted deformation once per probe:
    the solve's ket calls on 10 probes make 10 applications."""
    counts = {"solving": False, "apply": 0}
    solve, apply = suites.deformation_comparison_H, SymbolOp.apply

    def counted_solve(*args, **kwargs):
        counts["solving"] = True
        try:
            return solve(*args, **kwargs)
        finally:
            counts["solving"] = False

    def counted_apply(self, phi):
        counts["apply"] += counts["solving"]
        return apply(self, phi)

    ctx = SuiteContext(model_heis, seed=13, trials=2, degree_cap=2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(suites, "deformation_comparison_H", counted_solve)
        mp.setattr(SymbolOp, "apply", counted_apply)
        recs = suite_morita(ctx)
    rec = next(r for r in recs if r["id"] == "morita.comparison")
    assert rec["status"] == "pass"
    assert counts["apply"] == len(monomials(model_heis.group_names, 2)) == 10


def test_shifted_moments_match_fiber_integral(model_heis, rand):
    """The moment pass against every g^e equals fiber_integral(g^e f), on an
    integrand with odd moments, a pi-grade and a lam shift, with the memo
    shared across two envelopes; with top 0 only order 0 is kept."""
    m = model_heis
    g1, g2, g3 = gnames = m.group_names
    gexps = monomials(gnames, 2)
    memo = {}
    for a in (1, 4):
        odd = m.var(g1) * m.var("q") + m.var(g2) * m.var(g3) * m.var(g3)
        f = odd + rand.poly(m, 4) + Func(rand.poly(m, 3).series.shift(1))
        f = f.with_profile({g: a for g in gnames}).with_pi4(-3)
        full = gaussian_integrate_shifted(f, gnames, gexps, m.order, memo)
        low = gaussian_integrate_shifted(f, gnames, gexps, 0, memo)
        for e, val, val0 in zip(gexps, full, low):
            direct = fiber_integral(m, monomial(m, gnames, e) * f)
            assert val == direct and val.pi4 == direct.pi4 == -3 + 6, e
            assert val0.series.coeffs[0] == direct.series.coeffs[0]
            assert all(p.is_zero() for p in val0.series.coeffs[1:])
        odd = odd.with_profile({g: a for g in gnames})
        vals = gaussian_integrate_shifted(odd, gnames, gexps, m.order, memo)
        assert vals[0].is_zero() and not vals[gexps.index((1, 0, 0))].is_zero()
    assert len(memo) == 2


class TestCrossedProduct:
    def test_algebra_laws(self, model_r, model_heis, rand):
        for m in (model_r, model_heis):
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

            k1, k2, k3 = rk(), rk(), rk()
            assert (ks.conv(ks.conv(k1, k2), k3)
                    - ks.conv(k1, ks.conv(k2, k3))).is_zero()
            assert (ks.star(ks.conv(k1, k2))
                    - ks.conv(ks.star(k2), ks.star(k1))
                    ).is_zero()
            assert (ks.star(ks.star(k1)) - k1).is_zero()
            phi = rand.state(m, 1)
            assert (ks.act(ks.conv(k1, k2), phi)
                    - ks.act(k1, ks.act(k2, phi))).is_zero()

    def test_rank_one_embedding(self, model_r, rand):
        m = model_r
        ks = KernelSpace(m)
        a, b, chi = rand.state(m, 1), rand.state(m, 1), rand.state(m, 1)
        emb = ks.from_pair(a, b)
        lhs = ks.act(emb, chi)
        cl = classical_inner_product(m, b, chi)
        rhs = Func((a * Func(cl.series, cl.profile, 0)).series, a.profile,
                   a.pi4 + cl.pi4)
        assert (lhs - rhs).is_zero()
        c, d = rand.state(m, 1), rand.state(m, 1)
        lhs2 = ks.conv(ks.from_pair(a, b), ks.from_pair(c, d))
        mid = classical_inner_product(m, b, c)
        rhs2 = ks.from_pair(
            Func((a * Func(mid.series, {}, 0)).series, a.profile, a.pi4 + mid.pi4),
            d)
        assert (lhs2 - rhs2).is_zero()


class TestRieffel:
    def test_gelfand_quotient(self, model_r):
        from redstar.koszul import SuperObservable, quantized_koszul

        m = model_r
        cfg = ReductionConfig(m, Fraction(1, 2))
        x = SuperObservable(m, {(0,): m.fiber_state(m.var("g"))})
        elt = quantized_koszul(cfg, x).comps.get((), m.zero())
        assert schroedinger_class(m, elt).is_zero()

    def test_induced_momentum_and_unit(self, model_r, rand):
        m = model_r
        cfg = ReductionConfig(m, Fraction(1, 2))
        module = InnerProductModule.canonical(cfg)
        act = rieffel_induce(cfg, module)
        chi = m.fiber_state(rand.poly(m, 2, m.group_names))
        beta = schroedinger_class(m, chi)
        vec = InducedVector([(beta, m.one())])
        out = act(m.momentum(0) * GaussRational(-1), vec)
        total_beta = m.zero()
        for nb, nx in out.terms:
            total_beta = total_beta + nb
            assert (nx - m.one()).is_zero()
        expect = Func(beta.diff("g").series.shift(1) * (-I), beta.profile, beta.pi4)
        assert (total_beta - expect).is_zero()
        unit = act(m.one(), vec)
        assert len(unit.terms) == 1 and (unit.terms[0][0] - beta).is_zero()

    def test_external_display_and_star_rep(self, model_r, rand):
        m = model_r
        cfg = ReductionConfig(m, Fraction(1, 2))
        module = InnerProductModule.canonical(cfg)
        act = rieffel_induce(cfg, module)
        b1 = m.fiber_state(rand.poly(m, 1, m.group_names))
        b2 = m.fiber_state(rand.poly(m, 1, m.group_names))
        u1, u2 = rand.base(m, 2), rand.base(m, 2)
        v1 = InducedVector([(schroedinger_class(m, b1), u1)])
        v2 = InducedVector([(schroedinger_class(m, b2), u2)])
        lhs = external_inner_product(cfg, module, v1, v2)
        om_part = fiber_integral(m, m.restrict(
            neumaier_N(m).apply(star_G(m, b1.conj(), b2))))
        rhs = Func((Func(om_part.series, {}, 0) * moyal(m, u1.conj(), u2)).series,
                   {}, om_part.pi4)
        assert (lhs - rhs).is_zero()
        f = rand.poly(m, 2)
        lhs = external_inner_product(cfg, module, v1, act(f, v2))
        rhs = external_inner_product(cfg, module, act(f.conj(), v1), v2)
        assert (lhs - rhs).is_zero()


@pytest.mark.parametrize("suite", [suite_morita, suite_crossed, suite_rieffel])
def test_group_suites(model_r, suite):
    ctx = SuiteContext(model_r, seed=47, trials=4, degree_cap=2)
    recs = suite(ctx)
    bad = [r for r in recs if r["status"] == "fail"]
    assert not bad, bad


@pytest.mark.parametrize("suite", [suite_morita, suite_crossed, suite_rieffel])
def test_group_suites_skip_on_momentum_level(model_aff, suite):
    ctx = SuiteContext(model_aff, seed=47, trials=2, degree_cap=2)
    recs = suite(ctx)
    assert recs and all(r["status"] == "skip" for r in recs)


def test_external_mixed_coefficients(model_r):
    # <[b] x q, [b] x p> factors as the scalar pairing times q * p
    from redstar.geometry import fiber_integral
    from redstar.starprod import neumaier_N, star_G

    m = model_r
    cfg = ReductionConfig(m, Fraction(1, 2))
    module = InnerProductModule.canonical(cfg)
    b = m.fiber_state(m.var("g"))
    beta = schroedinger_class(m, b)
    v1 = InducedVector([(beta, m.var("q"))])
    v2 = InducedVector([(beta, m.var("p"))])
    got = external_inner_product(cfg, module, v1, v2)
    om_part = fiber_integral(m, m.restrict(
        neumaier_N(m).apply(star_G(m, b.conj(), b))))
    expect = Func((Func(om_part.series, {}, 0)
                   * moyal(m, m.var("q"), m.var("p"))).series, {}, om_part.pi4)
    assert (got - expect).is_zero()


def test_external_tensor_module(model_r, rand):
    from redstar.morita import external_tensor

    m = model_r
    cfg = ReductionConfig(m, Fraction(1, 2))
    base_mod = InnerProductModule.canonical(cfg)
    ext = external_tensor(cfg, base_mod)
    b = m.fiber_state(m.var("g"))
    beta = schroedinger_class(m, b)
    v = InducedVector([(beta, m.var("q"))])
    w = InducedVector([(beta, m.var("p"))])
    # right linearity over the base algebra
    u = rand.base(m, 1)
    lhs = ext.ip(v, ext.right_action(w, u))
    rhs = moyal(m, Func(ext.ip(v, w).series, {}, 0), u)
    rhs = Func(rhs.series, {}, ext.ip(v, w).pi4)
    assert (lhs - rhs).is_zero()
    # adjointable left action of the full algebra
    f = rand.poly(m, 2)
    assert (ext.ip(v, ext.left_action(f, w))
            - ext.ip(ext.left_action(f.conj(), v), w)).is_zero()
