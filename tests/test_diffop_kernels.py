"""Differential tests: the term-level DiffOperator.apply and compose against
the direct Func- and Poly-level constructions they replace.

The reference functions below are the former implementations, kept here
only as the construction the kernels must reproduce exactly: equal values,
equal repr, and for zero results the same envelope and pi-grade.
"""

import random
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from redstar.diffop import DiffOperator, _leibniz_splits, apply_sum
from redstar.funcs import Func
from redstar.geometry import (
    ModelSpace,
    abelian_lie,
    aff1,
    gaussian_base_weight,
    heisenberg3,
)
from redstar.poly import Poly
from redstar.scalars import GaussRational, I
from redstar.series import LambdaSeries
from redstar.starprod import neumaier_N, neumaier_N_inverse


def ref_leibniz_splits(d):
    """The former generator of (kept_on_operator, multinomial coefficient)."""
    n = len(d)

    def rec(i):
        if i == n:
            yield (), 1
            return
        for rest, coeff in rec(i + 1):
            for k in range(d[i] + 1):
                yield (k,) + rest, coeff * comb(d[i], k)

    yield from rec(0)


def test_leibniz_splits_match_generator():
    """The memoised tuple holds the generator's pairs in its order, for every
    multi-index of total degree up to 6 over 1 to 4 coordinates."""
    seen = 0
    for n in range(1, 5):
        for d in product(range(7), repeat=n):
            if sum(d) <= 6:
                splits = _leibniz_splits(d)
                assert type(splits) is tuple
                assert splits == tuple(ref_leibniz_splits(d))
                assert _leibniz_splits(d) is splits
                seen += 1
    assert seen == 7 + 28 + 84 + 210


def reference_apply(op: DiffOperator, f: Func) -> Func:
    """Application through Func arithmetic, one entry at a time."""
    if f.gens != op.gens:
        raise ValueError("operator and function live on different generators")
    diff_cache: dict = {(0,) * len(op.gens): f}

    def deriv(d):
        if d in diff_cache:
            return diff_cache[d]
        for i, k in enumerate(d):
            if k:
                lower = list(d)
                lower[i] = k - 1
                out = deriv(tuple(lower)).diff(op.gens[i])
                diff_cache[d] = out
                return out
        raise AssertionError

    total = f.zero_like()
    for r, table in enumerate(op.tables):
        for d, c in table.items():
            term = deriv(d) * Func.from_poly(c, f.order)
            total = total + Func(term.series.shift(r), term.profile, term.pi4)
    return total


def reference_compose(op: DiffOperator, other: DiffOperator) -> DiffOperator:
    """Composition through Poly arithmetic and the multi-index Leibniz rule."""
    if op.gens != other.gens or op.order != other.order:
        raise ValueError("operator mismatch")
    n = len(op.gens)
    tabs = [{} for _ in range(op.order + 1)]
    for r1, t1 in enumerate(op.tables):
        for r2, t2 in enumerate(other.tables):
            r = r1 + r2
            if r > op.order:
                continue
            for d1, c1 in t1.items():
                for d2, c2 in t2.items():
                    for split, dcoeff in ref_leibniz_splits(d1):
                        pc = c2
                        for i in range(n):
                            for _ in range(d1[i] - split[i]):
                                pc = pc.diff(op.gens[i])
                        if pc.is_zero():
                            continue
                        d = tuple(split[i] + d2[i] for i in range(n))
                        tgt = tabs[r]
                        tgt[d] = tgt.get(d, Poly.zero(op.gens)) + c1 * pc * dcoeff
    return DiffOperator(op.gens, op.order, tabs)


MODELS = [
    ("heis3", heisenberg3),
    ("abelian", lambda: abelian_lie(1)),
    ("aff1", aff1),
]
CASES = [(label, lie, k) for label, lie in MODELS for k in (3, 4)]
GROUP_CASES = [c for c in CASES if c[0] != "aff1"]


def case_id(case):
    return f"{case[0]}-K{case[2]}"


@pytest.fixture(scope="module", params=CASES, ids=case_id)
def model(request):
    _, lie, order = request.param
    return ModelSpace(lie(), base_dim=2, order=order)


def adjoint_weight(m):
    prefactor = LambdaSeries(
        [Poly.constant(m.gens, 2), Poly.var(m.gens, "q") * Poly.var(m.gens, "q")],
        m.order,
    )
    return gaussian_base_weight(m, Fraction(1, 2), prefactor)


def adjoint_source(m):
    """A first-order operator on the weighted coordinates, plus a lam-shifted field."""
    gens = m.gens
    op = DiffOperator.first_order(
        gens, m.order, {"q": Poly.var(gens, "p"), "p": Poly.var(gens, "q") * I}
    )
    return op + m.fundamental_field_M(m.basis_vector(0)).lam_shift(1)


def build_operators(m):
    """(name, operator) pairs built with the compose method currently bound."""
    ops = [("empty", DiffOperator.zero(m.gens, m.order))]
    for a in range(m.lie.dim):
        ops.append((f"fundamental{a}", m.fundamental_field_M(m.basis_vector(a))))
        if m.has_group:
            ops.append((f"left_invariant{a}", m.left_invariant_field(a)))
    if m.has_group:
        ops.append(("N", neumaier_N(m)))
        ops.append(("N^-1", neumaier_N_inverse(m)))
    ops.append(("adjoint", adjoint_source(m).formal_adjoint(adjoint_weight(m))))
    return ops


@pytest.fixture(scope="module")
def operators(model):
    return build_operators(model)


def rand_poly(m, rng, names, nterms=3, deg=3):
    idx = [m.gens.index(n) for n in names]
    terms = {}
    for _ in range(nterms):
        expo = [0] * len(m.gens)
        for _ in range(rng.randint(0, deg)):
            expo[rng.choice(idx)] += 1
        terms[tuple(expo)] = GaussRational(rng.randint(-3, 3), rng.randint(-1, 1))
    return Func.from_poly(Poly(m.gens, terms), m.order)


def inputs(m, seed=7):
    rng = random.Random(seed)
    full = rand_poly(m, rng, m.gens)
    out = [
        ("zero", m.zero()),
        ("zero-enveloped", m.zero().with_profile({"q": Fraction(1, 2)}).with_pi4(2)),
        ("full", full),
        ("lam-shift", Func(full.series.shift(1), {}, 0)),
        ("pi4", rand_poly(m, rng, m.gens).with_pi4(-1)),
        ("base-enveloped", rand_poly(m, rng, m.gens).with_profile({"q": 1})),
        ("truncated", Func(full.series.truncate(m.order - 1))),
    ]
    if m.has_group:
        state = m.fiber_state(rand_poly(m, rng, m.base_names + m.group_names))
        out += [
            ("fiber", state),
            ("fiber-pi4-lam", Func(state.series.shift(1), state.profile, 3)),
            ("fiber-zero", m.fiber_state(m.zero())),
            ("fiber-constant", m.fiber_state(1)),
        ]
    return out


def assert_identical(got, want, what):
    assert got == want, what
    assert repr(got) == repr(want), what
    if isinstance(want, Func):
        got_meta = (got.profile, got.pi4, got.order)
        assert got_meta == (want.profile, want.pi4, want.order), what


def test_apply_matches_reference(model, operators):
    for name, op in operators:
        for label, f in inputs(model):
            got = op.apply(f)
            want = reference_apply(op, f)
            assert_identical(got, want, (name, label))


def test_compose_matches_reference(model, operators):
    ops = dict(operators)
    names = list(ops)
    pairs = [(a, b) for a in names for b in names if "N" not in (a + b)]
    if model.has_group:
        pairs += [("N", "N^-1"), ("N^-1", "N"), ("N", "fundamental0"),
                  ("left_invariant0", "N"), ("empty", "N"), ("N", "N")]
    for a, b in pairs:
        assert_identical(ops[a].compose(ops[b]), reference_compose(ops[a], ops[b]), (a, b))


@pytest.mark.parametrize("model", GROUP_CASES, ids=case_id, indirect=True)
def test_normalizer_inverse_is_identity(model):
    n, ninv = neumaier_N(model), neumaier_N_inverse(model)
    ident = DiffOperator.identity(model.gens, model.order)
    assert n.compose(ninv) == ident
    assert ninv.compose(n) == ident


def test_built_operators_match_reference(model, operators):
    """N, N^-1 and the Gaussian-weight adjoint, rebuilt on reference compose."""
    fresh = ModelSpace(model.lie, base_dim=2, order=model.order)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DiffOperator, "compose", reference_compose)
        want = build_operators(fresh)
    assert [name for name, _ in want] == [name for name, _ in operators]
    for (name, got), (_, ref) in zip(operators, want):
        assert_identical(got, ref, name)


def test_trusted_operators_match_validation(model, operators):
    """+, - and compose build their result through DiffOperator._trusted:
    the validating constructor gives the same operator from its tables,
    which are a tuple of order + 1 dicts of nonzero Polys."""
    ops = [op for name, op in operators if "N" not in name]
    for a in ops:
        for b in ops:
            for got in (a + b, a - b, a.compose(b)):
                assert_identical(got, DiffOperator(got.gens, got.order, got.tables), (a, b))
                assert type(got.tables) is tuple and len(got.tables) == got.order + 1
                assert all(type(d) is tuple and type(c) is Poly and c.terms
                           for t in got.tables for d, c in t.items())
        assert a - a == DiffOperator.zero(model.gens, model.order)
    # (d/dq - d/dp) o (q + p) = (q + p)(d/dq - d/dp): the order-0 terms cancel
    gens = model.gens
    d = DiffOperator.first_order(gens, model.order, {"q": 1, "p": -1})
    m = DiffOperator.multiplication(Poly.var(gens, "q") + Poly.var(gens, "p"), model.order)
    got = d.compose(m)
    assert (0,) * len(gens) not in got.tables[0]
    assert_identical(got, DiffOperator(gens, model.order, got.tables), "cancelling")
    assert got.tables[0] == (m.compose(d)).tables[0]


def test_apply_sum_matches_summed_applications(model, operators):
    """apply_sum over every operator and one input, and over the operators
    and a lam-shifted input beside it, equals the Func sum of the
    applications; nonzero inputs with different envelopes raise."""
    ops = [op for _, op in operators]
    for label, f in inputs(model):
        cases = [[(op, f) for op in ops],
                 [(op, g) for op in ops for g in (f, f.shift(1), -f)]]
        for pairs in cases:
            want = pairs[0][0].apply(pairs[0][1])
            for op, g in pairs[1:]:
                want = want + op.apply(g)
            if not want.is_zero():
                assert_identical(apply_sum(pairs), want, label)
            else:
                assert apply_sum(pairs).is_zero()
    plain = Func.from_poly(Poly.var(model.gens, "q"), model.order)
    with pytest.raises(ValueError):
        apply_sum([(ops[1], plain), (ops[1], plain.with_profile({"q": 1}))])
