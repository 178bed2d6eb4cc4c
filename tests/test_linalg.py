"""Exact linear algebra: direct tests of `redstar.linalg`, and differential
tests of the sparse polynomial-identity solve against the dense construction
it replaces.

The PSD test has a reference here too: the former test of every principal
minor through a dense determinant, which the one Schur-complement pass of
`is_psd_hermitian` must agree with.

The dense reference below is the former implementation, kept here only as
the construction the sparse path must reproduce: every polynomial became a
coefficient vector over the base monomials up to the largest degree in the
system, the vectors were transposed into rows, and a Gauss-Jordan
elimination over full rows solved them.  Pivots are taken in column order and
free unknowns are set to zero, so both paths give the same reduced row
echelon form and the same solution.
"""

from fractions import Fraction
import random
from itertools import chain, combinations

import pytest

from redstar import involution, linalg, morita
from redstar.funcs import Func
from redstar.geometry import (ModelSpace, abelian_lie, aff1, gaussian_base_weight, heisenberg3,
                              monomials)
from redstar.involution import modular_inner_difference
from redstar.koszul import ReductionConfig
from redstar.linalg import is_psd_hermitian, poly_equations, rank, solve_linear
from redstar.morita import (
    VerticalOperator,
    deformation_comparison_H,
)
from redstar.poly import Poly
from redstar.scalars import GaussRational, I

G = GaussRational


# ---------------------------------------------------------------------------
# the dense reference
# ---------------------------------------------------------------------------


def dense_eliminate(a, n: int) -> list:
    """Gauss-Jordan elimination in place over the first n columns of the
    rows a; returns the pivot columns, pivot i sitting in row i."""
    m = len(a)
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        pivot = None
        for i in range(r, m):
            if not a[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = a[r][c].inverse()
        a[r] = [v * inv for v in a[r]]
        for i in range(m):
            if i != r and not a[i][c].is_zero():
                f = a[i][c]
                a[i] = [vi - f * vr for vi, vr in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return pivots


def dense_solve(rows, rhs):
    """Solve A x = b for A given as dense rows; None if inconsistent."""
    n = len(rows[0]) if rows else 0
    a = [[G.coerce(v) for v in row] + [G.coerce(rhs[i])] for i, row in enumerate(rows)]
    pivots = dense_eliminate(a, n)
    if any(not row[n].is_zero() for row in a[len(pivots):]):
        return None
    x = [G(0)] * n
    for i, c in enumerate(pivots):
        x[c] = a[i][n]
    return x


def poly_vector(model, p: Poly, cap: int):
    """Coefficient vector of a base polynomial over monomials of degree <= cap."""
    basis = monomials(model.base_names, cap)
    base_idx = [p.gens.index(n) for n in model.base_names]
    vec = {e: G(0) for e in basis}
    for expo, c in p.terms.items():
        key = tuple(expo[i] for i in base_idx)
        if key not in vec:
            raise ValueError("polynomial exceeds the comparison cap")
        vec[key] = vec[key] + c
    return [vec[e] for e in basis]


def dense_poly_solve(model, column_polys, target_polys):
    """The former solve of a polynomial identity: one dense coefficient vector
    per polynomial over the degree window of the whole system."""
    window = max((p.total_degree() for p in chain(target_polys, *column_polys)),
                 default=0)
    columns = [[x for p in polys for x in poly_vector(model, p, window)]
               for polys in column_polys]
    rhs = [x for p in target_polys for x in poly_vector(model, p, window)]
    rows = [[col[k] for col in columns] for k in range(len(rhs))]
    return dense_solve(rows, rhs)


def determinant(rows) -> G:
    n = len(rows)
    a = [[G.coerce(v) for v in row] for row in rows]
    det = G(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if not a[i][c].is_zero()), None)
        if pivot is None:
            return G(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = det * G(-1)
        det = det * a[c][c]
        inv = a[c][c].inverse()
        for i in range(c + 1, n):
            if not a[i][c].is_zero():
                f = a[i][c] * inv
                a[i] = [vi - f * vc for vi, vc in zip(a[i], a[c])]
    return det


def minors_psd_hermitian(rows) -> bool:
    """The former PSD test: Hermitian and every principal minor >= 0."""
    n = len(rows)
    a = [[G.coerce(v) for v in row] for row in rows]
    if any(a[i][j] != a[j][i].conj() for i in range(n) for j in range(n)):
        return False
    for k in range(1, n + 1):
        for subset in combinations(range(n), k):
            d = determinant([[a[i][j] for j in subset] for i in subset])
            if not d.is_real() or d.re < 0:
                return False
    return True


# ---------------------------------------------------------------------------
# direct tests
# ---------------------------------------------------------------------------


def _system(rows, rhs):
    """The columns and target of the scalar system rows . x = rhs."""
    columns = [{i: row[j] for i, row in enumerate(rows)} for j in range(len(rows[0]))]
    return columns, dict(enumerate(rhs))


class TestSolveLinear:
    def test_unique(self):
        assert solve_linear(*_system([[1, 1], [1, -1]], [3, 1])) == [G(2), G(1)]

    def test_complex_coefficient(self):
        assert solve_linear([{0: I}], {0: 1}) == [G(0, -1)]

    def test_underdetermined_free_unknowns_are_zero(self):
        # x + y = 1, z = 5: y is free and comes back 0.
        sol = solve_linear(*_system([[1, 1, 0], [0, 0, 1]], [1, 5]))
        assert sol == [G(1), G(0), G(5)]

    def test_overdetermined_consistent(self):
        sol = solve_linear(*_system([[1, 0], [0, 1], [1, 1], [2, -1]], [2, 3, 5, 1]))
        assert sol == [G(2), G(3)]

    def test_inconsistent(self):
        assert solve_linear(*_system([[1, 1], [2, 2]], [1, 3])) is None
        assert solve_linear([{0: 1}], {0: 1, 1: 1}) is None

    def test_empty_systems(self):
        assert solve_linear([], {}) == []
        assert solve_linear([], {0: 1}) is None
        assert solve_linear([{}, {0: 0}], {}) == [G(0), G(0)]


def test_rank_deficient():
    assert rank([[1, 2, 3], [2, 4, 6], [1, 0, 1]]) == 2
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([]) == 0


def test_determinant_sign_under_row_swap():
    a = [[1, 2], [3, 4]]
    assert determinant(a) == G(-2)
    assert determinant(a[::-1]) == G(2)
    assert determinant([[0, 1], [1, 0]]) == G(-1)
    assert determinant([[1, 2], [2, 4]]) == G(0)


def test_is_psd_hermitian():
    assert is_psd_hermitian([[1, 1], [1, 1]])            # singular PSD
    assert is_psd_hermitian([[2, I], [-I, 2]])
    assert not is_psd_hermitian([[1, 2], [2, 1]])        # a negative minor
    assert not is_psd_hermitian([[1, 0], [0, -1]])
    assert not is_psd_hermitian([[1, 1], [0, 1]])        # not Hermitian
    assert not is_psd_hermitian([[1, I], [I, 1]])
    assert is_psd_hermitian([[0, 0], [0, 3]])            # zero pivot, zero row
    assert not is_psd_hermitian([[0, 1], [1, 3]])        # zero pivot, nonzero row
    assert not is_psd_hermitian([[1, 1, 0], [1, 1, 1], [0, 1, 1]])  # zero Schur pivot
    assert is_psd_hermitian([])


def random_hermitian(rng, n):
    """A random Hermitian matrix: PSD as B B^* for a random B of random
    rank, or with free small entries, which are often indefinite."""
    def entry():
        return G(rng.randint(-2, 2), rng.randint(-1, 1))
    if rng.random() < 0.5:
        r = rng.randint(0, n)
        b = [[entry() for _ in range(r)] for _ in range(n)]
        return [[sum((b[i][k] * b[j][k].conj() for k in range(r)), G(0))
                 for j in range(n)] for i in range(n)]
    a = [[None] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = G(rng.randint(-1, 3))
        for j in range(i + 1, n):
            a[i][j] = entry()
            a[j][i] = a[i][j].conj()
    return a


def test_schur_psd_matches_principal_minors():
    rng = random.Random(83)
    verdicts = []
    for _ in range(800):
        a = random_hermitian(rng, rng.randint(1, 4))
        verdicts.append(is_psd_hermitian(a))
        assert verdicts[-1] == minors_psd_hermitian(a), a
    assert 200 < sum(verdicts) < 600  # both verdicts well represented


# ---------------------------------------------------------------------------
# the sparse path against the dense reference
# ---------------------------------------------------------------------------


@pytest.fixture
def recorded(monkeypatch):
    """Every system the involution and Morita layers hand to solve_linear, as
    (column polynomials, target polynomials, solution); each of them is
    built by poly_equations."""
    polys_of = {}   # id(equations) -> (equations, polys); holding keeps ids unique
    systems = []

    def recording_poly_equations(polys):
        polys = list(polys)
        eqs = linalg.poly_equations(polys)
        polys_of[id(eqs)] = (eqs, polys)
        return eqs

    def polys(eqs):
        return polys_of[id(eqs)][1]

    def recording_solve_linear(columns, target):
        sol = linalg.solve_linear(columns, target)
        systems.append(([polys(c) for c in columns], polys(target), sol))
        return sol

    for mod in (involution, morita):
        monkeypatch.setattr(mod, "poly_equations", recording_poly_equations)
        monkeypatch.setattr(mod, "solve_linear", recording_solve_linear)
    return systems


def _assert_matches_dense(model, systems):
    assert systems
    for column_polys, target_polys, sol in systems:
        assert dense_poly_solve(model, column_polys, target_polys) == sol


@pytest.mark.parametrize("lie", [abelian_lie(1), aff1()], ids=["abelian", "aff1"])
def test_modular_inner_difference_matches_dense(recorded, lie):
    m = ModelSpace(lie, base_dim=2, order=3)
    gauss = gaussian_base_weight(m, 1)
    rho = m.one() + Func((m.var("q") * m.var("q")).series.shift(1))
    assert modular_inner_difference(m, gauss, gauss * rho, cap=1)["inner"]
    _assert_matches_dense(m, recorded)


@pytest.mark.parametrize("lie", [abelian_lie(1), heisenberg3()], ids=["abelian", "heis3"])
def test_comparison_H_matches_dense(recorded, lie):
    m = ModelSpace(lie, base_dim=2, order=3)
    cfg = ReductionConfig(m, Fraction(1, 2))
    l0 = VerticalOperator.fundamental(m, 0)
    pert = VerticalOperator.identity(m) + l0.compose(l0).lam_shift(1)
    h = deformation_comparison_H(cfg, pert.apply, g_cap=1, word_cap=2, probe_cap=2)
    assert (h - pert).is_zero()
    with pytest.raises(ValueError):
        deformation_comparison_H(cfg, pert.apply, g_cap=0, word_cap=1, probe_cap=1)
    assert recorded[-1][-1] is None
    _assert_matches_dense(m, recorded)


class TestHandBuiltPolySystems:
    @pytest.fixture(autouse=True)
    def _model(self, model_r):
        self.m = model_r
        self.q, self.p = (model_r.var(n).series.coeffs[0] for n in ("q", "p"))

    def both(self, column_polys, target_polys):
        sol = solve_linear([poly_equations(c) for c in column_polys],
                           poly_equations(target_polys))
        assert sol == dense_poly_solve(self.m, column_polys, target_polys)
        return sol

    def test_inconsistent(self):
        assert self.both([[self.q]], [self.p]) is None

    def test_underdetermined(self):
        q, p = self.q, self.p
        assert self.both([[q], [q], [p]], [q * 2 + p]) == [G(2), G(0), G(1)]

    def test_all_zero_column(self):
        zero = Poly.zero(self.m.gens)
        assert self.both([[zero], [self.q]], [self.q * 3]) == [G(0), G(3)]

    def test_empty_target(self):
        zero = Poly.zero(self.m.gens)
        assert self.both([[self.q], [self.p]], [zero]) == [G(0), G(0)]

    def test_slots_stay_apart(self):
        q, zero = self.q, Poly.zero(self.m.gens)
        assert self.both([[q, zero], [zero, q]], [q, q * 2]) == [G(1), G(2)]

    def test_fiber_terms_stay_apart_from_base_terms(self):
        # q*g and q are different equations; the dense vectors keyed terms by
        # their base exponents only and summed the two into one entry.
        q, g, J = (self.m.var(n).series.coeffs[0] for n in ("q", "g", "J"))
        for fiber in (g, J):
            assert solve_linear([poly_equations([q * fiber])], poly_equations([q])) is None
            assert dense_poly_solve(self.m, [[q * fiber]], [q]) == [G(1)]
            sol = solve_linear([poly_equations([q * fiber]), poly_equations([q])],
                               poly_equations([q + q * fiber * 2]))
            assert sol == [G(2), G(1)]
