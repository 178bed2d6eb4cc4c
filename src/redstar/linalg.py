"""Small exact linear algebra helpers over GaussRational entries.

A linear system is sparse: each unknown's column and the target are dicts
{equation key: value}, where a key is any hashable label of one scalar
equation, such as (slot, exponent tuple) for one coefficient of a list of
polynomial identities.
"""

from __future__ import annotations

from .scalars import GaussRational


def poly_equations(polys) -> dict:
    """The coefficients of a list of polynomials as {(slot, exponents): c}."""
    return {(slot, expo): c for slot, p in enumerate(polys)
            for expo, c in p.terms.items()}


def _eliminate(rows: list, n: int) -> list:
    """Gauss-Jordan elimination in place on sparse rows {column: value} with
    no zero entries, pivoting on the columns 0..n-1 in order; entries at
    columns >= n ride along.  Returns the pivot columns, pivot i sitting in
    row i."""
    pivots = []
    for c in range(n):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if c in rows[i]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        prow = rows[r] = {k: v * inv for k, v in rows[r].items()}
        for i, row in enumerate(rows):
            f = row.get(c)
            if f is None or i == r:
                continue
            for k, v in prow.items():
                x = row[k] - f * v if k in row else -(f * v)
                if x.is_zero():
                    del row[k]
                else:
                    row[k] = x
        pivots.append(c)
    return pivots


def solve_linear(columns: list, target: dict):
    """Solve sum_j x_j columns[j] = target exactly, equation by equation.

    Returns the list x if a solution exists, unknowns left free by the
    system set to zero, or None if the system is inconsistent.  The system
    may be over- or under-determined.
    """
    n = len(columns)
    rows: dict = {}
    for j, col in enumerate(columns + [target]):
        for key, v in col.items():
            v = GaussRational.coerce(v)
            if not v.is_zero():
                rows.setdefault(key, {})[j] = v
    a = list(rows.values())
    pivots = _eliminate(a, n)
    if any(a[len(pivots):]):
        return None
    x = [GaussRational(0)] * n
    for i, c in enumerate(pivots):
        x[c] = a[i].get(n, GaussRational(0))
    return x


def rank(rows) -> int:
    if not rows:
        return 0
    a = [{j: c for j, v in enumerate(row) if not (c := GaussRational.coerce(v)).is_zero()}
         for row in rows]
    return len(_eliminate(a, len(rows[0])))


def determinant(rows) -> GaussRational:
    n = len(rows)
    a = [[GaussRational.coerce(v) for v in row] for row in rows]
    det = GaussRational(1)
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if not a[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            return GaussRational(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = det * GaussRational(-1)
        det = det * a[c][c]
        inv = a[c][c].inverse()
        for i in range(c + 1, n):
            if not a[i][c].is_zero():
                f = a[i][c] * inv
                a[i] = [vi - f * vc for vi, vc in zip(a[i], a[c])]
    return det


def is_psd_hermitian(rows) -> bool:
    """Exact PSD test for a Hermitian matrix: all principal minors >= 0."""
    n = len(rows)
    a = [[GaussRational.coerce(v) for v in row] for row in rows]
    for i in range(n):
        for j in range(n):
            if a[i][j] != a[j][i].conj():
                return False
    from itertools import combinations

    for k in range(1, n + 1):
        for subset in combinations(range(n), k):
            sub = [[a[i][j] for j in subset] for i in subset]
            d = determinant(sub)
            if not d.is_real() or d.re < 0:
                return False
    return True
