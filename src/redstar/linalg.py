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


def is_psd_hermitian(rows) -> bool:
    """Exact PSD test for a Hermitian matrix by one Schur-complement pass.

    Each pivot is the diagonal entry of the current Schur complement: a
    negative pivot means not PSD; a zero pivot needs a zero row, since a
    PSD matrix with a zero diagonal entry vanishes on its row; a positive
    pivot is eliminated from the rows below it.
    """
    n = len(rows)
    a = [[GaussRational.coerce(v) for v in row] for row in rows]
    for i in range(n):
        for j in range(n):
            if a[i][j] != a[j][i].conj():
                return False
    for k in range(n):
        pivot = a[k][k]
        if pivot.re < 0:
            return False
        if pivot.is_zero():
            if any(not a[k][j].is_zero() for j in range(k + 1, n)):
                return False
            continue
        inv = pivot.inverse()
        for i in range(k + 1, n):
            f = a[i][k]
            if not f.is_zero():
                f = f * inv
                for j in range(k + 1, n):
                    a[i][j] = a[i][j] - f * a[k][j]
    return True
