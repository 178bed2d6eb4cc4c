"""Small exact linear algebra helpers over GaussRational entries."""

from __future__ import annotations

from .scalars import GaussRational


def _eliminate(a, n: int) -> list:
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


def solve_linear(rows, rhs):
    """Solve A x = b exactly; A given as list of rows of GaussRational.

    Returns a solution vector if one exists (least constrained variables set
    to zero), or None if the system is inconsistent.  The system may be
    over- or under-determined.
    """
    n = len(rows[0]) if rows else 0
    a = [[GaussRational.coerce(v) for v in row] + [GaussRational.coerce(rhs[i])]
         for i, row in enumerate(rows)]
    pivots = _eliminate(a, n)
    if any(not row[n].is_zero() for row in a[len(pivots):]):
        return None
    x = [GaussRational(0)] * n
    for i, c in enumerate(pivots):
        x[c] = a[i][n]
    return x


def rank(rows) -> int:
    if not rows:
        return 0
    a = [[GaussRational.coerce(v) for v in row] for row in rows]
    return len(_eliminate(a, len(a[0])))


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
