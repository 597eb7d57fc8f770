"""Exact dense linear algebra over a scalar field.

Matrices are lists of row lists holding field values. All routines use
exact Gaussian elimination; verdicts (rank, kernel membership) are never
approximate. Kernel and eigenspace bases are returned in reduced
row-echelon form so identical inputs give identical bases.
"""

from __future__ import annotations

from .scalars import Field


def zeros(f: Field, rows: int, cols: int) -> list[list]:
    z = f.zero()
    return [[z] * cols for _ in range(rows)]


def identity_matrix(f: Field, n: int) -> list[list]:
    m = zeros(f, n, n)
    for i in range(n):
        m[i][i] = f.one()
    return m


def mat_copy(m: list[list]) -> list[list]:
    return [row[:] for row in m]


def mat_add(f: Field, a: list[list], b: list[list]) -> list[list]:
    return [[f.add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(f: Field, a: list[list], b: list[list]) -> list[list]:
    return [[f.sub(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_mul(f: Field, a: list[list], b: list[list]) -> list[list]:
    n, k = len(a), len(b)
    cols = len(b[0]) if b else 0
    out = zeros(f, n, cols)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if f.is_zero(c):
                continue
            bt = b[t]
            for j in range(cols):
                oi[j] = f.add(oi[j], f.mul(c, bt[j]))
    return out


def mat_vec(f: Field, a: list[list], v: list) -> list:
    out = []
    for row in a:
        s = f.zero()
        for c, x in zip(row, v):
            if not f.is_zero(c):
                s = f.add(s, f.mul(c, x))
        out.append(s)
    return out


def rref(f: Field, m: list[list]) -> tuple[list[list], list[int]]:
    """Reduce to reduced row-echelon form; returns (rref, pivot columns)."""
    m = mat_copy(m)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if not f.is_zero(m[i][c]):
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = f.inv(m[r][c])
        m[r] = [f.mul(inv, x) for x in m[r]]
        for i in range(rows):
            if i != r and not f.is_zero(m[i][c]):
                factor = m[i][c]
                m[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(f: Field, m: list[list]) -> int:
    return len(rref(f, m)[1])


def kernel_basis(f: Field, m: list[list]) -> list[list]:
    """Basis of the right null space, as rows in reduced row-echelon form."""
    if not m:
        return []
    cols = len(m[0])
    red, pivots = rref(f, m)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    vectors = []
    for fc in free:
        v = [f.zero()] * cols
        v[fc] = f.one()
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(red[r][fc])
        vectors.append(v)
    canon, _ = rref(f, vectors)
    return canon[: len(vectors)]


def invert(f: Field, m: list[list]) -> list[list] | None:
    """Exact inverse of a square matrix, or None if singular."""
    n = len(m)
    aug = [row[:] + ident_row for row, ident_row in zip(mat_copy(m), identity_matrix(f, n))]
    red, pivots = rref(f, aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red]


def solve_unique(f: Field, a: list[list], b: list) -> list | None:
    """The unique solution of a x = b, or None if none exists or not unique."""
    if not a:
        return None
    cols = len(a[0])
    aug = [row[:] + [bv] for row, bv in zip(a, b)]
    red, pivots = rref(f, aug)
    if cols in pivots:
        return None  # inconsistent
    if len(pivots) < cols:
        return None  # underdetermined
    x = [f.zero()] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x

