"""Hypothesis strategies shared by the property tests."""

import random

import numpy as np
from hypothesis import strategies as st

from jordankit import Algebra, jordanify, matrix_units_algebra, multiply, prime_field
from jordankit.linalg import invert, mat_mul


@st.composite
def f3_algebras(draw, max_dim=3, commutative=None, p=3):
    """Random structure tables over F_p (F3 by default) of dimension at most max_dim.

    commutative=None draws commutative and general tables alike.
    """
    dim = draw(st.integers(1, max_dim))
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=dim**3, max_size=dim**3))
    c = np.array(coeffs, dtype=np.int64).reshape(dim, dim, dim)
    if commutative is None:
        commutative = draw(st.booleans())
    if commutative:  # c[i][j] = c[j][i]
        upper = np.arange(dim)[:, None, None] <= np.arange(dim)[None, :, None]
        c = np.where(upper, c, c.transpose(1, 0, 2))
    return Algebra(prime_field(p), tuple(f"b{i}" for i in range(dim)), c.tolist())


def random_algebra(p, dim, seed):
    """A seeded structure table over F_p, every constant drawn uniformly:
    dense, and in general neither commutative nor associative."""
    rng = random.Random(seed)
    f = prime_field(p)
    table = [[[f.from_int(rng.randrange(p)) for _ in range(dim)] for _ in range(dim)]
             for _ in range(dim)]
    return Algebra(f, tuple(f"b{i}" for i in range(dim)), table, name=f"random_f{p}^{dim}")


def rescaled(a, scalars):
    """a in the basis s_i b_i for nonzero scalars s_i: the structure constants
    become s_i s_j c_ij^k / s_k. An element with coordinates x_k in the old
    basis has coordinates x_k / s_k in the new one."""
    f, d = a.field, a.dim
    s = [f.from_int(c) for c in scalars]
    inv = [f.inv(c) for c in s]
    table = [[[f.mul(f.mul(s[i], s[j]), f.mul(a.table[i][j][k], inv[k])) for k in range(d)]
              for j in range(d)] for i in range(d)]
    return Algebra(f, a.basis_names, table, name=f"{a.name}_rescaled")


def changed(a, P):
    """a in the basis b'_i = sum_a P_ia b_a for an invertible P: the structure
    constants become c'_ij^l = sum P_ia P_jb c_ab^k (P^-1)_kl. rescaled is the
    diagonal case. A general P also mixes basis vectors, so the carrier order
    changes."""
    f = a.field
    inverse = invert(f, [[f.from_int(c) for c in row] for row in P])
    new = [a.element(row) for row in P]
    table = [[mat_mul(f, [list(multiply(a, x, y).coords)], inverse)[0] for y in new]
             for x in new]
    return Algebra(f, a.basis_names, table, name=f"{a.name}_changed")


def t2_algebra(p):
    """T2 over F_p: the upper-triangular 2x2 matrices (basis e11, e12, e22)
    under the symmetrized product (xy + yx)/2, a Jordan algebra."""
    f = prime_field(p)
    zero, one = f.zero(), f.one()
    table = [[[zero] * 3 for _ in range(3)] for _ in range(3)]
    table[0][0][0] = one  # e11 e11 = e11
    table[0][1][1] = one  # e11 e12 = e12
    table[1][2][1] = one  # e12 e22 = e12
    table[2][2][2] = one  # e22 e22 = e22
    return jordanify(Algebra(f, ("e11", "e12", "e22"), table, name=f"t2_f{p}"))


def spin_factor(p):
    """The spin factor F u + V over F_p with V = span(v1, v2) (basis u, v1,
    v2): u is the unit and v_i v_j = delta_ij u, the Jordan algebra of the
    form with orthonormal basis v1, v2."""
    f = prime_field(p)
    zero, one = f.zero(), f.one()
    table = [[[zero] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        table[0][i][i] = table[i][0][i] = one  # u x = x u = x
    table[1][1][0] = table[2][2][0] = one  # v1 v1 = v2 v2 = u
    return Algebra(f, ("u", "v1", "v2"), table, name=f"spin_f{p}")


def m2_plus_f(p):
    """M2 + F over F_p, jordanified (basis e11, e10, e01, e00, f): the 2x2
    matrix units of matrix_units_algebra and an idempotent f orthogonal to
    them. With e = e11 the Peirce dims are (1, 2, 2)."""
    f = prime_field(p)
    zero = f.zero()
    m2 = matrix_units_algebra(f)
    table = [[[*row, zero] for row in rows] + [[zero] * 5] for rows in m2.table]
    table.append([[zero] * 5 for _ in range(4)] + [[zero] * 4 + [f.one()]])  # f f = f
    return jordanify(Algebra(f, (*m2.basis_names, "f"), table, name=f"m2+f_f{p}"))
