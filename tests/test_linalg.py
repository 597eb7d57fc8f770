import random
from fractions import Fraction

import pytest

from jordankit import prime_field, rational_field
from jordankit.linalg import (
    identity_matrix,
    invert,
    kernel_basis,
    mat_mul,
    mat_vec,
    rank,
    rref,
    solve_unique,
)

FIELDS = [rational_field(), prime_field(5)]


def random_matrix(field, rng, rows, cols):
    if field.characteristic == 0:
        return [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(cols)] for _ in range(rows)]
    return [[rng.randrange(field.characteristic) for _ in range(cols)] for _ in range(rows)]


def test_rref_known_case():
    f = rational_field()
    m = [[Fraction(2), Fraction(4)], [Fraction(1), Fraction(2)]]
    red, pivots = rref(f, m)
    assert pivots == [0]
    assert red[0] == [Fraction(1), Fraction(2)]
    assert red[1] == [Fraction(0), Fraction(0)]


def test_kernel_of_known_matrix():
    f = rational_field()
    m = [[Fraction(1), Fraction(2), Fraction(3)]]
    kern = kernel_basis(f, m)
    assert len(kern) == 2
    for v in kern:
        assert mat_vec(f, m, v) == [Fraction(0)]
    # reduced row-echelon rows: leading ones at the first nonzero column
    red, pivots = rref(f, kern)
    assert red[: len(kern)] == kern


@pytest.mark.parametrize("field", FIELDS)
def test_kernel_vectors_annihilate(field):
    rng = random.Random(7)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_matrix(field, rng, rows, cols)
        kern = kernel_basis(field, m)
        assert len(kern) == cols - rank(field, m)
        zero = [field.zero()] * rows
        for v in kern:
            assert mat_vec(field, m, v) == zero


@pytest.mark.parametrize("field", FIELDS)
def test_invert_random(field):
    rng = random.Random(11)
    found = 0
    while found < 10:
        m = random_matrix(field, rng, 4, 4)
        inv = invert(field, m)
        if inv is None:
            assert rank(field, m) < 4
            continue
        found += 1
        assert mat_mul(field, m, inv) == identity_matrix(field, 4)
        assert mat_mul(field, inv, m) == identity_matrix(field, 4)


def test_invert_singular_returns_none():
    f = rational_field()
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert invert(f, m) is None


@pytest.mark.parametrize("field", FIELDS)
def test_solve_unique_roundtrip(field):
    rng = random.Random(13)
    for _ in range(20):
        m = random_matrix(field, rng, 4, 4)
        if invert(field, m) is None:
            continue
        x = [field.from_int(rng.randint(-3, 3)) for _ in range(4)]
        b = mat_vec(field, m, x)
        assert solve_unique(field, m, b) == x


def test_solve_unique_inconsistent():
    f = rational_field()
    m = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)]]
    assert solve_unique(f, m, [Fraction(1), Fraction(2)]) is None


def test_solve_unique_underdetermined():
    f = rational_field()
    m = [[Fraction(1), Fraction(1)]]
    assert solve_unique(f, m, [Fraction(1)]) is None


def test_empty_matrix():
    f = rational_field()
    assert kernel_basis(f, []) == []
    assert solve_unique(f, [], []) is None
