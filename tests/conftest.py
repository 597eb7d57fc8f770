import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Every run draws the same examples, so a failure, and a test's time, repeat.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

from jordankit import (
    Algebra,
    algebra_from_dict,
    jordanify,
    matrix_units_algebra,
    prime_field,
    rational_field,
)


@pytest.fixture(scope="session")
def q():
    return rational_field()


@pytest.fixture(scope="session")
def f3():
    return prime_field(3)


@pytest.fixture(scope="session")
def f5():
    return prime_field(5)


@pytest.fixture(scope="session")
def m2q(q):
    return matrix_units_algebra(q)


@pytest.fixture(scope="session")
def kq(m2q):
    return jordanify(m2q)


@pytest.fixture(scope="session")
def m2f3(f3):
    return matrix_units_algebra(f3)


@pytest.fixture(scope="session")
def kf3(m2f3):
    return jordanify(m2f3)


@pytest.fixture(scope="session")
def m2f5(f5):
    return matrix_units_algebra(f5)


@pytest.fixture(scope="session")
def kf5(m2f5):
    return jordanify(m2f5)


def diagonal_product_algebra(field, dim, name=""):
    """F x F x ... with componentwise product."""
    zero = field.zero()
    table = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        table[i][i][i] = field.one()
    return Algebra(field, tuple(f"u{i}" for i in range(dim)), table, name=name)


@pytest.fixture(scope="session")
def f3xf3(f3):
    return diagonal_product_algebra(f3, 2, name="f3xf3")


# the interpreter's limit on the digits of an int parsed from text, 0 if none
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()

# E = span(e, h, z) over F3 with e e = e and e h = h e = 2 h = h / 2, all
# other products zero. It is Jordan, and at e = (1,0,0) its Peirce
# components are J1 = <e>, Jhalf = <h> and J0 = <z>: h and z annihilate J0,
# so conditions (i), (ii) and (iii) all fail.
EHZ_F3 = {
    "field": {"type": "prime", "p": 3},
    "dim": 3,
    "basis": ["e", "h", "z"],
    "products": [
        {"i": 0, "j": 0, "k": 0, "c": "1"},
        {"i": 0, "j": 1, "k": 1, "c": "2"},
        {"i": 1, "j": 0, "k": 1, "c": "2"},
    ],
}


@pytest.fixture(scope="session")
def ehz():
    return algebra_from_dict(EHZ_F3)


def planted_peirce_violation(field):
    """Commutative dim-3 table where u in J_0 has u*u = e in J_1.

    e is idempotent with eigenvector basis (e: 1, v: 1/2, u: 0), so the
    decomposition is complete but J0*J0 <= J0 fails on (u, u).
    """
    f = field
    zero, one = f.zero(), f.one()
    half = f.inv(f.from_int(2))
    names = ("e", "v", "u")
    table = [[[zero] * 3 for _ in range(3)] for _ in range(3)]
    table[0][0][0] = one  # e*e = e
    table[0][1][1] = half  # e*v = v/2
    table[1][0][1] = half
    table[2][2][0] = one  # u*u = e  (the plant)
    return Algebra(f, names, table, name="planted")
