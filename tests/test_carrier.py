import random

import numpy as np
import pytest

from jordankit import (
    CarrierInfinite,
    DerivationTable,
    EnumerationTooLarge,
    carrier_of,
    multiply,
)

import oracles
from conftest import diagonal_product_algebra


def test_carrier_lexicographic_order(kf3):
    car = carrier_of(kf3)
    assert car.size == 81
    coords = [tuple(map(int, row)) for row in car.coords]
    assert coords == sorted(coords)
    assert coords == oracles.carrier_coords(3, 4)


def test_index_roundtrip(kf3):
    car = carrier_of(kf3)
    rng = random.Random(2)
    for _ in range(20):
        i = rng.randrange(car.size)
        x = car.element_at(i)
        assert car.index_of(x) == i
    assert car.zero_index == 0
    for j in range(4):
        assert car.element_at(car.basis_index(j)) == kf3.basis_element(j)


def test_mul_table_matches_multiply(kf3):
    car = carrier_of(kf3)
    rng = random.Random(4)
    for _ in range(50):
        i, j = rng.randrange(81), rng.randrange(81)
        x, y = car.element_at(i), car.element_at(j)
        assert car.element_at(int(car.mul[i, j])) == multiply(kf3, x, y)


def test_add_table(kf3):
    car = carrier_of(kf3)
    rng = random.Random(6)
    for _ in range(50):
        i, j = rng.randrange(81), rng.randrange(81)
        assert car.element_at(int(car.add[i, j])) == car.element_at(i) + car.element_at(j)


def test_apply_matrix_and_scalar_map(kf3):
    car = carrier_of(kf3)
    f = kf3.field
    double = [[f.from_int(2) if i == j else f.zero() for j in range(4)] for i in range(4)]
    via_matrix = DerivationTable(kf3, matrix=double).index_table()
    via_scalar = car.scalar_map(f.from_int(2))
    assert np.array_equal(via_matrix, via_scalar)
    for i in (0, 1, 40, 80):
        assert car.element_at(int(via_scalar[i])) == car.element_at(i).scaled(2)


def test_rational_carrier_is_infinite(kq):
    with pytest.raises(CarrierInfinite):
        carrier_of(kq)


def test_carrier_cap(f3):
    with pytest.raises(EnumerationTooLarge):  # 3^13 elements exceed ENUMERATION_CAP
        carrier_of(diagonal_product_algebra(f3, 13))
