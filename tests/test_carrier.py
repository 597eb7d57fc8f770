import random
import tracemalloc

import numpy as np
import pytest

from jordankit import (
    Algebra,
    CarrierInfinite,
    DerivationTable,
    EnumerationTooLarge,
    MapTable,
    carrier_of,
    multiply,
    prime_field,
)
from jordankit.carrier import FiniteCarrier, index_dtype

import oracles
from conftest import diagonal_product_algebra
from strategies import m2_plus_f, random_algebra


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


def zero_algebra(field, dim):
    zero = field.zero()
    table = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    return Algebra(field, tuple(f"z{i}" for i in range(dim)), table)


@pytest.mark.parametrize(
    "which", ["m2f3", "kf3", "f3xf3", "f5-dim1", "f3-zero3", "m2f5", "f7-random3"])
def test_every_table_entry_matches_the_oracle(request, which):
    # m2f3, m2f5 and f7-random3 are noncommutative, so a table holding y x
    # for x y fails here; the last two have uint16 tables (625 and 343
    # elements), where a digit-order error past index 255 would show
    a = {
        "f5-dim1": lambda: diagonal_product_algebra(prime_field(5), 1),
        "f3-zero3": lambda: zero_algebra(prime_field(3), 3),
        "f7-random3": lambda: random_algebra(7, 3, seed=7),
    }.get(which, lambda: request.getfixturevalue(which))()
    car = carrier_of(a)
    p = car.p
    coords = oracles.carrier_coords(p, a.dim)
    index = {c: i for i, c in enumerate(coords)}
    want_mul = [[index[tuple(int(c) % p for c in oracles.raw_multiply(a, x, y))] for y in coords]
                for x in coords]
    want_add = [[index[tuple((s + t) % p for s, t in zip(x, y))] for y in coords] for x in coords]
    for table, want in ((car.mul, want_mul), (car.add, want_add)):
        assert table.dtype == index_dtype(car.size) and table.flags.c_contiguous
        assert table.tolist() == want


@pytest.mark.parametrize("size, dtype", [
    (1, np.uint8), (243, np.uint8), (256, np.uint8), (257, np.uint16), (625, np.uint16),
    (4096, np.uint16), (65536, np.uint16), (65537, np.uint32), (3**11, np.uint32),
])
def test_index_dtype_is_the_narrowest_unsigned_type(size, dtype):
    assert index_dtype(size) == dtype


@pytest.mark.parametrize("which, dtype", [
    ("m2+f-f3", np.uint8), ("f2-dim8", np.uint8), ("kf5", np.uint16), ("f2-zero12", np.uint16),
])
def test_tables_are_stored_in_the_index_dtype(request, which, dtype):
    a = {  # 243, 256, 625 and 4096 elements
        "m2+f-f3": lambda: m2_plus_f(3),
        "f2-dim8": lambda: diagonal_product_algebra(prime_field(2), 8),
        "f2-zero12": lambda: zero_algebra(prime_field(2), 12),
    }.get(which, lambda: request.getfixturevalue(which))()
    car = carrier_of(a)
    reverse = np.arange(car.size)[::-1]
    m = MapTable(a, a, table=reverse)
    assert m.index_table().dtype == dtype and m.index_table().tolist() == reverse.tolist()
    assert car.mul.dtype == car.add.dtype == dtype
    assert car.add[car.size - 1, 0] == car.size - 1


def test_tables_at_the_pair_table_cap():
    # a dense random algebra over F2 with dim 12 (N = 4096): the zero
    # algebra cannot catch a wrong product
    a = random_algebra(2, 12, seed=12)
    car = carrier_of(a)
    assert car.mul.shape == car.add.shape == (4096, 4096)
    assert car.mul.dtype == car.add.dtype == np.uint16
    rng = random.Random(12)
    for _ in range(2000):
        i, j = rng.randrange(car.size), rng.randrange(car.size)
        x, y = car.coords[i].tolist(), car.coords[j].tolist()
        assert car.coords[car.mul[i, j]].tolist() == [c % 2 for c in oracles.raw_multiply(a, x, y)]
        assert car.coords[car.add[i, j]].tolist() == [(s + t) % 2 for s, t in zip(x, y)]


def test_f2_tables_at_the_uint8_limit():
    # F2^8 with the componentwise product: the bits of an index are its
    # coordinates, so sums are x ^ y and products x & y, up to index 255
    car = carrier_of(diagonal_product_algebra(prime_field(2), 8))
    x, y = np.indices((256, 256))
    assert np.array_equal(car.add, x ^ y) and np.array_equal(car.mul, x & y)


def test_map_into_a_carrier_past_the_pair_tables():
    # 3^11 indices need uint32; a function table into that carrier builds no pair table
    big = zero_algebra(prime_field(3), 11)
    m = MapTable(diagonal_product_algebra(prime_field(3), 1), big, table=[0, 1, 3**11 - 1])
    assert m.index_table().dtype == np.uint32 and m.index_table()[-1] == 3**11 - 1
    car = carrier_of(big)
    with pytest.raises(EnumerationTooLarge):
        car.mul
    assert "mul" not in vars(car) and "add" not in vars(car)


def test_table_build_peak_memory(kf5):
    # both tables and at most two N x N temporaries; an N x N x dim array would break it
    car = FiniteCarrier(kf5)
    tracemalloc.start()
    try:
        car.mul, car.add
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * car.size**2 * 8


def test_product_build_peak_memory(kf5):
    # with the sums built, the products need less than one N x N int64 array
    car = FiniteCarrier(kf5)
    car.add
    tracemalloc.start()
    try:
        car.mul
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < car.size**2 * 8


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
