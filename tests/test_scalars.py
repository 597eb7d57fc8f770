import random
import time
from fractions import Fraction

import pytest

from jordankit import (
    FormatError,
    NonPrimeModulus,
    field_from_spec,
    is_torsion_free,
    prime_field,
    rational_field,
)

from conftest import INT_DIGIT_LIMIT


def test_field_make_rational():
    f = rational_field()
    assert f.kind == "rational"
    assert f.characteristic == 0


def test_field_make_prime():
    f = prime_field(3)
    assert f.kind == "prime"
    assert f.characteristic == 3


@pytest.mark.parametrize("p", [4, 1, 0, -7, 2**31 + 11, 9])
def test_field_make_rejects_bad_modulus(p):
    with pytest.raises(NonPrimeModulus):
        prime_field(p)


@pytest.mark.parametrize("p", [2**61 - 1, 2**31 + 11, 2**31])
def test_large_modulus_is_refused_before_the_primality_test(p):
    # trial division of 2^61 - 1, a prime, takes minutes
    start = time.perf_counter()
    with pytest.raises(NonPrimeModulus, match="modulus too large"):
        prime_field(p)
    assert time.perf_counter() - start < 0.5


needs_digit_limit = pytest.mark.skipif(
    INT_DIGIT_LIMIT == 0, reason="the interpreter has no integer digit limit"
)


@needs_digit_limit
@pytest.mark.parametrize("field, text", [
    (prime_field(3), "1" * (INT_DIGIT_LIMIT + 700)),
    (rational_field(), "1" * (INT_DIGIT_LIMIT + 700)),
    (rational_field(), "1/" + "1" * (INT_DIGIT_LIMIT + 700)),
])
def test_scalar_past_the_digit_limit_is_a_format_error(field, text):
    digits = sum(c.isdigit() for c in text)
    with pytest.raises(FormatError, match=f"a number of {digits} digits") as exc:
        field.parse(text)
    assert "1" * 100 not in str(exc.value)  # the message does not echo the digits


def test_field_from_spec_roundtrip():
    for f in (rational_field(), prime_field(5), prime_field(2)):
        assert field_from_spec(f.spec()) == f


def test_field_from_spec_errors():
    with pytest.raises(NonPrimeModulus):
        field_from_spec({"type": "prime", "p": 4})
    with pytest.raises(FormatError):
        field_from_spec({"type": "real"})
    with pytest.raises(FormatError):
        field_from_spec({"type": "prime"})
    with pytest.raises(FormatError):
        field_from_spec("rational")


@pytest.mark.parametrize(
    "field,k,expected",
    [
        (prime_field(3), 2, True),
        (prime_field(2), 2, False),
        (prime_field(5), 10, False),
        (prime_field(7), 6, True),
    ],
)
def test_torsion_free_prime(field, k, expected):
    assert is_torsion_free(field, k) is expected


def test_torsion_free_rationals():
    f = rational_field()
    for k in (1, 2, 3, 1000):
        assert is_torsion_free(f, k)


def test_torsion_free_rejects_nonpositive():
    with pytest.raises(ValueError):
        is_torsion_free(prime_field(3), 0)


@pytest.mark.parametrize("field", [rational_field(), prime_field(5), prime_field(97)])
def test_field_axioms_randomized(field):
    rng = random.Random(20240229)

    def sample():
        if field.characteristic == 0:
            return Fraction(rng.randint(-40, 40), rng.randint(1, 23))
        return rng.randrange(field.characteristic)

    for _ in range(200):
        a, b, c = sample(), sample(), sample()
        assert field.add(a, b) == field.add(b, a)
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
        assert field.add(a, field.neg(a)) == field.zero()
        if not field.is_zero(a):
            assert field.mul(a, field.inv(a)) == field.one()


def test_rational_text_format():
    f = rational_field()
    assert f.parse("3/6") == Fraction(1, 2)
    assert f.format(Fraction(-4, 8)) == "-1/2"
    assert f.parse("-7") == Fraction(-7)
    assert f.format(Fraction(5)) == "5"
    for bad in ("1.5", "a", "1/0/2", ""):
        with pytest.raises(FormatError):
            f.parse(bad)
    with pytest.raises(ZeroDivisionError):
        f.parse("1/0")


def test_prime_text_format():
    f = prime_field(5)
    assert f.parse("3") == 3
    assert f.parse("-1") == 4
    assert f.parse("7") == 2
    assert f.format(9) == "4"
    with pytest.raises(FormatError):
        f.parse("1/2")


def test_prime_inverse_of_zero():
    f = prime_field(7)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
