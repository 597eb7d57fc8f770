"""Exact scalar arithmetic: arbitrary-precision rationals and prime fields.

Scalar values are plain Python objects (``Fraction`` for the rationals,
canonical residues ``0..p-1`` as ``int`` for a prime field); a ``Field``
bundles the arithmetic on them. Nothing here ever rounds.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import FormatError, NonPrimeModulus, ZeroDenominator, shown

MAX_PRIME = 2**31

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")
_INTEGER_RE = re.compile(r"^[+-]?\d+$")


def _exact(kind, text: str):
    """kind(text), int or Fraction, for text of digits; past the interpreter's
    integer digit limit (sys.get_int_max_str_digits) a FormatError counts them."""
    try:
        return kind(text)
    except ValueError as exc:
        digits = sum(c.isdigit() for c in text)
        msg = f"a number of {digits} digits exceeds the interpreter's integer digit limit"
        raise FormatError(msg) from exc


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class Field:
    """Common interface for an exact coefficient field."""

    kind: str
    characteristic: int

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def parse(self, text: str):
        raise NotImplementedError

    def format(self, a) -> str:
        raise NotImplementedError

    def spec(self) -> dict:
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Field) and self.spec() == other.spec()

    def __hash__(self):
        return hash(tuple(sorted(self.spec().items())))


class RationalField(Field):
    """The rationals Q with ``Fraction`` values."""

    kind = "rational"
    characteristic = 0

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n: int):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / a

    def is_zero(self, a) -> bool:
        return a == 0

    def parse(self, text: str):
        text = text.strip()
        if not _RATIONAL_RE.match(text):
            raise FormatError(f"not a rational scalar: {shown(text)}")
        try:
            return _exact(Fraction, text)
        except ZeroDivisionError as exc:
            raise ZeroDenominator(f"zero denominator in rational scalar {shown(text)}") from exc

    def format(self, a) -> str:
        return str(a)

    def spec(self) -> dict:
        return {"type": "rational"}

    def __repr__(self):
        return "RationalField()"


class PrimeField(Field):
    """The prime field F_p with residue values ``0..p-1``."""

    kind = "prime"

    def __init__(self, p: int):
        # the bound goes first: trial division of a prime near 2^61 takes minutes
        if isinstance(p, int) and p >= MAX_PRIME:
            raise NonPrimeModulus(f"modulus too large: {len(str(p))} digits >= 2^31")
        if not isinstance(p, int) or not _is_prime(p):
            raise NonPrimeModulus(f"modulus must be prime and >= 2, got {shown(p)}")
        self.p = p
        self.characteristic = p

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def parse(self, text: str):
        text = text.strip()
        if not _INTEGER_RE.match(text):
            raise FormatError(f"not a prime-field scalar: {shown(text)}")
        return _exact(int, text) % self.p

    def format(self, a) -> str:
        return str(a % self.p)

    def spec(self) -> dict:
        return {"type": "prime", "p": self.p}

    def __repr__(self):
        return f"PrimeField({self.p})"


_RATIONALS = RationalField()


def rational_field() -> RationalField:
    return _RATIONALS


def prime_field(p: int) -> PrimeField:
    return PrimeField(p)


def field_from_spec(spec: dict) -> Field:
    """Build a field from its file representation, e.g. {"type": "prime", "p": 5}."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise FormatError(f"bad field spec: {shown(spec)}")
    if spec["type"] == "rational":
        return rational_field()
    if spec["type"] == "prime":
        if "p" not in spec:
            raise FormatError("prime field spec needs 'p'")
        return prime_field(spec["p"])
    raise FormatError(f"unknown field type: {shown(spec['type'])}")


def is_torsion_free(field: Field, k: int) -> bool:
    """True iff k*x = 0 forces x = 0, i.e. the characteristic does not divide k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    c = field.characteristic
    return c == 0 or k % c != 0
