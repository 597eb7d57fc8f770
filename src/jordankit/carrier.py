"""Finite carriers of algebras over prime fields.

Enumerates all p^dim elements in lexicographic coordinate order, which
fixes the deterministic scan order used for witnesses everywhere, and
builds N x N index tables (sums, products) so exhaustive predicates run
as vectorized gathers. No build makes an N x N x dim array or an N x N
int64 one. Sums carry nothing between digits, so the sum table nests dim
copies of F_p's p x p one. Products are bilinear, so the product table is
built from the sum table one leading coordinate at a time: for
x = a e_i + r, with r in the span of the later coordinates, the row of x
is add[a (e_i y), r y], a flat gather through add of an already built row.

Every index table, these and the maps module's function tables, holds
its indices in index_dtype(N), the narrowest unsigned type for N
elements: uint8 up to 256, uint16 up to 65 536 (both K/F5 tables take
1.56 MB, not the 6.25 MB of int64), uint32 above. Index arithmetic
x * N + y on a stored table is done in intp by maps._table_op.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .algebra import Algebra, Element, check_enumerable
from .errors import CarrierInfinite, EnumerationTooLarge

PAIR_TABLE_CAP = 25_000_000  # entries per N x N table


def index_dtype(size: int) -> np.dtype:
    """The narrowest unsigned dtype that holds every index of a size-element carrier."""
    return np.min_scalar_type(size - 1)


class FiniteCarrier:
    """All elements of an algebra over F_p, indexed lexicographically."""

    def __init__(self, algebra: Algebra):
        p = algebra.field.characteristic
        if p == 0:
            raise CarrierInfinite("algebras over the rationals have no finite carrier")
        d = algebra.dim
        check_enumerable(p, d)
        self.algebra = algebra
        self.p, self.dim, self.size = p, d, p**d
        self.powers = p ** np.arange(d - 1, -1, -1, dtype=np.int64)
        self.coords = np.indices((p,) * d, dtype=np.int64).reshape(d, -1).T.copy()

    def encode(self, coords_array: np.ndarray) -> np.ndarray:
        return (np.asarray(coords_array, dtype=np.int64) % self.p) @ self.powers

    def index_of(self, x: Element) -> int:
        return int(sum(int(c) * int(w) for c, w in zip(x.coords, self.powers)))

    def element_at(self, idx: int) -> Element:
        return Element(self.algebra, tuple(int(c) for c in self.coords[idx]))

    def basis_index(self, i: int) -> int:
        return int(self.powers[i])

    @property
    def zero_index(self) -> int:
        return 0

    # -- index tables ------------------------------------------------------

    def _require_pair_tables(self):
        if self.size * self.size > PAIR_TABLE_CAP:
            raise EnumerationTooLarge(f"pairwise tables need {self.size}^2 entries, "
                                      f"beyond {PAIR_TABLE_CAP}")

    @cached_property
    def mul(self) -> np.ndarray:
        """N x N table of product indices."""
        self._require_pair_tables()
        p, n, t = self.p, self.size, np.array(self.algebra.table, dtype=np.int64)
        scaled = np.stack([self.scalar_map(a) for a in range(p)]) * n  # a x, as a row of flat add
        table = np.zeros((1, n), dtype=index_dtype(n))  # the row of 0
        for i in reversed(range(self.dim)):  # prepend coordinate i, the most significant
            lead = scaled[:, self.encode(self.coords @ t[i])]  # a (e_i y), one row per a
            m = len(table)
            rows = np.empty((p * m, n), dtype=table.dtype)
            for a in range(p):  # (a e_i + r) y = a (e_i y) + r y
                # every index is below N^2; unlike "raise", "clip" writes out unbuffered
                self.add.take(lead[a] + table, out=rows[a * m:(a + 1) * m], mode="clip")
            table = rows
        return table

    @cached_property
    def add(self) -> np.ndarray:
        """N x N table of sum indices."""
        self._require_pair_tables()
        dtype = index_dtype(self.size)
        p, table = self.p, np.zeros((1, 1), dtype=dtype)
        digit = (np.add.outer(np.arange(p), np.arange(p)) % p).astype(dtype)
        for _ in range(self.dim):  # prepend one digit, the most significant
            n = len(table)
            lead = digit * dtype.type(n)  # below N, as is lead + table
            table = (lead[:, None, :, None] + table[None, :, None, :]).reshape(n * p, n * p)
        return table

    def scalar_map(self, c) -> np.ndarray:
        """Index image of scalar multiplication by c."""
        return self.encode(self.coords * int(c))


def carrier_of(a: Algebra) -> FiniteCarrier:
    """The finite carrier of an algebra over a prime field, built once and cached."""
    if a._carrier is None:
        a._carrier = FiniteCarrier(a)
    return a._carrier
