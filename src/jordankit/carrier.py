"""Finite carriers of algebras over prime fields.

Enumerates all p^dim elements in lexicographic coordinate order and
builds integer index tables (sums, products) so exhaustive
predicates can run as vectorized gathers instead of per-element loops.
Index order equals lexicographic coordinate order, which fixes the
deterministic scan order used for witnesses everywhere.
"""

from __future__ import annotations

import numpy as np

from .algebra import Algebra, Element, check_enumerable
from .errors import CarrierInfinite, EnumerationTooLarge

PAIR_TABLE_CAP = 25_000_000  # entries per N x N table


class FiniteCarrier:
    """All elements of an algebra over F_p, indexed lexicographically."""

    def __init__(self, algebra: Algebra):
        p = algebra.field.characteristic
        if p == 0:
            raise CarrierInfinite("algebras over the rationals have no finite carrier")
        d = algebra.dim
        check_enumerable(p, d)
        self.algebra = algebra
        self.p = p
        self.dim = d
        self.size = p**d
        self.powers = p ** np.arange(d - 1, -1, -1, dtype=np.int64)
        grid = np.indices((p,) * d).reshape(d, -1).T
        self.coords = np.ascontiguousarray(grid, dtype=np.int64)
        self._mul = None
        self._add = None

    # -- element <-> index ------------------------------------------------

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
            raise EnumerationTooLarge(
                f"pairwise tables need {self.size}^2 entries, beyond {PAIR_TABLE_CAP}"
            )

    @property
    def mul(self) -> np.ndarray:
        """N x N table of product indices."""
        if self._mul is None:
            self._require_pair_tables()
            t = np.array(self.algebra.table, dtype=np.int64)
            part = np.tensordot(self.coords, t, axes=([1], [1])) % self.p  # [y, i, k]
            prod = np.einsum("xi,yik->xyk", self.coords, part) % self.p
            self._mul = (prod @ self.powers).astype(np.int64)
        return self._mul

    @property
    def add(self) -> np.ndarray:
        """N x N table of sum indices."""
        if self._add is None:
            self._require_pair_tables()
            sums = (self.coords[:, None, :] + self.coords[None, :, :]) % self.p
            self._add = (sums @ self.powers).astype(np.int64)
        return self._add

    # -- derived views -----------------------------------------------------

    def scalar_map(self, c) -> np.ndarray:
        """Index image of scalar multiplication by c."""
        return self.encode(self.coords * int(c))


def carrier_of(a: Algebra) -> FiniteCarrier:
    """The finite carrier of an algebra over a prime field, built once and cached."""
    if a._carrier is None:
        a._carrier = FiniteCarrier(a)
    return a._carrier
