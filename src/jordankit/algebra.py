"""Structure-constant algebras, element arithmetic, and ring identities.

An algebra is a dense d x d x d tensor of structure constants over an
exact field; products of elements are the bilinear extension of the
basis table. Includes the basic identities (associator, commutator,
flexible and Jordan laws), nonassociative monomial trees, multiplication
operators, and the matrix-unit example constructors.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field as dataclass_field

from .errors import (
    AlgebraMismatch,
    ArityMismatch,
    CharacteristicUnsupported,
    EnumerationTooLarge,
    FormatError,
)
from .linalg import solve_unique
from .scalars import Field, field_from_spec

# The most elements (p**dim) that any exhaustive enumeration walks.
ENUMERATION_CAP = 10**6


def check_enumerable(p: int, d: int, cap: int = ENUMERATION_CAP) -> None:
    """Raise EnumerationTooLarge when a carrier of p**d elements exceeds cap."""
    if p**d > cap:
        raise EnumerationTooLarge(f"carrier size {p}^{d} exceeds cap {cap}")


class Algebra:
    """Finite-dimensional algebra given by structure constants.

    ``table[i][j][k]`` is the coefficient of basis_k in basis_i * basis_j.
    Immutable after construction.
    """

    def __init__(self, field: Field, basis_names, table, name: str = ""):
        basis_names = tuple(basis_names)
        d = len(basis_names)
        if d == 0:
            raise FormatError("algebra dimension must be positive")
        if len(set(basis_names)) != d:
            raise FormatError("basis names must be distinct")
        if len(table) != d or any(len(row) != d for row in table) or any(
            len(cell) != d for row in table for cell in row
        ):
            raise FormatError("structure-constant table must be dim^3")
        self.field = field
        self.name = name
        self.basis_names = basis_names
        self.table = tuple(tuple(tuple(cell) for cell in row) for row in table)
        # sparse view of each basis product, for the multiply inner loop
        self._products = tuple(
            tuple(
                tuple((k, c) for k, c in enumerate(cell) if not field.is_zero(c))
                for cell in row
            )
            for row in self.table
        )
        self._carrier = None

    @property
    def dim(self) -> int:
        return len(self.basis_names)

    def element(self, coords) -> "Element":
        vals = []
        for c in coords:
            if isinstance(c, str):
                c = self.field.parse(c)
            elif isinstance(c, int):
                c = self.field.from_int(c)
            vals.append(c)
        if len(vals) != self.dim:
            raise FormatError(f"expected {self.dim} coordinates, got {len(vals)}")
        return Element(self, tuple(vals))

    def parse_element(self, text: str) -> "Element":
        return self.element([p for p in text.split(",")])

    def basis_element(self, i: int) -> "Element":
        coords = [self.field.zero()] * self.dim
        coords[i] = self.field.one()
        return Element(self, tuple(coords))

    def basis_elements(self) -> list["Element"]:
        return [self.basis_element(i) for i in range(self.dim)]

    def zero(self) -> "Element":
        return Element(self, tuple([self.field.zero()] * self.dim))

    def __repr__(self):
        label = self.name or "algebra"
        return f"<Algebra {label} dim={self.dim} over {self.field!r}>"


class Element:
    """An algebra element as an exact coordinate vector."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: Algebra, coords: tuple):
        self.algebra = algebra
        self.coords = coords

    def _check(self, other: "Element"):
        if not isinstance(other, Element):
            raise TypeError(f"expected Element, got {type(other).__name__}")
        if other.algebra is not self.algebra:
            raise AlgebraMismatch("elements belong to different algebras")

    def __add__(self, other):
        self._check(other)
        f = self.algebra.field
        return Element(self.algebra, tuple(f.add(a, b) for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        f = self.algebra.field
        return Element(self.algebra, tuple(f.sub(a, b) for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        f = self.algebra.field
        return Element(self.algebra, tuple(f.neg(a) for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, Element):
            return multiply(self.algebra, self, other)
        return self.scaled(other)

    def __rmul__(self, other):
        return self.scaled(other)

    def scaled(self, c) -> "Element":
        f = self.algebra.field
        if isinstance(c, int):
            c = f.from_int(c)
        return Element(self.algebra, tuple(f.mul(c, a) for a in self.coords))

    def is_zero(self) -> bool:
        f = self.algebra.field
        return all(f.is_zero(a) for a in self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and other.algebra is self.algebra
            and other.coords == self.coords
        )

    def __hash__(self):
        return hash(self.coords)

    def text(self) -> str:
        f = self.algebra.field
        return ",".join(f.format(c) for c in self.coords)

    def __repr__(self):
        return f"({self.text()})"


def multiply(a: Algebra, x: Element, y: Element) -> Element:
    """Product of two elements: the bilinear extension of the basis table."""
    if x.algebra is not a or y.algebra is not a:
        raise AlgebraMismatch("elements belong to a different algebra")
    f = a.field
    out = [f.zero()] * a.dim
    products = a._products
    for i, xi in enumerate(x.coords):
        if f.is_zero(xi):
            continue
        row = products[i]
        for j, yj in enumerate(y.coords):
            if f.is_zero(yj):
                continue
            c = f.mul(xi, yj)
            for k, t in row[j]:
                out[k] = f.add(out[k], f.mul(c, t))
    return Element(a, tuple(out))


def associator(a: Algebra, x: Element, y: Element, z: Element) -> Element:
    """(x, y, z) = (xy)z - x(yz)."""
    return multiply(a, multiply(a, x, y), z) - multiply(a, x, multiply(a, y, z))


def commutator(a: Algebra, x: Element, y: Element) -> Element:
    """[x, y] = xy - yx."""
    return multiply(a, x, y) - multiply(a, y, x)


def noncommuting_pair(a: Algebra) -> tuple[Element, Element] | None:
    """The first basis pair (b_i, b_j), i < j, with b_i b_j != b_j b_i, or None."""
    basis = a.basis_elements()
    for x, y in itertools.combinations(basis, 2):
        if not commutator(a, x, y).is_zero():
            return x, y
    return None


# ---------------------------------------------------------------------------
# nonassociative monomials


class MonomialTree:
    """Shape of a nonassociative monomial: a binary tree over variable slots."""

    __slots__ = ()

    @property
    def slots(self) -> tuple[int, ...]:
        """The slot of every leaf, left to right; a slot may repeat."""
        raise NotImplementedError

    @property
    def degree(self) -> int:
        return len(self.slots)


@dataclass(frozen=True)
class Leaf(MonomialTree):
    slot: int

    @property
    def slots(self) -> tuple[int, ...]:
        return (self.slot,)

    def __repr__(self):
        return f"x{self.slot}"


@dataclass(frozen=True)
class Node(MonomialTree):
    left: MonomialTree
    right: MonomialTree

    @property
    def slots(self) -> tuple[int, ...]:
        return self.left.slots + self.right.slots

    def __repr__(self):
        return f"({self.left!r} {self.right!r})"


def canonical_tree(n: int) -> MonomialTree:
    """The right-nested monomial x1(x2(...(x_{n-1} x_n)...))."""
    if n < 1:
        raise ArityMismatch(f"degree must be >= 1, got {n}")
    tree: MonomialTree = Leaf(n)
    for slot in range(n - 1, 0, -1):
        tree = Node(Leaf(slot), tree)
    return tree


def all_trees(n: int, _start: int = 1):
    """All monomial shapes of degree n, slots numbered left to right."""
    if n < 1:
        raise ArityMismatch(f"degree must be >= 1, got {n}")
    if n == 1:
        yield Leaf(_start)
        return
    for i in range(1, n):
        for left in all_trees(i, _start):
            for right in all_trees(n - i, _start + i):
                yield Node(left, right)


def monomial_eval(a: Algebra, tree: MonomialTree, args) -> Element:
    """Evaluate a monomial tree on the given arguments, one per distinct slot."""
    args = list(args)
    arity = len(set(tree.slots))
    if len(args) != arity:
        raise ArityMismatch(f"tree with {arity} slots got {len(args)} arguments")
    for x in args:
        if x.algebra is not a:
            raise AlgebraMismatch("argument belongs to a different algebra")

    def go(t: MonomialTree) -> Element:
        if isinstance(t, Leaf):
            return args[t.slot - 1]
        return multiply(a, go(t.left), go(t.right))

    return go(tree)


def xi_eval(a: Algebra, z: Element, i: int, args) -> Element:
    """Canonical right-nested monomial with the first i slots set to z."""
    args = list(args)
    if i < 1 or i + len(args) < 2:
        raise ArityMismatch(f"need i >= 1 and total degree >= 2, got i={i}, args={len(args)}")
    seq = [z] * i + args
    acc = seq[-1]
    for s in reversed(seq[:-1]):
        acc = multiply(a, s, acc)
    return acc


# ---------------------------------------------------------------------------
# multiplication operators


@dataclass
class MultOperator:
    """Matrix of left or right multiplication by a fixed element."""

    matrix: list
    side: str  # "left" | "right"
    generator: Element

    def apply(self, x: Element) -> Element:
        a = self.generator.algebra
        if x.algebra is not a:
            raise AlgebraMismatch("element belongs to a different algebra")
        f = a.field
        out = []
        for row in self.matrix:
            s = f.zero()
            for c, v in zip(row, x.coords):
                s = f.add(s, f.mul(c, v))
            out.append(s)
        return Element(a, tuple(out))


def mult_operators(a: Algebra, x: Element) -> tuple[MultOperator, MultOperator]:
    """Left and right multiplication matrices of x (columns are x*b_j, b_j*x)."""
    if x.algebra is not a:
        raise AlgebraMismatch("element belongs to a different algebra")
    d = a.dim
    left_cols = [multiply(a, x, a.basis_element(j)).coords for j in range(d)]
    right_cols = [multiply(a, a.basis_element(j), x).coords for j in range(d)]
    left = [[left_cols[j][k] for j in range(d)] for k in range(d)]
    right = [[right_cols[j][k] for j in range(d)] for k in range(d)]
    return MultOperator(left, "left", x), MultOperator(right, "right", x)


def identity_element(a: Algebra) -> Element | None:
    """The two-sided identity, if one exists (exact linear solve)."""
    f = a.field
    d = a.dim
    rows = []
    rhs = []
    for j in range(d):
        for k in range(d):
            target = f.one() if j == k else f.zero()
            rows.append([a.table[i][j][k] for i in range(d)])
            rhs.append(target)
            rows.append([a.table[j][i][k] for i in range(d)])
            rhs.append(target)
    sol = solve_unique(f, rows, rhs)
    if sol is None:
        return None
    return Element(a, tuple(sol))


# ---------------------------------------------------------------------------
# identity report


@dataclass
class IdentityReport:
    commutative: bool
    associative: bool
    flexible: bool
    jordan: bool
    witness: tuple | None = None
    witness_for: str | None = None
    witnesses: dict = dataclass_field(default_factory=dict)  # per failing property


def identity_report(a: Algebra, cap: int = ENUMERATION_CAP) -> IdentityReport:
    """Check commutativity, associativity, flexibility, and the Jordan law.

    The Jordan identity (x*x, y, x) = 0 is cubic in x, so it is decided by
    its full linearization on basis tuples when the characteristic is 0 or
    at least 5, and by exhaustive enumeration of the carrier over F_3.
    Characteristic 2 is rejected outright.
    """
    f = a.field
    if f.characteristic == 2:
        raise CharacteristicUnsupported("identity checks need characteristic != 2")
    basis = a.basis_elements()
    d = a.dim
    witnesses: dict = {}

    pair = noncommuting_pair(a)
    commutative = pair is None
    if not commutative:
        witnesses["commutative"] = pair

    associative = True
    for i, j, k in itertools.product(range(d), repeat=3):
        if not associator(a, basis[i], basis[j], basis[k]).is_zero():
            associative = False
            witnesses["associative"] = (basis[i], basis[j], basis[k])
            break

    flexible, flex_wit = _check_flexible(a, basis)
    if not flexible:
        witnesses["flexible"] = flex_wit

    if not commutative:
        jordan = False
        witnesses["jordan"] = witnesses["commutative"]
    else:
        if f.characteristic == 0 or f.characteristic >= 5:
            jordan, jordan_wit = _jordan_linearized(a, basis)
        else:  # characteristic 3: the linearization loses the cubic terms
            jordan, jordan_wit = _jordan_exhaustive(a, basis, cap)
        if not jordan:
            witnesses["jordan"] = jordan_wit

    witness = None
    witness_for = None
    for prop in ("commutative", "associative", "flexible", "jordan"):
        if prop in witnesses:
            witness = witnesses[prop]
            witness_for = prop
            break

    return IdentityReport(
        commutative, associative, flexible, jordan, witness, witness_for, witnesses
    )


def _check_flexible(a: Algebra, basis) -> tuple[bool, tuple | None]:
    # (x,y,x) = 0 is quadratic in x: check the diagonal on basis vectors and
    # the polarized form (x,y,z) + (z,y,x) on basis pairs.
    d = a.dim
    for i in range(d):
        for j in range(d):
            if not associator(a, basis[i], basis[j], basis[i]).is_zero():
                return False, (basis[i], basis[j], basis[i])
    for i in range(d):
        for k in range(i + 1, d):
            for j in range(d):
                s = associator(a, basis[i], basis[j], basis[k]) + associator(
                    a, basis[k], basis[j], basis[i]
                )
                if not s.is_zero():
                    return False, (basis[i] + basis[k], basis[j], basis[i] + basis[k])
    return True, None


def _jordan_linearized(a: Algebra, basis) -> tuple[bool, tuple | None]:
    # Coefficient forms of ((x^2) y) x - (x^2)(y x) after x -> sum(l_i b_i),
    # valid when {0,1,2,3} are distinct in the field (char 0 or >= 5).
    d = a.dim
    two = a.field.from_int(2)

    def asc(u, y, w):
        return associator(a, u, y, w)

    for i in range(d):
        sq = multiply(a, basis[i], basis[i])
        for y in range(d):
            if not asc(sq, basis[y], basis[i]).is_zero():
                return False, (basis[i], basis[y])
    for i in range(d):
        sq = multiply(a, basis[i], basis[i])
        for j in range(d):
            if j == i:
                continue
            mix = multiply(a, basis[i], basis[j])
            for y in range(d):
                v = asc(sq, basis[y], basis[j]) + asc(mix, basis[y], basis[i]).scaled(two)
                if not v.is_zero():
                    return False, _jordan_grid_witness(a, basis, (i, j), y)
    for i, j, k in itertools.combinations(range(d), 3):
        pij = multiply(a, basis[i], basis[j])
        pik = multiply(a, basis[i], basis[k])
        pjk = multiply(a, basis[j], basis[k])
        for y in range(d):
            v = asc(pij, basis[y], basis[k]) + asc(pik, basis[y], basis[j]) + asc(
                pjk, basis[y], basis[i]
            )
            if not v.is_zero():
                return False, _jordan_grid_witness(a, basis, (i, j, k), y)
    return True, None


def _jordan_grid_witness(a: Algebra, basis, support, y) -> tuple:
    # A nonzero cubic vanishes nowhere on a full {0..3}^m grid, so some grid
    # point over the failing support is a concrete witness.
    f = a.field
    ey = basis[y]
    for lams in itertools.product(range(4), repeat=len(support)):
        x = a.zero()
        for lam, i in zip(lams, support):
            x = x + basis[i].scaled(f.from_int(lam))
        sq = multiply(a, x, x)
        if not associator(a, sq, ey, x).is_zero():
            return (x, ey)
    raise AssertionError("cubic witness grid exhausted without a hit")


def _jordan_exhaustive(a: Algebra, basis, cap: int) -> tuple[bool, tuple | None]:
    f = a.field
    p = f.characteristic
    d = a.dim
    if p == 0:
        raise CharacteristicUnsupported(
            "exhaustive Jordan check needs a finite field"
        )
    check_enumerable(p, d, cap)
    for coords in itertools.product(range(p), repeat=d):
        x = Element(a, coords)
        sq = multiply(a, x, x)
        for y in basis:
            if not associator(a, sq, y, x).is_zero():
                return False, (x, y)
    return True, None


# ---------------------------------------------------------------------------
# example constructors


def matrix_units_algebra(f: Field, name: str = "m2") -> Algebra:
    """Dim-4 associative algebra of 2x2 matrix units: e_ab e_cd = delta_bc e_ad."""
    pairs = [(1, 1), (1, 0), (0, 1), (0, 0)]
    names = [f"e{a}{b}" for a, b in pairs]
    index = {pair: i for i, pair in enumerate(pairs)}
    zero, one = f.zero(), f.one()
    table = [[[zero] * 4 for _ in range(4)] for _ in range(4)]
    for i, (pa, pb) in enumerate(pairs):
        for j, (qc, qd) in enumerate(pairs):
            if pb == qc:
                table[i][j][index[(pa, qd)]] = one
    return Algebra(f, names, table, name=name)


def jordanify(a: Algebra) -> Algebra:
    """Replace the product xy by the symmetrized product (xy + yx)/2."""
    f = a.field
    if f.characteristic == 2:
        raise CharacteristicUnsupported("symmetrized product needs characteristic != 2")
    half = f.inv(f.from_int(2))
    d = a.dim
    table = [
        [
            [f.mul(half, f.add(a.table[i][j][k], a.table[j][i][k])) for k in range(d)]
            for j in range(d)
        ]
        for i in range(d)
    ]
    name = f"jordanified-{a.name}" if a.name and not a.name.startswith("jordanified-") else a.name
    return Algebra(f, a.basis_names, table, name=name)


# ---------------------------------------------------------------------------
# file format


def algebra_to_dict(a: Algebra) -> dict:
    f = a.field
    products = []
    for i in range(a.dim):
        for j in range(a.dim):
            for k in range(a.dim):
                c = a.table[i][j][k]
                if not f.is_zero(c):
                    products.append({"i": i, "j": j, "k": k, "c": f.format(c)})
    return {
        "name": a.name,
        "field": f.spec(),
        "dim": a.dim,
        "basis": list(a.basis_names),
        "products": products,
    }


def algebra_from_dict(data: dict) -> Algebra:
    if not isinstance(data, dict):
        raise FormatError("algebra file must hold a JSON object")
    for key in ("field", "dim", "basis", "products"):
        if key not in data:
            raise FormatError(f"algebra file missing field {key!r}")
    f = field_from_spec(data["field"])
    dim = data["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise FormatError(f"dim must be a positive integer, got {dim!r}")
    basis = data["basis"]
    if not isinstance(basis, list) or len(basis) != dim:
        raise FormatError(f"basis must be a list of dim={dim} names, got {basis!r}")
    for b in basis:
        if not isinstance(b, str):
            raise FormatError(f"basis name {b!r} must be a string")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise FormatError(f"name must be a string, got {name!r}")
    if not isinstance(data["products"], list):
        raise FormatError(f"products must be a list, got {data['products']!r}")
    zero = f.zero()
    table = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    seen = set()
    for entry in data["products"]:
        try:
            i, j, k, c = entry["i"], entry["j"], entry["k"], entry["c"]
        except (TypeError, KeyError) as exc:
            raise FormatError(f"bad product entry {entry!r}") from exc
        if not all(isinstance(v, int) and 0 <= v < dim for v in (i, j, k)):
            raise FormatError(f"product indices out of range in {entry!r}")
        if (i, j, k) in seen:
            raise FormatError(f"duplicate product entry for ({i},{j},{k})")
        seen.add((i, j, k))
        table[i][j][k] = f.parse(str(c))
    return Algebra(f, basis, table, name=name)


def save_algebra(a: Algebra, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(algebra_to_dict(a), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_algebra(path) -> Algebra:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"not valid JSON: {path} ({exc})") from exc
    return algebra_from_dict(data)
