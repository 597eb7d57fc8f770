"""Structure-constant algebras, element arithmetic, and ring identities.

An algebra is a dense d x d x d tensor of structure constants over an
exact field; products of elements are the bilinear extension of the
basis table. Includes nonassociative monomial trees with the one
evaluator that every identity check runs, multiplication operators, and
the matrix-unit example constructors.

The ring identities (commutative, associative and flexible laws, and the
Jordan law) are each a pair of monomial trees lhs = rhs. Each is decided
by one first-failure scan over the tuples of _slot_candidates: a slot
used once ranges over the basis, and a slot used k > 1 times over short
sums of basis vectors that decide an identity of degree k in it. The
same scan and rule decide the map predicates over the rationals (maps).
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
from dataclasses import dataclass, field as dataclass_field

from .errors import (
    AlgebraMismatch,
    ArityMismatch,
    CharacteristicUnsupported,
    EnumerationTooLarge,
    FormatError,
    shown,
)
from .linalg import mat_vec, solve_unique
from .scalars import Field, field_from_spec

# The most elements (p**dim) that any exhaustive enumeration walks, and the
# most structure constants (dim**3, so dim <= 100) that an algebra holds.
ENUMERATION_CAP = 10**6


def check_enumerable(p: int, d: int) -> None:
    """Raise EnumerationTooLarge when a carrier of p**d elements exceeds ENUMERATION_CAP."""
    if p**d > ENUMERATION_CAP:
        raise EnumerationTooLarge(f"carrier size {p}^{d} exceeds cap {ENUMERATION_CAP}")


def _check_table_size(d: int) -> None:
    """Raise EnumerationTooLarge when a d x d x d table exceeds ENUMERATION_CAP."""
    if d**3 > ENUMERATION_CAP:
        raise EnumerationTooLarge(f"structure constants {d}^3 exceed cap {ENUMERATION_CAP}")


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
        _check_table_size(d)
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


def _evaluate(tree, leaves, op):
    """The value of tree with slot s set to leaves[s - 1] and op at every node.

    Leaves may be Elements, broadcasting index arrays, or pairs of either
    (maps._identity); on index grids a node is one flat take that
    broadcasts to the outer product of the slots below it.
    """
    if isinstance(tree, Leaf):
        return leaves[tree.slot - 1]
    return op(_evaluate(tree.left, leaves, op), _evaluate(tree.right, leaves, op))


def _candidates(k: int, basis: list, add) -> list:
    """The values a slot used k times ranges over: see _slot_candidates."""
    values = []
    for size in range(1, min(k, len(basis)) + 1):
        for first, *rest in itertools.combinations(basis, size):
            for lams in itertools.product(range(1, k - size + 2), repeat=size - 1):
                v = first
                for lam, b in zip(lams, rest):
                    for _ in range(lam):
                        v = add(v, b)
                values.append(v)
    return values


def _slot_candidates(tree, n: int, basis: list, add) -> list[list]:
    """The values each slot of tree ranges over to decide an identity.

    An identity of a linear map, or of the ring itself, is homogeneous of
    degree k in a slot used k times. It holds for every value of that
    slot exactly when it holds at b_S[0] + sum of l_i b_i for i in S[1:],
    over supports S of at most k basis indices, by size and then
    lexicographically, with each l_i in 1..k - |S| + 1. Homogeneity fixes
    the first coefficient at 1, and the Combinatorial Nullstellensatz
    (Alon, CPC 1999) covers the rest when 1..k - 1 are distinct and
    nonzero: in characteristic 0 or p >= k. A slot used once ranges over
    the basis; one used twice over b_i and then b_i + b_j for i < j
    (polarization); one used three times also over b_i + 2 b_j and
    b_i + b_j + b_k. Multiples are sums, so add is the only operation.
    """
    return [_candidates(tree.slots.count(s), basis, add) for s in range(1, n + 1)]


def _first_failure(cases, mismatch):
    """The first (tree, args) at which mismatch(tree, args) is true, or None.

    cases pairs each tree with its per-slot values (_slot_candidates).
    Trees go in order, then each tree's tuples in product order.
    """
    for tree, ranges in cases:
        for args in itertools.product(*ranges):
            if mismatch(tree, args):
                return tree, args
    return None


def monomial_eval(a: Algebra, tree: MonomialTree, args) -> Element:
    """Evaluate a monomial tree on the given arguments, one per distinct slot."""
    args = list(args)
    arity = len(set(tree.slots))
    if len(args) != arity:
        raise ArityMismatch(f"tree with {arity} slots got {len(args)} arguments")
    for x in args:
        if x.algebra is not a:
            raise AlgebraMismatch("argument belongs to a different algebra")
    return _evaluate(tree, args, functools.partial(multiply, a))


def xi_eval(a: Algebra, z: Element, i: int, args) -> Element:
    """Canonical right-nested monomial with the first i slots set to z."""
    args = list(args)
    if i < 1 or i + len(args) < 2:
        raise ArityMismatch(f"need i >= 1 and total degree >= 2, got i={i}, args={len(args)}")
    return _evaluate(canonical_tree(i + len(args)), [z] * i + args, functools.partial(multiply, a))


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
        return Element(a, tuple(mat_vec(a.field, self.matrix, list(x.coords))))


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


# Each ring identity as lhs = rhs over monomial trees, with the slots its
# witness lists: a flexible witness is the associator triple (x, y, x).
_X1, _X2, _X3 = Leaf(1), Leaf(2), Leaf(3)
_SQUARE = Node(_X1, _X1)
_RING_IDENTITIES = {
    "commutative": (Node(_X1, _X2), Node(_X2, _X1), (1, 2)),
    "associative": (Node(Node(_X1, _X2), _X3), Node(_X1, Node(_X2, _X3)), (1, 2, 3)),
    "flexible": (Node(Node(_X1, _X2), _X1), Node(_X1, Node(_X2, _X1)), (1, 2, 1)),
    "jordan": (Node(Node(_SQUARE, _X2), _X1), Node(_SQUARE, Node(_X2, _X1)), (1, 2)),
}


def _identity_failure(a: Algebra, lhs: MonomialTree, rhs: MonomialTree) -> tuple | None:
    """The first tuple of _slot_candidates at which lhs != rhs in a, or None."""
    mul = functools.partial(multiply, a)
    ranges = _slot_candidates(lhs, max(lhs.slots), a.basis_elements(), operator.add)
    hit = _first_failure(
        [(lhs, ranges)], lambda _, args: _evaluate(lhs, args, mul) != _evaluate(rhs, args, mul)
    )
    return None if hit is None else hit[1]


def identity_report(a: Algebra) -> IdentityReport:
    """Check commutativity, associativity, flexibility, and the Jordan law.

    Each identity lhs = rhs is decided on the tuples of _slot_candidates,
    which is exact in characteristic 0 and in characteristic p >= k for a
    slot used k times. The Jordan law ((x x) y) x = (x x)(y x) uses x
    three times, so every characteristic but 2 is covered; characteristic
    2 is rejected outright. A Jordan algebra is commutative, so a
    noncommutative algebra fails the Jordan law with its commutativity
    witness. A failing property's witness is its first failing tuple.
    """
    if a.field.characteristic == 2:
        raise CharacteristicUnsupported("identity checks need characteristic != 2")
    witnesses: dict = {}
    for prop, (lhs, rhs, shown) in _RING_IDENTITIES.items():
        if prop == "jordan" and "commutative" in witnesses:
            witnesses[prop] = witnesses["commutative"]
            continue
        args = _identity_failure(a, lhs, rhs)
        if args is not None:
            witnesses[prop] = tuple(args[s - 1] for s in shown)
    verdicts = {prop: prop not in witnesses for prop in _RING_IDENTITIES}
    witness_for = next(iter(witnesses), None)
    return IdentityReport(
        **verdicts,
        witness=witnesses.get(witness_for),
        witness_for=witness_for,
        witnesses=witnesses,
    )


def noncommuting_pair(a: Algebra) -> tuple[Element, Element] | None:
    """The first basis pair (b_i, b_j), i < j, with b_i b_j != b_j b_i, or None."""
    lhs, rhs, _ = _RING_IDENTITIES["commutative"]
    return _identity_failure(a, lhs, rhs)


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


def _is_int(v) -> bool:
    """True for a JSON integer; a bool is an int in Python, but not here."""
    return isinstance(v, int) and not isinstance(v, bool)


def algebra_from_dict(data: dict) -> Algebra:
    if not isinstance(data, dict):
        raise FormatError("algebra file must hold a JSON object")
    for key in ("field", "dim", "basis", "products"):
        if key not in data:
            raise FormatError(f"algebra file missing field {key!r}")
    f = field_from_spec(data["field"])
    dim = data["dim"]
    if not _is_int(dim) or dim < 1:
        raise FormatError(f"dim must be a positive integer, got {shown(dim)}")
    basis = data["basis"]
    if not isinstance(basis, list) or len(basis) != dim:
        raise FormatError(f"basis must be a list of dim={shown(dim)} names, got {shown(basis)}")
    for b in basis:
        if not isinstance(b, str):
            raise FormatError(f"basis name {shown(b)} must be a string")
    _check_table_size(dim)
    name = data.get("name", "")
    if not isinstance(name, str):
        raise FormatError(f"name must be a string, got {shown(name)}")
    try:
        name.encode("utf-8")  # reports echo the name, so it must print
    except UnicodeEncodeError as exc:
        raise FormatError(f"name {shown(name)} is not valid UTF-8 text") from exc
    if not isinstance(data["products"], list):
        raise FormatError(f"products must be a list, got {shown(data['products'])}")
    zero = f.zero()
    table = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    seen = set()
    for entry in data["products"]:
        try:
            i, j, k, c = entry["i"], entry["j"], entry["k"], entry["c"]
        except (TypeError, KeyError) as exc:
            raise FormatError(f"bad product entry {shown(entry)}") from exc
        if not all(_is_int(v) and 0 <= v < dim for v in (i, j, k)):
            raise FormatError(f"product indices out of range in {shown(entry)}")
        if (i, j, k) in seen:
            raise FormatError(f"duplicate product entry for ({i},{j},{k})")
        seen.add((i, j, k))
        table[i][j][k] = f.parse(str(c))
    return Algebra(f, basis, table, name=name)


def save_algebra(a: Algebra, path) -> None:
    write_json(algebra_to_dict(a), path)


def write_json(data, path) -> None:
    """Write data as sorted, 2-space indented JSON with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    """The JSON document in a file; a file that is not UTF-8 JSON is a FormatError.

    A malformed document, bytes that are not UTF-8, and an integer past
    the interpreter's digit limit all raise ValueError; nesting deeper
    than the decoder's recursion limit raises RecursionError. The
    decoder's message is cut like the path: the digit limit's alone is
    about 140 characters.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"not valid JSON: {shown(path)} ({shown(str(exc))})") from exc


def load_algebra(path) -> Algebra:
    return algebra_from_dict(read_json(path))
