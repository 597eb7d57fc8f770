"""Map and derivation tables plus the predicates on them.

A MapTable holds the total function table over a finite carrier (an
index array), the matrix, or both, that it was given; over the rationals
only matrices are supported. A DerivationTable is a MapTable of one
algebra to itself.

Every predicate is one identity over monomial trees, checked by one
evaluator, and each identity is one rule at a product node x y: the
image of x y from x, y and their images X, Y. A homomorphism's rule is
X Y in the codomain, so phi(m(x)) = m'(phi(x)): the n-ary monomials over
the products for n-multiplicativity, x1 + x2 over the sums for
additivity, and (x1 x2) x1 for Jordan semitriple maps. A derivation's
rule is the product rule X y + x Y, which unfolds by distributivity to
d(m(x)) = the sum, over the leaf occurrences of m, of m with d applied
at that leaf: the n-ary monomials for n-derivations, and (x1 x2) x1 for
Jordan triple derivations. A slot may occur twice in a tree. The search
module closes its tables under the same two rules.

The evaluator walks a tree once over (value, image) pairs and compares
phi(value) with the image at the root, on Elements or on broadcast index
grids, where slot s of an n-tuple is an index array laid along axis s
and a product is one flat take from the N x N table, whose result spans
the outer product of the slots below it.

A table over F_p is decided on generators and basis tuples. It is
additive exactly when phi(x + g) = phi(x) + phi(g) for every carrier x
and every g in {0} and the basis, one N x (d + 1) grid. An additive map
over F_p is linear, and a linear map passes an identity exactly when it
passes on the basis tuples of algebra._slot_candidates. The identity has
degree k in a slot used k times, and that slot ranges over sums of at
most k basis vectors, which is exact in characteristic 0 or p >= k. A
map identity uses a slot at most twice, so a slot ranges over the basis,
or over b_i and then b_i + b_j for i < j (polarization), and every
characteristic qualifies. A linear map over the rationals is additive
outright and takes the same basis tuples, on Elements, through the
first-failure scan that also decides the ring identities.

The full scan of every carrier n-tuple runs only when one of those
checks fails: it gives the verdict of a table that is not additive and
the first lexicographic witness of any failing table. Both grid routes
walk their tuples in steps of at most _CHUNK entries, in lexicographic
order, so the first failing entry of a step in C order is the first
witness. Each route charges its own tuple count against EVAL_BUDGET
before it starts: the basis tuples for an additive table, N^n per tree
for the full scan. A table decided on generators and basis tuples is
never refused for the size of a scan it does not run: an additive table
whose full scan would exceed the budget keeps its first failing basis
tuple as the witness.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
from dataclasses import dataclass

import numpy as np

from .algebra import (
    Algebra,
    Element,
    Leaf,
    Node,
    _evaluate,
    _first_failure,
    _slot_candidates,
    algebra_from_dict,
    algebra_to_dict,
    all_trees,
    canonical_tree,
    load_algebra,
    mult_operators,
    multiply,
    noncommuting_pair,
    read_json,
    write_json,
)
from .carrier import FiniteCarrier, carrier_of, index_dtype
from .errors import (
    AlgebraMismatch,
    ArityMismatch,
    BudgetExceeded,
    CarrierInfinite,
    DerivationOfIdempotentNotHalf,
    FormatError,
    JordankitError,
    NoncommutativeDomain,
    NotDerivation,
    PreconditionViolated,
    TorsionViolation,
    shown,
)
from .linalg import identity_matrix, invert, mat_add, mat_mul, mat_sub, mat_vec, zeros
from .peirce import PeirceDecomposition, _component_parts_zero, peirce_decompose
from .scalars import is_torsion_free

EVAL_BUDGET = 10**8  # the most evaluations one predicate check may run
# the highest monomial degree n: an index grid lays each slot of an n-tuple
# on its own numpy axis, and numpy 1.x allows 32
MAX_DEGREE = 32
_CHUNK = 1 << 20
# the trees of additivity (x1 + x2, over the sum tables) and of the
# Jordan semitriple forms
_SUM = Node(Leaf(1), Leaf(2))
_SEMITRIPLE = Node(Node(Leaf(1), Leaf(2)), Leaf(1))


def _check_degree(n: int) -> None:
    """Refuse a monomial degree n outside 2..MAX_DEGREE."""
    if not 2 <= n <= MAX_DEGREE:
        raise ArityMismatch(f"monomial degree must be >= 2 and <= {MAX_DEGREE}, got {n}")


@dataclass
class Verdict:
    ok: bool
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


class MapTable:
    """A total map between algebra carriers, as the table, matrix or both it was given."""

    def __init__(self, domain: Algebra, codomain: Algebra, table=None, matrix=None):
        if table is None and matrix is None:
            raise FormatError("a map needs a function table or a matrix")
        if matrix is not None:
            if domain.field != codomain.field:
                raise AlgebraMismatch("matrix-backed maps need a common field")
            if not (isinstance(matrix, list) and all(isinstance(r, list) for r in matrix)):
                raise FormatError(f"matrix must be a list of rows, got {shown(matrix)}")
            if len(matrix) != codomain.dim or any(len(r) != domain.dim for r in matrix):
                raise FormatError(f"matrix must be {codomain.dim} x {domain.dim}")
        self.domain = domain
        self.codomain = codomain
        self.matrix = matrix
        self._table = None if table is None else self._checked_table(table)
        if self._table is not None and matrix is not None:
            self._check_hint_consistency()

    def _checked_table(self, table) -> np.ndarray:
        """The table as a new index array, checked against both carrier sizes.

        Every table is stored in index_dtype of the codomain carrier, the
        narrowest unsigned type that holds its indices (uint8 for K/F3,
        uint16 for K/F5), since an audit keeps all the tables it reads.
        Index arithmetic on them widens to intp in _table_op.
        """
        p = self.domain.field.characteristic
        q = self.codomain.field.characteristic
        if p == 0 or q == 0:
            raise CarrierInfinite(
                "a function table needs finite carriers; use a matrix over the rationals"
            )
        dom_size, cod_size = p**self.domain.dim, q**self.codomain.dim
        try:
            arr = np.asarray(table)
        except ValueError as exc:  # ragged nesting
            raise FormatError(f"a function table holds integer indices: {exc}") from exc
        if arr.dtype.kind not in "iu":
            raise FormatError(f"function table entries must be integers, not {arr.dtype}")
        if arr.shape != (dom_size,):
            raise FormatError(
                f"function table has shape {arr.shape}, the domain carrier has {dom_size} elements"
            )
        bad = (arr < 0) | (arr >= cod_size)
        if bad.any():
            i = int(np.argmax(bad))
            raise FormatError(
                f"function table entry {i} is {int(arr[i])}, outside [0, {cod_size})"
            )
        return arr.astype(index_dtype(cod_size))

    # -- construction ------------------------------------------------------

    @classmethod
    def _construct(cls, domain: Algebra, codomain: Algebra, table=None, matrix=None):
        return cls(domain, codomain, table=table, matrix=matrix)

    @classmethod
    def from_matrix(cls, domain: Algebra, codomain: Algebra, matrix):
        return cls._construct(domain, codomain, matrix=matrix)

    @classmethod
    def identity(cls, a: Algebra):
        return cls._construct(a, a, matrix=identity_matrix(a.field, a.dim))

    @classmethod
    def zero(cls, a: Algebra):
        return cls._construct(a, a, matrix=zeros(a.field, a.dim, a.dim))

    # -- basic access --------------------------------------------------------

    def domain_carrier(self) -> FiniteCarrier:
        return carrier_of(self.domain)

    def codomain_carrier(self) -> FiniteCarrier:
        return carrier_of(self.codomain)

    def index_table(self) -> np.ndarray:
        """The full index table: the given one, or the matrix's, built anew."""
        if self._table is not None:
            return self._table
        return self._checked_table(self._matrix_table())

    def has_table(self) -> bool:
        """True over F_p, where a matrix yields its table; over Q a map is a matrix."""
        return self.domain.field.characteristic != 0

    def _matrix_table(self) -> np.ndarray:
        """The index table of the matrix over F_p."""
        m = np.array([[int(c) for c in row] for row in self.matrix], dtype=np.int64)
        return self.codomain_carrier().encode(self.domain_carrier().coords @ m.T)

    def _check_hint_consistency(self):
        hint = self._matrix_table()
        if not np.array_equal(hint, self._table):
            bad = self.domain_carrier().element_at(int(np.argmax(hint != self._table)))
            raise FormatError(f"matrix and table disagree at carrier element {bad!r}")

    def apply(self, x: Element) -> Element:
        if x.algebra is not self.domain:
            raise AlgebraMismatch("element belongs to a different algebra")
        if self.matrix is not None:
            f = self.domain.field
            return Element(self.codomain, tuple(mat_vec(f, self.matrix, list(x.coords))))
        dom = self.domain_carrier()
        cod = self.codomain_carrier()
        return cod.element_at(int(self._table[dom.index_of(x)]))

    def entries(self):
        """Iterate (x, image) pairs over the finite carrier."""
        dom = self.domain_carrier()
        cod = self.codomain_carrier()
        table = self.index_table()
        for i in range(dom.size):
            yield dom.element_at(i), cod.element_at(int(table[i]))

    def __repr__(self):
        kind = "table" if self._table is not None else "matrix"
        return f"<{type(self).__name__} {kind} {self.domain.name or 'J'} -> {self.codomain.name or 'J'}>"


class DerivationTable(MapTable):
    """A map of one algebra to itself, candidate derivation."""

    def __init__(self, algebra: Algebra, table=None, matrix=None):
        super().__init__(algebra, algebra, table=table, matrix=matrix)

    @classmethod
    def _construct(cls, domain: Algebra, codomain: Algebra, table=None, matrix=None):
        if domain is not codomain:
            raise AlgebraMismatch("a derivation needs codomain == domain")
        return cls(domain, table=table, matrix=matrix)

    @classmethod
    def from_map(cls, m: MapTable) -> "DerivationTable":
        return cls._construct(m.domain, m.codomain, table=m._table, matrix=m.matrix)


# ---------------------------------------------------------------------------
# the identity evaluator


def _slot_grids(slots: list[np.ndarray]) -> list[np.ndarray]:
    """Index array slots[s - 1] laid along axis s - 1 of an n-tuple grid."""
    n = len(slots)
    grids = []
    for axis, values in enumerate(slots):
        shape = [1] * n
        shape[axis] = -1
        grids.append(values.reshape(shape))
    return grids


def _table_op(table: np.ndarray):
    """The operation of an N x N index table on broadcasting index arrays.

    The flat index x * N + y is computed in intp: index arrays may be as
    narrow as the tables (index_dtype), where x * N would wrap.
    """
    size = table.shape[1]
    return lambda x, y: table.take(np.multiply(x, size, dtype=np.intp) + y)


def _homomorphism_rule(cod_op):
    """The image of a product x y under a homomorphism: cod_op(X, Y).

    X and Y are the images of x and y. Both rules take Elements and
    broadcasting index arrays alike.
    """
    return lambda x, X, y, Y: cod_op(X, Y)


def _derivation_rule(mul, add):
    """The image of a product x y under a derivation: X y + x Y."""
    return lambda x, X, y, Y: add(mul(X, y), mul(x, Y))


def _identity(phi, op, rule):
    """mismatch(tree, leaves): phi(m(x)) != the image rule builds for m(x).

    m applies op at every node. The tree is evaluated once over (value,
    image) pairs, the leaves paired with their images phi(x) and every
    node's image built by rule from its children's.
    """

    def node(left, right):
        (x, X), (y, Y) = left, right
        return op(x, y), rule(x, X, y, Y)

    def mismatch(tree, leaves):
        value, image = _evaluate(tree, [(x, phi(x)) for x in leaves], node)
        return phi(value) != image

    return mismatch


def _check_budget(total: int) -> None:
    if total > EVAL_BUDGET:
        raise BudgetExceeded(f"{total} evaluations exceed budget {EVAL_BUDGET}")


def _first_hit(tree, slots: list[np.ndarray], mismatch):
    """Positions in slots of the first n-tuple, lexicographically, at which
    mismatch(tree, grids) is true, or None.

    Leading slots are fixed one value at a time until the slots after
    them hold at most _CHUNK tuples, and then whole rows of the next slot
    go at once, so no step holds more than _CHUNK entries (or one row) and
    the C-order argmax of a step is the first witness in it.
    """
    lead = 0
    while lead < len(slots) - 1 and math.prod(map(len, slots[lead + 1 :])) > _CHUNK:
        lead += 1
    rest, col = slots[lead + 1 :], slots[lead]
    rows = max(1, _CHUNK // math.prod(map(len, rest)))
    for prefix in itertools.product(*(range(len(s)) for s in slots[:lead])):
        fixed = [s[i : i + 1] for s, i in zip(slots, prefix)]
        for start in range(0, len(col), rows):
            bad = mismatch(tree, _slot_grids(fixed + [col[start : start + rows]] + rest))
            if bad.any():
                hit = np.unravel_index(int(np.argmax(bad)), bad.shape)
                return (*prefix, start + int(hit[lead]), *(int(i) for i in hit[lead + 1 :]))
    return None


def _walk(dom: FiniteCarrier, trees, ranges: list[np.ndarray], mismatch) -> Verdict:
    """The first (tree, args) with args drawn from ranges at which
    mismatch(tree, grids) is true.

    Trees go in the given order and the tuples of each in lexicographic
    order (_first_hit).
    """
    for tree in trees:
        hit = _first_hit(tree, ranges, mismatch)
        if hit is not None:
            args = tuple(dom.element_at(int(r[i])) for r, i in zip(ranges, hit))
            return Verdict(False, (tree, args))
    return Verdict(True)


def _grid_scan(dom: FiniteCarrier, n: int, trees, mismatch) -> Verdict:
    """_walk over every carrier n-tuple, charged against EVAL_BUDGET first."""
    _check_budget(dom.size**n * len(trees))
    return _walk(dom, trees, [np.arange(dom.size, dtype=np.int64)] * n, mismatch)


def _sum_identity(t: MapTable):
    """The domain carrier and the additivity identity of t on x1 + x2."""
    dom, cod = t.domain_carrier(), t.codomain_carrier()
    rule = _homomorphism_rule(_table_op(cod.add))
    return dom, _identity(t.index_table().take, _table_op(dom.add), rule)


def _additive_on_generators(t: MapTable) -> bool:
    """phi(x + g) = phi(x) + phi(g) for every carrier x and g in {0} and the basis.

    This decides additivity: generators of the additive group suffice, and
    g = 0 forces phi(0) = 0, which the basis alone does not when dim = 0.
    """
    dom, mismatch = _sum_identity(t)
    generators = [dom.zero_index] + [dom.basis_index(i) for i in range(dom.dim)]
    slots = [np.arange(dom.size, dtype=np.int64), np.array(generators, dtype=np.int64)]
    return not mismatch(_SUM, _slot_grids(slots)).any()


def _basis_tuples(trees, n: int, basis: list, add) -> list:
    """The _slot_candidates of trees, charged against EVAL_BUDGET before any scan.

    The trees of one predicate use each slot equally often, so they share
    the first tree's candidates, and len(trees) counts all_trees without
    building them.
    """
    ranges = _slot_candidates(next(iter(trees)), n, basis, add)
    _check_budget(len(trees) * math.prod(map(len, ranges)))
    return ranges


def _basis_scan(t: MapTable, n: int, trees, derivation: bool) -> Verdict:
    """The first (tree, args) of basis tuples at which a linear map fails.

    The map runs on Elements. Trees go outermost, then the basis tuples of
    _slot_candidates.
    """
    mul, cod_mul = functools.partial(multiply, t.domain), functools.partial(multiply, t.codomain)
    rule = _derivation_rule(mul, operator.add) if derivation else _homomorphism_rule(cod_mul)
    ranges = _basis_tuples(trees, n, t.domain.basis_elements(), operator.add)
    hit = _first_failure(((tree, ranges) for tree in trees), _identity(t.apply, mul, rule))
    return Verdict(True) if hit is None else Verdict(False, hit)


def _check(t: MapTable, n: int, trees, derivation: bool) -> Verdict:
    """The first (tree, args) at which t fails the identity of its kind.

    A matrix over the rationals runs on basis tuples. A table is decided
    on index grids: an additive table over F_p is linear, so it passes
    when it passes on the basis tuples of _slot_candidates; any other
    table, and a failing one for its first witness, is scanned over every
    carrier tuple. A failing additive table whose scan would exceed
    EVAL_BUDGET keeps its first failing basis tuple as the witness.
    """
    if derivation and t.domain is not t.codomain:
        raise AlgebraMismatch("a derivation needs codomain == domain")
    if not t.has_table():
        return _basis_scan(t, n, trees, derivation)
    dom = t.domain_carrier()
    mul, add = _table_op(dom.mul), _table_op(dom.add)
    cod_mul = _table_op(t.codomain_carrier().mul)
    rule = _derivation_rule(mul, add) if derivation else _homomorphism_rule(cod_mul)
    mismatch = _identity(t.index_table().take, mul, rule)
    if _additive_on_generators(t):
        basis = [dom.basis_index(i) for i in range(dom.dim)]
        ranges = [np.array(c, dtype=np.int64) for c in _basis_tuples(trees, n, basis, add)]
        v = _walk(dom, trees, ranges, mismatch)
        if v.ok or dom.size**n * len(trees) > EVAL_BUDGET:  # or the full scan does not fit
            return v
    return _grid_scan(dom, n, trees, mismatch)


def _pair_witness(v: Verdict) -> Verdict:
    """v with the tree dropped from its witness, leaving the pair (x, y)."""
    return v if v.ok else Verdict(False, v.witness[1])


def _semitriple(t: MapTable, derivation: bool) -> Verdict:
    """The identity of the kind on (x1 x2) x1, for a commutative domain."""
    if noncommuting_pair(t.domain) is not None:
        raise NoncommutativeDomain("predicate is only defined over commutative algebras")
    return _pair_witness(_check(t, 2, [_SEMITRIPLE], derivation))


@dataclass(frozen=True)
class _AllTrees:
    """all_trees(n), with its length Catalan(n - 1) known before any tree is built."""

    n: int

    def __len__(self) -> int:
        return math.comb(2 * self.n - 2, self.n - 1) // self.n

    def __iter__(self):
        return all_trees(self.n)


def _trees_for(n: int, tree_mode: str):
    _check_degree(n)
    if tree_mode == "canonical":
        return [canonical_tree(n)]
    if tree_mode == "all_trees":
        return _AllTrees(n)
    raise ValueError(f"unknown tree_mode {tree_mode!r}")


# ---------------------------------------------------------------------------
# predicates


def is_additive(t: MapTable) -> Verdict:
    """phi(x + y) = phi(x) + phi(y) on every carrier pair."""
    if not t.has_table() or _additive_on_generators(t):  # a matrix is linear, hence additive
        return Verdict(True)
    dom, mismatch = _sum_identity(t)
    return _pair_witness(_grid_scan(dom, 2, [_SUM], mismatch))


def is_bijective(t: MapTable) -> bool:
    """True iff the map is a bijection onto the codomain carrier."""
    if t.has_table():
        dom = t.domain_carrier()
        cod = t.codomain_carrier()
        if dom.size != cod.size:
            return False
        table = t.index_table()
        return int(np.unique(table).size) == dom.size
    if t.domain.dim != t.codomain.dim:
        return False
    return invert(t.domain.field, t.matrix) is not None


def is_n_multiplicative(t: MapTable, n: int, tree_mode: str = "canonical") -> Verdict:
    """phi(m(x_1..x_n)) = m(phi(x_1)..phi(x_n)) for the selected monomials."""
    return _check(t, n, _trees_for(n, tree_mode), False)


def is_jordan_semitriple(t: MapTable) -> Verdict:
    """phi((xy)x) = (phi(x)phi(y))phi(x) on a commutative domain."""
    return _semitriple(t, False)


def is_n_derivation(t: DerivationTable, n: int, tree_mode: str = "canonical") -> Verdict:
    """d(m(x...)) = sum_i m(x_1,..,d(x_i),..,x_n) for the selected monomials."""
    return _check(t, n, _trees_for(n, tree_mode), True)


def is_jordan_triple_derivation(t: DerivationTable) -> Verdict:
    """d((xy)x) = (d(x)y)x + (x d(y))x + (xy)d(x) on a commutative domain.

    Each summand substitutes d into one slot of (xy)x, keeping the
    left-to-right bracketing of the triple throughout; this is the form
    two applications of the product rule produce, and the one genuine
    derivations satisfy.
    """
    return _semitriple(t, True)


# ---------------------------------------------------------------------------
# inner derivations and the reduction


def inner_derivation(a: Algebra, y: Element, z: Element) -> DerivationTable:
    """The operator [L_y, L_z] + [L_y, R_z] + [R_y, R_z] as a linear map."""
    if y.algebra is not a or z.algebra is not a:
        raise AlgebraMismatch("elements belong to a different algebra")
    f = a.field
    ly, ry = (op.matrix for op in mult_operators(a, y))
    lz, rz = (op.matrix for op in mult_operators(a, z))

    def bracket(p, q):
        return mat_sub(f, mat_mul(f, p, q), mat_mul(f, q, p))

    m = mat_add(f, mat_add(f, bracket(ly, lz), bracket(ly, rz)), bracket(ry, rz))
    return DerivationTable(a, matrix=m)


def reduce_derivation(
    a: Algebra,
    e: Element,
    d: DerivationTable,
    n: int,
    decomposition: PeirceDecomposition | None = None,
) -> DerivationTable:
    """The reduced derivation x -> D_{d(e),4e}(x) - 3 d(x), vanishing at e.

    Checks the torsion hypotheses, that d really is an n-multiplicative
    derivation, and that d(e) lies in the half eigenspace before building
    the reduction.
    """
    _check_degree(n)
    f = a.field
    if not is_torsion_free(f, 2):
        raise TorsionViolation("field must be 2-torsion free")
    if not is_torsion_free(f, n - 1):
        raise TorsionViolation(f"field must be {n - 1}-torsion free")
    verdict = is_n_derivation(d, n)
    if not verdict:
        raise NotDerivation(f"table fails the degree-{n} derivation identity at {verdict.witness}")
    dec = decomposition if decomposition is not None else peirce_decompose(a, e)
    if dec.idempotent != e:
        raise PreconditionViolated("decomposition does not match the idempotent")
    de = d.apply(e)
    if not _component_parts_zero(dec, de, ("1", "0")):
        raise DerivationOfIdempotentNotHalf(f"d(e) = {de!r} has components outside J_1/2")
    inner = inner_derivation(a, de, e.scaled(4))
    three = f.from_int(3)
    if d.matrix is not None:
        delta_matrix = mat_sub(
            f, inner.matrix, [[f.mul(three, c) for c in row] for row in d.matrix]
        )
        delta = DerivationTable(a, matrix=delta_matrix)
    else:
        dom = d.domain_carrier()
        inner_map = inner.index_table()
        minus3 = dom.scalar_map(f.neg(three))
        delta_table = dom.add[inner_map, minus3[d.index_table()]]
        delta = DerivationTable(a, table=delta_table)
    if not delta.apply(e).is_zero():
        raise JordankitError("internal error: reduced derivation does not vanish at e")
    return delta


def _component_masks(dom: FiniteCarrier, dec: PeirceDecomposition) -> dict:
    """The carrier mask of each Peirce component: the elements whose Peirce
    coordinates B^-1 x, one product for the whole carrier, vanish off its rows."""
    inv = np.array([[int(c) for c in row] for row in dec.inverse_basis], dtype=np.int64)
    zero = (dom.coords @ inv.T % dom.p) == 0
    rows = dec.component_rows
    others = {k: [i for o in rows if o != k for i in rows[o]] for k in rows}
    return {k: zero[:, others[k]].all(axis=1) for k in rows}


def derivation_peirce_check(delta: DerivationTable, dec: PeirceDecomposition) -> Verdict:
    """True iff delta maps every Peirce component into itself."""
    a = delta.domain
    if a is not dec.algebra:
        raise AlgebraMismatch("derivation and decomposition algebras differ")
    if not delta.apply(dec.idempotent).is_zero():
        raise PreconditionViolated("reduced derivation must vanish at the idempotent")
    if delta.has_table():
        dom = delta.domain_carrier()
        table = delta.index_table()
        for key, mask in _component_masks(dom, dec).items():
            idxs = np.flatnonzero(mask)
            ok = mask[table[idxs]]
            if not ok.all():
                bad = int(idxs[int(np.argmax(~ok))])
                return Verdict(False, (key, dom.element_at(bad)))
        return Verdict(True)
    for key in dec.component_rows:
        for v in dec.component_basis(key):
            others = [k for k in dec.component_rows if k != key]
            if not _component_parts_zero(dec, delta.apply(v), others):
                return Verdict(False, (key, v))
    return Verdict(True)


# ---------------------------------------------------------------------------
# map-table file format


def map_table_to_dict(t: MapTable) -> dict:
    data = {
        "domain": algebra_to_dict(t.domain),
        "codomain": algebra_to_dict(t.codomain),
    }
    if t.matrix is not None:
        f = t.domain.field
        data["matrix"] = [[f.format(c) for c in row] for row in t.matrix]
    if t._table is not None:
        data["entries"] = [{"in": x.text(), "out": y.text()} for x, y in t.entries()]
    return data


def _entry_pairs(entries, dom: Algebra, cod: Algebra):
    """The (x, y) element pairs of a map file's [{"in": x, "out": y}, ...]."""
    if not isinstance(entries, list):
        raise FormatError(f"map 'entries' must be a list, got {shown(entries)}")
    for entry in entries:
        try:
            x_text, y_text = entry["in"], entry["out"]
        except (TypeError, KeyError) as exc:
            raise FormatError(f"map entry {shown(entry)} needs 'in' and 'out'") from exc
        if not (isinstance(x_text, str) and isinstance(y_text, str)):
            raise FormatError(f"map entry {shown(entry)}: 'in' and 'out' must be strings")
        yield dom.parse_element(x_text), cod.parse_element(y_text)


def _table_from_pairs(dom: FiniteCarrier, cod: FiniteCarrier, pairs) -> np.ndarray:
    """The index table of (x, y) pairs; each carrier element needs one pair."""
    table = np.full(dom.size, -1, dtype=np.int64)
    for x, y in pairs:
        i = dom.index_of(x)
        if table[i] != -1:
            raise FormatError(f"duplicate map entry for {x!r}")
        table[i] = cod.index_of(y)
    if (table == -1).any():
        missing = dom.element_at(int(np.argmax(table == -1)))
        raise FormatError(f"map table is not total: no entry for {missing!r}")
    return table


def map_table_from_dict(
    data: dict,
    domain: Algebra | None = None,
    codomain: Algebra | None = None,
    base_dir=None,
) -> MapTable:
    """Load a map table; explicit algebras override the file's own."""
    if not isinstance(data, dict):
        raise FormatError("map file must hold a JSON object")
    def resolve(key, override):
        if override is not None:
            return override
        if key not in data:
            raise FormatError(f"map file missing {key!r} and no override given")
        ref = data[key]
        if isinstance(ref, str):
            path = ref if base_dir is None else os.path.join(base_dir, ref)
            try:
                return load_algebra(path)
            except OSError as exc:
                raise FormatError(f"{key} {shown(ref)} cannot be read: {exc.strerror}") from exc
        return algebra_from_dict(ref)

    dom = resolve("domain", domain)
    # a file without a codomain maps its domain to itself
    cod = dom if codomain is None and "codomain" not in data else resolve("codomain", codomain)
    matrix = None
    if "matrix" in data:
        rows = data["matrix"]
        if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
            raise FormatError(f"map 'matrix' must be a list of rows, got {shown(rows)}")
        matrix = [[dom.field.parse(str(c)) for c in row] for row in rows]
    table = None
    if "entries" in data:
        if dom.field.characteristic == 0:
            raise CarrierInfinite(
                "explicit entries need a finite carrier; use a matrix over the rationals"
            )
        pairs = _entry_pairs(data["entries"], dom, cod)
        table = _table_from_pairs(carrier_of(dom), carrier_of(cod), pairs)
    if matrix is None and table is None:
        raise FormatError("map file needs 'entries' or 'matrix'")
    return MapTable(dom, cod, table=table, matrix=matrix)


def load_map_table(path, domain=None, codomain=None) -> MapTable:
    return map_table_from_dict(
        read_json(path), domain=domain, codomain=codomain,
        base_dir=os.path.dirname(os.path.abspath(path)),
    )


def save_map_table(t: MapTable, path) -> None:
    write_json(map_table_to_dict(t), path)
