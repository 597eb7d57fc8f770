"""Idempotents, Peirce decompositions, and the nondegeneracy conditions.

The decomposition splits an algebra into exact eigenspaces of the
operator (L_e + R_e)/2 for eigenvalues 1, 1/2, 0. On commutative
algebras this operator is plain multiplication by e; on noncommutative
ones the caller must opt in explicitly, and all component products here
use the symmetrized product so the matrix-unit example decomposes the
way its Peirce components are classically stated.

Membership is decided from the Peirce coordinates c = B^-1 x, where the
columns of B are the component bases b_1..b_d laid side by side: x lies
in a component exactly when c vanishes on the rows of the other two, and
its part in component K is the sum of c_i b_i over K's rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field

from .algebra import (
    Algebra,
    Element,
    check_enumerable,
    identity_element,
    mult_operators,
    multiply,
    noncommuting_pair,
)
from .errors import (
    AlgebraMismatch,
    CharacteristicUnsupported,
    DecompositionIncomplete,
    EnumerationTooLarge,
    ModeUnsupported,
    NoncommutativeDomain,
    NotIdempotent,
)
from .linalg import identity_matrix, invert, kernel_basis, mat_sub, mat_vec

HEURISTIC_DIM_CAP = 20


def symmetrized_product(a: Algebra, x: Element, y: Element) -> Element:
    """(xy + yx)/2; equals xy on commutative algebras."""
    f = a.field
    if f.characteristic == 2:
        raise CharacteristicUnsupported("symmetrized product needs characteristic != 2")
    half = f.inv(f.from_int(2))
    return (multiply(a, x, y) + multiply(a, y, x)).scaled(half)


def idempotent_class(a: Algebra, e: Element) -> str:
    """One of not_idempotent | zero | trivial_identity | nontrivial."""
    if e.algebra is not a:
        raise AlgebraMismatch("element belongs to a different algebra")
    if multiply(a, e, e) != e:
        return "not_idempotent"
    if e.is_zero():
        return "zero"
    unit = identity_element(a)
    if unit is not None and e == unit:
        return "trivial_identity"
    return "nontrivial"


@dataclass
class IdempotentHit:
    element: Element
    classification: str


def find_idempotents(a: Algebra, mode: str = "heuristic"):
    """Nonzero solutions of e*e = e, lexicographically sorted by coordinates.

    Exhaustive mode scans the whole finite carrier; heuristic mode tests
    the 0/1 coordinate vectors only, so it misses an idempotent such as a
    spin factor's (1 + v)/2, whose coordinates are 1/2.
    """
    f = a.field
    if mode == "exhaustive":
        p = f.characteristic
        if p == 0:
            raise ModeUnsupported("exhaustive idempotent search needs a finite field")
        check_enumerable(p, a.dim)
        coords = itertools.product(range(p), repeat=a.dim)
        candidates = (Element(a, c) for c in coords)
    elif mode == "heuristic":
        if a.dim > HEURISTIC_DIM_CAP:
            raise EnumerationTooLarge(f"0/1 sweep over dim {a.dim} exceeds 2^{HEURISTIC_DIM_CAP}")
        bits = itertools.product((f.zero(), f.one()), repeat=a.dim)
        candidates = (Element(a, b) for b in bits)
    else:
        raise ModeUnsupported(f"unknown idempotent search mode {mode!r}")
    # both sweeps yield distinct coordinate tuples in lexicographic order
    return [IdempotentHit(e, idempotent_class(a, e)) for e in candidates
            if not e.is_zero() and multiply(a, e, e) == e]


class PeirceDecomposition:
    """Eigenspace split J = J_1 + J_1/2 + J_0 for a nontrivial idempotent."""

    def __init__(self, algebra: Algebra, idempotent: Element, basis1, basis_half, basis0):
        self.algebra = algebra
        self.idempotent = idempotent
        self.basis1 = list(basis1)
        self.basis_half = list(basis_half)
        self.basis0 = list(basis0)
        f = algebra.field
        d = algebra.dim
        cols = [v.coords for v in self.basis1 + self.basis_half + self.basis0]
        if len(cols) != d:
            raise DecompositionIncomplete(
                f"component dimensions {self.dims} do not sum to {d}"
            )
        self.change_of_basis = [[cols[j][k] for j in range(d)] for k in range(d)]
        inv = invert(f, self.change_of_basis)
        if inv is None:
            raise DecompositionIncomplete("component bases are not linearly independent")
        self.inverse_basis = inv
        # the rows of B^-1, and the columns of B, that belong to each component
        d1, dh, _ = self.dims
        self.component_rows = {"1": range(d1), "half": range(d1, d1 + dh), "0": range(d1 + dh, d)}

    @property
    def dims(self) -> tuple[int, int, int]:
        return (len(self.basis1), len(self.basis_half), len(self.basis0))

    def component_basis(self, key: str):
        return {"1": self.basis1, "half": self.basis_half, "0": self.basis0}[key]


def peirce_decompose(
    a: Algebra, e: Element, allow_noncommutative: bool = False
) -> PeirceDecomposition:
    """Split the algebra into exact eigenspaces of (L_e + R_e)/2."""
    f = a.field
    if f.characteristic == 2:
        raise CharacteristicUnsupported("Peirce decomposition needs characteristic != 2")
    cls = idempotent_class(a, e)
    if cls != "nontrivial":
        raise NotIdempotent(f"need a nontrivial idempotent, got {cls}")
    if not allow_noncommutative and noncommuting_pair(a) is not None:
        raise NoncommutativeDomain(
            "algebra is noncommutative; pass allow_noncommutative=True "
            "to decompose with the symmetrized operator"
        )
    left, right = mult_operators(a, e)
    half = f.inv(f.from_int(2))
    d = a.dim
    op = [
        [f.mul(half, f.add(left.matrix[i][j], right.matrix[i][j])) for j in range(d)]
        for i in range(d)
    ]
    ident = identity_matrix(f, d)
    components = []
    for lam in (f.one(), half, f.zero()):
        shifted = mat_sub(f, op, [[f.mul(lam, c) for c in row] for row in ident])
        rows = kernel_basis(f, shifted)
        components.append([Element(a, tuple(v)) for v in rows])
    return PeirceDecomposition(a, e, *components)


def _coordinates(dec: PeirceDecomposition, x: Element) -> list:
    """The Peirce coordinates B^-1 x of x."""
    if x.algebra is not dec.algebra:
        raise AlgebraMismatch("element belongs to a different algebra")
    return mat_vec(dec.algebra.field, dec.inverse_basis, list(x.coords))


def peirce_project(dec: PeirceDecomposition, x: Element) -> tuple[Element, Element, Element]:
    """Unique components (x_1, x_half, x_0) with x = x_1 + x_half + x_0."""
    c = _coordinates(dec, x)
    return tuple(
        sum((b.scaled(c[i]) for i, b in zip(rows, dec.component_basis(key))), dec.algebra.zero())
        for key, rows in dec.component_rows.items()
    )


# ---------------------------------------------------------------------------
# multiplication relations and theorem conditions


@dataclass
class RelationCheck:
    name: str
    ok: bool
    witness: tuple | None = None


@dataclass
class PeirceRelationReport:
    checks: list

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)


def _component_parts_zero(dec, x, keys) -> bool:
    """True iff x has no part in the Peirce components keys ("1", "half", "0")."""
    c = _coordinates(dec, x)
    return all(dec.algebra.field.is_zero(c[i]) for k in keys for i in dec.component_rows[k])


def verify_peirce_relations(dec: PeirceDecomposition) -> PeirceRelationReport:
    """Check the five component multiplication relations on basis pairs."""
    a = dec.algebra
    checks = []

    def closed_in(name, lefts, rights, vanishing_keys):
        for u in lefts:
            for v in rights:
                prod = symmetrized_product(a, u, v)
                if not _component_parts_zero(dec, prod, vanishing_keys):
                    checks.append(RelationCheck(name, False, (u, v, prod)))
                    return
        checks.append(RelationCheck(name, True))

    closed_in("J0*J0 <= J0", dec.basis0, dec.basis0, ("1", "half"))
    closed_in("J1*J1 <= J1", dec.basis1, dec.basis1, ("half", "0"))
    # B^-1 is invertible: a product is zero when all its Peirce coordinates are
    closed_in("J1*J0 = 0", dec.basis1, dec.basis0, ("1", "half", "0"))
    closed_in(
        "(J1+J0)*Jhalf <= Jhalf", dec.basis1 + dec.basis0, dec.basis_half, ("1", "0")
    )
    closed_in("Jhalf*Jhalf <= J1+J0", dec.basis_half, dec.basis_half, ("half",))
    return PeirceRelationReport(checks)


@dataclass
class ConditionReport:
    cond_i: bool
    cond_ii: bool
    cond_iii: bool
    witnesses: dict = dataclass_field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return self.cond_i and self.cond_ii and self.cond_iii


def _annihilator_kernel(dec: PeirceDecomposition, t_basis, comp_basis):
    """Nonzero a in span(comp_basis) with t o a = 0 for all t, if any."""
    a = dec.algebra
    f = a.field
    if not comp_basis:
        return None
    if not t_basis:
        return comp_basis[0]  # empty quantifier: every element annihilates
    rows = []
    for t in t_basis:
        images = [symmetrized_product(a, t, v).coords for v in comp_basis]
        for k in range(a.dim):
            rows.append([img[k] for img in images])
    kern = kernel_basis(f, rows)
    if not kern:
        return None
    return sum((v.scaled(c) for c, v in zip(kern[0], comp_basis)), a.zero())


def check_theorem_conditions(dec: PeirceDecomposition) -> ConditionReport:
    """Kernel test of the three annihilator conditions of the additivity theorems.

    (i)  no nonzero a in J_1 or J_0 is killed by all of J_1/2;
    (ii) no nonzero a in J_0 is killed by all of J_0;
    (iii) no nonzero a in J_1/2 is killed by all of J_0.
    """
    witnesses = {}
    for key, t_basis, comp_basis in (
        ("i@J1", dec.basis_half, dec.basis1),
        ("i@J0", dec.basis_half, dec.basis0),
        ("ii", dec.basis0, dec.basis0),
        ("iii", dec.basis0, dec.basis_half),
    ):
        w = _annihilator_kernel(dec, t_basis, comp_basis)
        if w is not None:
            witnesses[key] = w
    return ConditionReport(
        cond_i="i@J1" not in witnesses and "i@J0" not in witnesses,
        cond_ii="ii" not in witnesses,
        cond_iii="iii" not in witnesses,
        witnesses=witnesses,
    )
