import itertools
import random

import pytest

from jordankit import (
    AlgebraMismatch,
    CharacteristicUnsupported,
    DecompositionIncomplete,
    EnumerationTooLarge,
    ModeUnsupported,
    NoncommutativeDomain,
    NotIdempotent,
    carrier_of,
    check_theorem_conditions,
    find_idempotents,
    idempotent_class,
    identity_element,
    multiply,
    peirce_decompose,
    peirce_project,
    prime_field,
    symmetrized_product,
    verify_peirce_relations,
)
from jordankit.linalg import invert
from jordankit.peirce import _component_parts_zero

import oracles
from conftest import diagonal_product_algebra, planted_peirce_violation


# ---------------------------------------------------------------------------
# idempotents


def test_idempotent_class(m2q):
    e11 = m2q.basis_element(0)
    assert idempotent_class(m2q, e11) == "nontrivial"
    assert idempotent_class(m2q, e11 + m2q.basis_element(3)) == "trivial_identity"
    assert idempotent_class(m2q, m2q.basis_element(1)) == "not_idempotent"
    assert idempotent_class(m2q, m2q.zero()) == "zero"


def test_idempotent_class_mismatch(m2q, kq):
    with pytest.raises(AlgebraMismatch):
        idempotent_class(m2q, kq.basis_element(0))


def test_find_idempotents_exhaustive_matches_bruteforce(m2f3):
    hits = find_idempotents(m2f3, mode="exhaustive")
    expected = oracles.idempotents_bruteforce(m2f3)
    assert [h.element.coords for h in hits] == expected
    assert len(hits) == 13
    coords = {h.element.coords for h in hits}
    assert (1, 0, 0, 0) in coords and (0, 0, 0, 1) in coords and (1, 0, 0, 1) in coords
    classes = {h.element.coords: h.classification for h in hits}
    assert classes[(1, 0, 0, 1)] == "trivial_identity"
    assert classes[(1, 0, 0, 0)] == "nontrivial"


def test_find_idempotents_zero_algebra(f3):
    from jordankit import Algebra

    zero = f3.zero()
    a = Algebra(f3, ("z",), [[[zero]]])
    assert find_idempotents(a, mode="exhaustive") == []


def test_find_idempotents_heuristic(kq):
    hits = find_idempotents(kq, mode="heuristic")
    coords = {h.element.coords for h in hits}
    assert (1, 0, 0, 0) in coords and (0, 0, 0, 1) in coords and (1, 0, 0, 1) in coords
    # sorted lexicographically
    all_coords = [h.element.coords for h in hits]
    assert all_coords == sorted(all_coords)


def test_find_idempotents_heuristic_misses_off_grid(kq):
    f = kq.field
    # e11 + e10 squares to itself in the symmetrized algebra and is on
    # the 0/1 grid; a genuinely off-grid idempotent uses 1/2 coords
    cand = kq.element([1, 1, 0, 0])
    half = f.inv(f.from_int(2))
    off_grid = kq.element([half, half, half, half])
    assert multiply(kq, off_grid, off_grid) == off_grid
    plain = {h.element.coords for h in find_idempotents(kq, mode="heuristic")}
    assert cand.coords in plain
    assert off_grid.coords not in plain


def test_find_idempotents_mode_errors(kq, f3):
    with pytest.raises(ModeUnsupported):
        find_idempotents(kq, mode="exhaustive")
    with pytest.raises(ModeUnsupported):
        find_idempotents(kq, mode="bogus")
    with pytest.raises(EnumerationTooLarge):
        find_idempotents(diagonal_product_algebra(f3, 13), mode="exhaustive")


def test_find_idempotents_heuristic_dim_cap(q):
    from jordankit import Algebra

    dim = 21
    zero = q.zero()
    row = [[zero] * dim for _ in range(dim)]
    table = [row for _ in range(dim)]  # all-zero products
    a = Algebra(q, tuple(f"b{i}" for i in range(dim)), table)
    with pytest.raises(EnumerationTooLarge):
        find_idempotents(a, mode="heuristic")


# ---------------------------------------------------------------------------
# decomposition


def test_peirce_decompose_jordanified(kq):
    dec = peirce_decompose(kq, kq.basis_element(0))
    assert dec.dims == (1, 2, 1)
    assert dec.basis1 == [kq.basis_element(0)]
    assert dec.basis_half == [kq.basis_element(1), kq.basis_element(2)]
    assert dec.basis0 == [kq.basis_element(3)]


@pytest.mark.parametrize("p", [3, 5])
def test_peirce_decompose_finite_fields(p):
    from jordankit import jordanify, matrix_units_algebra

    k = jordanify(matrix_units_algebra(prime_field(p)))
    dec = peirce_decompose(k, k.basis_element(0))
    assert dec.dims == (1, 2, 1)


def test_peirce_decompose_symmetrized_m2(m2q):
    e11 = m2q.basis_element(0)
    with pytest.raises(NoncommutativeDomain):
        peirce_decompose(m2q, e11)
    dec = peirce_decompose(m2q, e11, allow_noncommutative=True)
    assert dec.dims == (1, 2, 1)
    assert dec.basis_half == [m2q.basis_element(1), m2q.basis_element(2)]


def test_peirce_decompose_rejects_trivial(kq):
    unit = identity_element(kq)
    with pytest.raises(NotIdempotent):
        peirce_decompose(kq, unit)
    with pytest.raises(NotIdempotent):
        peirce_decompose(kq, kq.zero())
    with pytest.raises(NotIdempotent):
        peirce_decompose(kq, kq.basis_element(1))


def test_peirce_decompose_char2():
    f2 = prime_field(2)
    a = diagonal_product_algebra(f2, 2)
    with pytest.raises(CharacteristicUnsupported):
        peirce_decompose(a, a.element([1, 0]))


def test_peirce_decompose_incomplete(q):
    # commutative, e idempotent, but e*u = u/3: 1/3 is not a Peirce eigenvalue
    from jordankit import Algebra

    f = q
    zero = f.zero()
    third = f.inv(f.from_int(3))
    table = [[[zero] * 2 for _ in range(2)] for _ in range(2)]
    table[0][0][0] = f.one()
    table[0][1][1] = third
    table[1][0][1] = third
    a = Algebra(f, ("e", "u"), table)
    with pytest.raises(DecompositionIncomplete):
        peirce_decompose(a, a.element([1, 0]))


def test_peirce_decompose_nondiagonalizable(q):
    # e*v = v + u puts a Jordan block at eigenvalue 1: eigenspaces cannot
    # exhaust the space even though every eigenvalue is in {1, 1/2, 0}
    from jordankit import Algebra

    f = q
    zero, one = f.zero(), f.one()
    table = [[[zero] * 3 for _ in range(3)] for _ in range(3)]
    table[0][0][0] = one
    table[0][1][1] = one
    table[1][0][1] = one
    table[0][2][2] = one
    table[0][2][1] = one
    table[2][0][2] = one
    table[2][0][1] = one
    a = Algebra(f, ("e", "u", "v"), table)
    with pytest.raises(DecompositionIncomplete):
        peirce_decompose(a, a.element([1, 0, 0]))


def test_idempotent_lands_in_j1(kq, f3xf3):
    for alg, e in ((kq, kq.basis_element(0)), (f3xf3, f3xf3.element([1, 0]))):
        dec = peirce_decompose(alg, e)
        p1, ph, p0 = peirce_project(dec, e)
        assert p1 == e and ph.is_zero() and p0.is_zero()


def test_direct_sum_invertible_change_of_basis(kq):
    dec = peirce_decompose(kq, kq.basis_element(0))
    assert invert(kq.field, dec.change_of_basis) is not None


# ---------------------------------------------------------------------------
# projection


def test_peirce_project_cases(kq):
    dec = peirce_decompose(kq, kq.basis_element(0))
    e11, e10, e01, e00 = (kq.basis_element(i) for i in range(4))
    assert peirce_project(dec, e11 + e10 + e00) == (e11, e10, e00)
    z = kq.zero()
    assert peirce_project(dec, z) == (z, z, z)
    assert peirce_project(dec, e10 + e01) == (z, e10 + e01, z)


def test_peirce_project_sums_to_input(kq):
    import random

    dec = peirce_decompose(kq, kq.basis_element(0))
    rng = random.Random(17)
    f = kq.field
    for _ in range(20):
        x = kq.element([f.from_int(rng.randint(-5, 5)) for _ in range(4)])
        p1, ph, p0 = peirce_project(dec, x)
        assert p1 + ph + p0 == x


def test_peirce_project_idempotent_property(kq):
    dec = peirce_decompose(kq, kq.basis_element(0))
    x = kq.element([2, 3, -1, 5])
    p1, ph, p0 = peirce_project(dec, x)
    assert peirce_project(dec, p1) == (p1, kq.zero(), kq.zero())
    assert peirce_project(dec, ph) == (kq.zero(), ph, kq.zero())
    assert peirce_project(dec, p0) == (kq.zero(), kq.zero(), p0)


def assert_parts_are_eigenvectors(dec, x):
    """peirce_project's parts sum to x, satisfy e o x_l = l x_l, and decide
    _component_parts_zero for every set of components."""
    a, f, e = dec.algebra, dec.algebra.field, dec.idempotent
    parts = peirce_project(dec, x)
    assert parts[0] + parts[1] + parts[2] == x
    for lam, part in zip((f.one(), f.inv(f.from_int(2)), f.zero()), parts):
        assert symmetrized_product(a, e, part) == part.scaled(lam)
    keys = ("1", "half", "0")
    for r in range(4):
        for chosen in itertools.combinations(range(3), r):
            expected = all(parts[i].is_zero() for i in chosen)
            assert _component_parts_zero(dec, x, [keys[i] for i in chosen]) == expected


def test_peirce_project_eigen_equations_on_kf3(kf3):
    car = carrier_of(kf3)
    for hit in find_idempotents(kf3, mode="exhaustive"):
        if hit.classification != "nontrivial":
            continue
        dec = peirce_decompose(kf3, hit.element)
        for i in range(car.size):
            assert_parts_are_eigenvectors(dec, car.element_at(i))


@pytest.mark.parametrize("idempotent", ["1,0,0,0", "1,1,0,0", "1/2,1/2,1/2,1/2"])
def test_peirce_project_eigen_equations_on_kq(kq, idempotent):
    dec = peirce_decompose(kq, kq.parse_element(idempotent))
    rng = random.Random(5)
    f = kq.field
    for _ in range(30):
        coords = [f.parse(f"{rng.randint(-6, 6)}/{rng.randint(1, 4)}") for _ in range(4)]
        assert_parts_are_eigenvectors(dec, kq.element(coords))


def test_peirce_project_mismatch(kq, m2q):
    dec = peirce_decompose(kq, kq.basis_element(0))
    with pytest.raises(AlgebraMismatch):
        peirce_project(dec, m2q.basis_element(0))


# ---------------------------------------------------------------------------
# relations


def test_relations_jordanified(kq):
    dec = peirce_decompose(kq, kq.basis_element(0))
    report = verify_peirce_relations(dec)
    assert report.all_ok
    assert [c.name for c in report.checks] == [
        "J0*J0 <= J0",
        "J1*J1 <= J1",
        "J1*J0 = 0",
        "(J1+J0)*Jhalf <= Jhalf",
        "Jhalf*Jhalf <= J1+J0",
    ]


def test_relations_j1j0_annihilates(kq):
    # e11 o e00 = 0, the paper's delta computation
    assert symmetrized_product(kq, kq.basis_element(0), kq.basis_element(3)).is_zero()


def test_relations_m2_symmetrized(m2q):
    dec = peirce_decompose(m2q, m2q.basis_element(0), allow_noncommutative=True)
    assert verify_peirce_relations(dec).all_ok


def test_relations_planted_violation(q):
    a = planted_peirce_violation(q)
    dec = peirce_decompose(a, a.element([1, 0, 0]))
    assert dec.dims == (1, 1, 1)
    report = verify_peirce_relations(dec)
    by_name = {c.name: c for c in report.checks}
    bad = by_name["J0*J0 <= J0"]
    assert not bad.ok
    u, v, prod = bad.witness
    # the witness product really escapes J_0
    p1, ph, p0 = peirce_project(dec, prod)
    assert not p1.is_zero() or not ph.is_zero()
    assert report.all_ok is False


def test_relations_hold_on_commutative_jordan_examples(kf3, kf5, f3xf3):
    for alg, e_coords in ((kf3, [1, 0, 0, 0]), (kf5, [1, 0, 0, 0]), (f3xf3, [1, 0])):
        dec = peirce_decompose(alg, alg.element(e_coords))
        assert verify_peirce_relations(dec).all_ok


# ---------------------------------------------------------------------------
# theorem conditions


def test_conditions_jordanified_q(kq):
    dec = peirce_decompose(kq, kq.basis_element(0))
    cond = check_theorem_conditions(dec)
    assert cond.cond_i and cond.cond_ii and cond.cond_iii
    assert cond.all_ok


def test_conditions_m2_symmetrized(m2q):
    dec = peirce_decompose(m2q, m2q.basis_element(0), allow_noncommutative=True)
    cond = check_theorem_conditions(dec)
    assert cond.cond_i and cond.cond_ii and cond.cond_iii


def test_conditions_f3xf3_cond_i_fails(f3xf3):
    dec = peirce_decompose(f3xf3, f3xf3.element([1, 0]))
    assert dec.dims == (1, 0, 1)
    cond = check_theorem_conditions(dec)
    assert not cond.cond_i
    assert cond.cond_ii and cond.cond_iii
    for key in ("i@J1", "i@J0"):
        assert key in cond.witnesses and not cond.witnesses[key].is_zero()


@pytest.mark.parametrize("fixture", ["kf3", "kf5"])
def test_conditions_match_bruteforce(fixture, request):
    alg = request.getfixturevalue(fixture)
    dec = peirce_decompose(alg, alg.basis_element(0))
    cond = check_theorem_conditions(dec)
    oracle = oracles.conditions_bruteforce(dec)
    assert cond.cond_i is oracle["cond_i"]
    assert cond.cond_ii is oracle["cond_ii"]
    assert cond.cond_iii is oracle["cond_iii"]


def test_conditions_match_bruteforce_on_failure(f3xf3):
    dec = peirce_decompose(f3xf3, f3xf3.element([1, 0]))
    cond = check_theorem_conditions(dec)
    oracle = oracles.conditions_bruteforce(dec)
    assert cond.cond_i is oracle["cond_i"] is False
    assert cond.cond_ii is oracle["cond_ii"] is True
    assert cond.cond_iii is oracle["cond_iii"] is True


def test_conditions_fail_through_the_kernel_branch(ehz):
    # J_1/2 != 0, so each condition is decided by a kernel, not by an empty quantifier
    dec = peirce_decompose(ehz, ehz.element([1, 0, 0]))
    assert dec.dims == (1, 1, 1)
    cond = check_theorem_conditions(dec)
    oracle = oracles.conditions_bruteforce(dec)
    assert cond.cond_i is oracle["cond_i"] is False
    assert cond.cond_ii is oracle["cond_ii"] is False
    assert cond.cond_iii is oracle["cond_iii"] is False
    assert cond.witnesses == {
        "i@J0": ehz.element([0, 0, 1]),
        "ii": ehz.element([0, 0, 1]),
        "iii": ehz.element([0, 1, 0]),
    }
    keys = ("1", "half", "0")
    for key, quantified, component in (
        ("i@J0", dec.basis_half, "0"), ("ii", dec.basis0, "0"), ("iii", dec.basis0, "half"),
    ):
        w = cond.witnesses[key]
        assert not w.is_zero()
        assert _component_parts_zero(dec, w, [k for k in keys if k != component])
        assert all(symmetrized_product(ehz, t, w).is_zero() for t in quantified)
