import itertools
import random

import numpy as np
import pytest

from jordankit import (
    Algebra,
    CarrierSizeMismatch,
    DerivationTable,
    MapTable,
    SearchBudget,
    additivity_audit,
    canonical_tree,
    carrier_of,
    check_theorem_conditions,
    enumerate_multiplicative_bijections,
    enumerate_n_derivations,
    find_idempotents,
    inner_derivation,
    is_additive,
    is_n_derivation,
    is_n_multiplicative,
    jordanify,
    matrix_units_algebra,
    peirce_decompose,
    prime_field,
)
from jordankit.linalg import invert, mat_mul, rref

import oracles
from conftest import diagonal_product_algebra
from strategies import changed, m2_plus_f, rescaled, spin_factor, t2_algebra


def table_set(stream):
    return [tuple(t.index_table().tolist()) for t in stream]


# ---------------------------------------------------------------------------
# bijection enumeration


def test_bijection_stream_includes_identity_and_transpose(kf3):
    search = enumerate_multiplicative_bijections(kf3, kf3, 2)
    tables = table_set(search)
    assert search.exhausted
    car = carrier_of(kf3)
    identity = tuple(range(car.size))
    assert identity in tables
    f = kf3.field
    perm = [0, 2, 1, 3]
    matrix = [[f.one() if perm[j] == i else f.zero() for j in range(4)] for i in range(4)]
    transpose = tuple(MapTable.from_matrix(kf3, kf3, matrix).index_table().tolist())
    assert transpose in tables


def test_bijection_stream_sound(kf3):
    for t in enumerate_multiplicative_bijections(kf3, kf3, 2):
        assert is_n_multiplicative(t, 2).ok


def gl2_f3_jordan_automorphisms(kf3):
    """Conjugations and transposed conjugations by GL2(F3), as index tables.

    Independent oracle for the multiplicative bijections of the
    symmetrized matrix algebra: 24 inner automorphisms (PGL2) plus 24
    transpose-composed ones.
    """
    car = carrier_of(kf3)
    tables = set()
    # coords (a,b,c,d) <-> matrix [[a,b],[c,d]] in the (e11,e10,e01,e00) basis
    for g in itertools.product(range(3), repeat=4):
        ga, gb, gc, gd = g
        det = (ga * gd - gb * gc) % 3
        if det == 0:
            continue
        det_inv = pow(det, 1, 3) and pow(det, 3 - 2, 3)
        ginv = [
            [(gd * det_inv) % 3, (-gb * det_inv) % 3],
            [(-gc * det_inv) % 3, (ga * det_inv) % 3],
        ]
        gm = np.array([[ga, gb], [gc, gd]], dtype=np.int64)
        gi = np.array(ginv, dtype=np.int64)
        for with_transpose in (False, True):
            out = np.empty(car.size, dtype=np.int64)
            for idx in range(car.size):
                a, b, c, d = (int(v) for v in car.coords[idx])
                x = np.array([[a, b], [c, d]], dtype=np.int64)
                y = (gm @ x @ gi) % 3
                if with_transpose:
                    y = y.T
                out[idx] = car.encode(np.array([y[0, 0], y[0, 1], y[1, 0], y[1, 1]]))
            tables.add(tuple(out.tolist()))
    return tables


def test_bijections_equal_gl2_oracle(kf3):
    found = set(table_set(enumerate_multiplicative_bijections(kf3, kf3, 2)))
    oracle = gl2_f3_jordan_automorphisms(kf3)
    assert len(oracle) == 48
    assert found == oracle


def test_bijection_stream_deterministic(kf3):
    first = table_set(enumerate_multiplicative_bijections(kf3, kf3, 2))
    second = table_set(enumerate_multiplicative_bijections(kf3, kf3, 2))
    assert first == second


def test_bijection_micro_instance_matches_bruteforce(f3):
    # dim-1 algebra: the field itself under multiplication
    a = diagonal_product_algebra(f3, 1)
    found = sorted(table_set(enumerate_multiplicative_bijections(a, a, 2)))
    oracle = oracles.bijections_bruteforce(carrier_of(a).mul)
    assert found == oracle == [(0, 1, 2)]


def test_bijection_size_mismatch(kf3, f3xf3):
    with pytest.raises(CarrierSizeMismatch):
        enumerate_multiplicative_bijections(kf3, f3xf3, 2)


def test_bijections_between_distinct_instances(kf3):
    # same table, distinct codomain instance: the cross-algebra code path
    from jordankit import jordanify, matrix_units_algebra

    other = jordanify(matrix_units_algebra(prime_field(3)))
    assert other is not kf3
    search = enumerate_multiplicative_bijections(kf3, other, 2)
    tables = table_set(search)
    assert search.exhausted
    same = set(table_set(enumerate_multiplicative_bijections(kf3, kf3, 2)))
    assert set(tables) == same


def test_all_found_bijections_are_semitriple(kf3):
    from jordankit import is_jordan_semitriple

    for t in enumerate_multiplicative_bijections(kf3, kf3, 2):
        assert is_jordan_semitriple(t).ok


def test_budget_seconds(kf5):
    search = enumerate_multiplicative_bijections(
        kf5, kf5, 2, SearchBudget(max_seconds=0.05)
    )
    tables = list(search)
    assert search.budget_exceeded
    assert not search.exhausted
    assert len(tables) < 240


# ---------------------------------------------------------------------------
# derivation enumeration


def test_derivation_stream_zero_always_present(kf3):
    search = enumerate_n_derivations(kf3, 2)
    tables = table_set(search)
    assert search.exhausted
    assert tuple([0] * 81) in tables


def test_derivation_stream_equals_bracket_span(kf3):
    """The emitted set equals the F3 span of the operator brackets [L_y, L_z].

    On a commutative algebra the three-term inner derivation collapses to
    3[L_y, L_z], which vanishes identically over F3, so the brackets
    themselves are the usable cross-check set here: each spans a
    derivation (filtered by is_n_derivation), they must all be yielded,
    and the exhaustive stream has nothing else.
    """
    from jordankit.linalg import mat_mul, mat_sub
    from jordankit import mult_operators

    f = kf3.field
    # the spec's literal cross-check set degenerates over F3
    zero_matrix = [[f.zero()] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            d = inner_derivation(kf3, kf3.basis_element(i), kf3.basis_element(j))
            assert d.matrix == zero_matrix

    flat = []
    for i in range(4):
        for j in range(4):
            ly = mult_operators(kf3, kf3.basis_element(i))[0].matrix
            lz = mult_operators(kf3, kf3.basis_element(j))[0].matrix
            m = mat_sub(f, mat_mul(f, ly, lz), mat_mul(f, lz, ly))
            flat.append([m[r][c] for r in range(4) for c in range(4)])
    basis, _ = rref(f, flat)
    basis = [row for row in basis if any(not f.is_zero(v) for v in row)]
    assert len(basis) == 3  # the derivation algebra is 3-dimensional
    span_tables = set()
    for coeffs in itertools.product(range(3), repeat=len(basis)):
        m = [[f.zero()] * 4 for _ in range(4)]
        for c, row in zip(coeffs, basis):
            cv = f.from_int(c)
            for r in range(4):
                for col in range(4):
                    m[r][col] = f.add(m[r][col], f.mul(cv, row[4 * r + col]))
        d = DerivationTable(kf3, matrix=m)
        assert is_n_derivation(d, 2).ok
        span_tables.add(tuple(d.index_table().tolist()))
    assert len(span_tables) == 27
    found = set(table_set(enumerate_n_derivations(kf3, 2)))
    assert found == span_tables


# ---------------------------------------------------------------------------
# stream completeness, from oracles that share no search code


def stream_algebra(request, name):
    """A conftest fixture by name, or spin3_f<p>: spin3_algebra(p)."""
    if name.startswith("spin3_f"):
        return spin3_algebra(int(name[len("spin3_f"):]))
    return request.getfixturevalue(name)


@pytest.mark.parametrize("name,n,kernel_dim", [
    pytest.param("kf3", 2, 3, id="3"),
    pytest.param("kf5", 2, 3, id="5"),
    pytest.param("spin3_f3", 2, 1, id="spin3_f3-1"),
    pytest.param("spin3_f5", 2, 1, id="spin3_f5-1"),
    pytest.param("spin3_f7", 2, 1, id="spin3_f7-1"),
    pytest.param("m2f3", 2, 3, id="m2f3-3"),
    pytest.param("kf3", 3, 3, id="n3-kf3-3"),
    pytest.param("spin3_f3", 3, 1, id="n3-spin3_f3-1"),
    pytest.param("spin3_f5", 3, 1, id="n3-spin3_f5-1"),
    pytest.param("spin3_f7", 3, 1, id="n3-spin3_f7-1"),
    pytest.param("m2f3", 3, 3, id="n3-m2f3-3"),
    pytest.param("kf3", 4, 4, id="n4-kf3-4", marks=pytest.mark.xfail(strict=True, reason=(
        "the degree-2 prefilter drops id, a 4-derivation in characteristic 3: "
        "27 tables are reported exhausted against a span of 81"))),
])
def test_derivation_stream_equals_leibniz_kernel_span(request, name, n, kernel_dim):
    """The n-derivation stream is the F_p span of the n-ary Leibniz system's kernel."""
    k = stream_algebra(request, name)
    kernel = oracles.leibniz_kernel(k, n)
    assert len(kernel) == kernel_dim
    span = {tuple(DerivationTable(k, matrix=m).index_table().tolist())
            for m in oracles.span_matrices(k.field, kernel)}
    assert len(span) == k.field.characteristic**kernel_dim
    search = enumerate_n_derivations(k, n)
    assert set(table_set(search)) == span and search.exhausted


@pytest.mark.parametrize("name,order", [
    # M2(F_p)^+: automorphisms and anti-automorphisms, 2 |PGL(2, p)|
    pytest.param("kf3", 2 * (3**3 - 3), id="3"),
    pytest.param("kf5", 2 * (5**3 - 5), id="5"),
    ("spin3_f3", 8),
    ("spin3_f5", 8),
    ("spin3_f7", 16),
    ("m2f3", 3**3 - 3),  # M2(F_3): its automorphisms, PGL(2, 3)
])
def test_bijection_stream_is_a_group(request, name, order):
    """The n = 2 bijections form a permutation group of the expected order."""
    k = stream_algebra(request, name)
    search = enumerate_multiplicative_bijections(k, k, 2)
    tables = table_set(search)
    assert search.exhausted
    assert len(tables) == order
    assert oracles.is_permutation_group(tables)


def test_group_oracle_rejects_a_non_group(kf3):
    tables = table_set(enumerate_multiplicative_bijections(kf3, kf3, 2))
    identity = tuple(range(len(tables[0])))
    assert not oracles.is_permutation_group([t for t in tables if t != identity])
    assert not oracles.is_permutation_group(tables[:-1])


def test_derivation_stream_sound(kf3):
    for t in enumerate_n_derivations(kf3, 2):
        assert is_n_derivation(t, 2).ok


def test_derivation_planted_non_leibniz_absent(kf3):
    car = carrier_of(kf3)
    plant = np.arange(car.size, dtype=np.int64)  # identity map: not a derivation
    assert not is_n_derivation(DerivationTable(kf3, table=plant), 2).ok
    assert tuple(plant.tolist()) not in table_set(enumerate_n_derivations(kf3, 2))


def test_derivation_stream_deterministic(kf3):
    first = table_set(enumerate_n_derivations(kf3, 2))
    second = table_set(enumerate_n_derivations(kf3, 2))
    assert first == second


def test_derivation_search_n3_micro(f3):
    a = diagonal_product_algebra(f3, 2)
    search = enumerate_n_derivations(a, 3)
    tables = table_set(search)
    assert search.exhausted
    assert tuple([0] * 9) in tables
    for t in tables:
        assert is_n_derivation(DerivationTable(a, table=list(t)), 3).ok


# ---------------------------------------------------------------------------
# budgets and the audit report


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_nodes=0)
    with pytest.raises(ValueError):
        SearchBudget(max_seconds=-1)
    with pytest.raises(ValueError):
        SearchBudget(max_witnesses=-1)
    SearchBudget(max_witnesses=0)  # allowed: empty-stream audits


@pytest.mark.parametrize("name", ["max_nodes", "max_seconds", "max_witnesses"])
def test_budget_rejects_nan(name):
    # NaN fails every comparison, so a NaN limit would never trip
    with pytest.raises(ValueError, match=name):
        SearchBudget(**{name: float("nan")})


def test_budget_witness_cap(kf3):
    search = enumerate_multiplicative_bijections(kf3, kf3, 2, SearchBudget(max_witnesses=5))
    tables = list(search)
    assert len(tables) == 5
    assert not search.exhausted
    assert search.budget_exceeded


def test_budget_nodes(kf3):
    search = enumerate_multiplicative_bijections(kf3, kf3, 2, SearchBudget(max_nodes=10))
    list(search)
    assert not search.exhausted
    assert search.budget_exceeded
    assert search.nodes <= 11


def test_budget_prefix_property(kf3):
    full = table_set(enumerate_multiplicative_bijections(kf3, kf3, 2))
    capped = table_set(
        enumerate_multiplicative_bijections(kf3, kf3, 2, SearchBudget(max_witnesses=7))
    )
    assert capped == full[:7]


def test_audit_full_run(kf3):
    dec = peirce_decompose(kf3, kf3.basis_element(0))
    report = additivity_audit(enumerate_multiplicative_bijections(kf3, kf3, 2), dec)
    assert report.witnesses_found == 48
    assert report.all_additive
    assert report.nonadditive_witnesses == []
    assert report.exhausted
    assert report.hypothesis_record.all_ok


def test_audit_derivations(kf3):
    dec = peirce_decompose(kf3, kf3.basis_element(0))
    report = additivity_audit(enumerate_n_derivations(kf3, 2), dec)
    assert report.witnesses_found == 27
    assert report.all_additive and report.exhausted


def test_audit_condition_failure_is_recorded(f3xf3):
    dec = peirce_decompose(f3xf3, f3xf3.element([1, 0]))
    report = additivity_audit(enumerate_multiplicative_bijections(f3xf3, f3xf3, 2), dec)
    assert report.hypothesis_record.cond_i is False
    assert report.exhausted
    # informational only: both witnesses here happen to be additive
    assert report.witnesses_found == 2


def test_audit_empty_stream_vacuous(kf3):
    dec = peirce_decompose(kf3, kf3.basis_element(0))
    search = enumerate_multiplicative_bijections(kf3, kf3, 2, SearchBudget(max_witnesses=0))
    report = additivity_audit(search, dec)
    assert report.witnesses_found == 0
    assert report.all_additive  # vacuous
    assert not report.exhausted


def test_audit_of_a_plain_list_is_not_exhausted(kf3):
    # a list has no run record, so nothing says it holds every witness
    tables = list(enumerate_n_derivations(kf3, 2))
    report = additivity_audit(tables)
    assert report.witnesses_found == 27 and report.all_additive
    assert not report.exhausted and not report.budget_exceeded
    assert report.tables == tables


def test_audit_finds_nonadditive_bijections(ehz):
    # E fails conditions (i)-(iii), and its 2-multiplicative bijections need
    # not be additive; 50 of its 6144 are enough
    dec = peirce_decompose(ehz, ehz.element([1, 0, 0]))
    search = enumerate_multiplicative_bijections(ehz, ehz, 2, SearchBudget(max_witnesses=50))
    report = additivity_audit(search, dec)
    assert report.witnesses_found == 50 and not report.exhausted
    assert not report.all_additive and report.nonadditive_witnesses
    for t in report.nonadditive_witnesses:
        assert is_n_multiplicative(t, 2) and not is_additive(t)
    car = carrier_of(ehz)
    swap = np.arange(car.size)
    i, j = car.index_of(ehz.element([2, 2, 1])), car.index_of(ehz.element([2, 2, 2]))
    swap[i], swap[j] = j, i
    assert any(np.array_equal(t.index_table(), swap) for t in report.nonadditive_witnesses)


def spin3_algebra(p):
    """The 3-dim Jordan subalgebra span(e11, e10+e01, e00) of the
    symmetrized matrix algebra, as its own structure-constant table."""
    f = prime_field(p)
    zero, one = f.zero(), f.one()
    half = f.inv(f.from_int(2))
    table = [[[zero] * 3 for _ in range(3)] for _ in range(3)]
    table[0][0][0] = one  # e*e = e
    table[0][1][1] = half  # e*w = w/2
    table[1][0][1] = half
    table[1][1][0] = one  # w*w = e + u
    table[1][1][2] = one
    table[2][1][1] = half  # u*w = w/2
    table[1][2][1] = half
    table[2][2][2] = one  # u*u = u
    return Algebra(f, ("e", "w", "u"), table, name=f"spin3_f{p}")


@pytest.mark.parametrize(
    "p,n_maps,n_derivs",
    [(3, 8, 3), (5, 8, 5), (7, 16, 7)],
    # derivation counts are p: the derivation algebra here is 1-dimensional
)
def test_theorem_instances_spin_factor(p, n_maps, n_derivs):
    a = spin3_algebra(p)
    from jordankit import identity_report

    assert identity_report(a).jordan
    e = a.element([1, 0, 0])
    dec = peirce_decompose(a, e)
    assert dec.dims == (1, 1, 1)
    assert check_theorem_conditions(dec).all_ok
    maps_report = additivity_audit(enumerate_multiplicative_bijections(a, a, 2), dec)
    assert maps_report.exhausted and maps_report.all_additive
    assert maps_report.witnesses_found == n_maps
    derivs_report = additivity_audit(enumerate_n_derivations(a, 2), dec)
    assert derivs_report.exhausted and derivs_report.all_additive
    assert derivs_report.witnesses_found == n_derivs


def test_theorem_instances_spin_factor_degree_3(f3):
    # degree-3 searches on a conditions-satisfying Jordan ring: the
    # additivity theorems quantify over every n >= 2
    a = spin3_algebra(3)
    e = a.element([1, 0, 0])
    dec = peirce_decompose(a, e)
    maps3 = list(enumerate_multiplicative_bijections(a, a, 3))
    assert len(maps3) == 8
    assert all(is_additive(t).ok for t in maps3)
    derivs3 = list(enumerate_n_derivations(a, 3))
    assert len(derivs3) == 3
    for t in derivs3:
        assert is_additive(t).ok
        from jordankit import peirce_project

        p1, _, p0 = peirce_project(dec, t.apply(e))
        assert p1.is_zero() and p0.is_zero()
    # canonical 2-multiplicativity implies canonical n-multiplicativity,
    # and here the degree-3 witnesses are exactly the degree-2 ones
    n2 = set(table_set(enumerate_multiplicative_bijections(a, a, 2)))
    assert n2 == {tuple(t.index_table().tolist()) for t in maps3}


def first_nontrivial(a):
    """The first nontrivial idempotent of the heuristic 0/1 sweep."""
    return next(h.element for h in find_idempotents(a, "heuristic")
                if h.classification == "nontrivial")


def half_unit_plus_v1(a):
    """(u + v1)/2 in a spin factor: its coordinates are 1/2, outside the 0/1 sweep."""
    half = a.field.inv(a.field.from_int(2))
    return a.element([half, half, a.field.zero()])


def unit_diagonal(p, dim, seed):
    """Seeded nonzero scalars s_i: an invertible diagonal change of basis."""
    rng = random.Random(seed)
    return [rng.randrange(1, p) for _ in range(dim)]


def in_rescaled_basis(coords, scalars):
    """The element with these coordinates in the basis b_i, written in the basis
    s_i b_i of strategies.rescaled: coordinates x_i / s_i. The 0/1 sweep may
    not find it there."""
    def element(a):
        f = a.field
        return a.element([f.mul(f.from_int(c), f.inv(f.from_int(s)))
                          for c, s in zip(coords, scalars)])
    return element


K3_SCALARS = unit_diagonal(3, 4, seed=0)
T2_SCALARS = unit_diagonal(5, 3, seed=0)


@pytest.mark.parametrize(
    "make,idempotent,dims,conditions,n_maps,n_nonadditive_maps,n_derivs",
    [
        (lambda: t2_algebra(3), first_nontrivial, (1, 1, 1), True, 12, 0, 9),
        (lambda: t2_algebra(5), first_nontrivial, (1, 1, 1), True, 40, 0, 25),
        (lambda: diagonal_product_algebra(prime_field(5), 2), first_nontrivial,
         (1, 0, 1), False, 8, 6, 1),
        (lambda: spin_factor(3), half_unit_plus_v1, (1, 1, 1), True, 8, 0, 3),
        (lambda: spin_factor(5), half_unit_plus_v1, (1, 1, 1), True, 8, 0, 5),
        # 243 elements, uint8 tables; condition (i) fails: J_1/2 kills f in J0
        (lambda: m2_plus_f(3), lambda a: a.basis_element(0), (1, 2, 2), False, 48, 0, 27),
        # isomorphic copies under a seeded diagonal change of basis: every count is invariant
        (lambda: rescaled(jordanify(matrix_units_algebra(prime_field(3))), K3_SCALARS),
         in_rescaled_basis((1, 0, 0, 0), K3_SCALARS), (1, 2, 1), True, 48, 0, 27),
        (lambda: rescaled(t2_algebra(5), T2_SCALARS),
         in_rescaled_basis((0, 0, 1), T2_SCALARS), (1, 1, 1), True, 40, 0, 25),
    ],
    ids=["t2-f3", "t2-f5", "f5xf5", "spin-f3", "spin-f5", "m2+f-f3", "kf3-rescaled",
         "t2-f5-rescaled"],
)
def test_theorem_as_oracle_at_n2(make, idempotent, dims, conditions, n_maps,
                                 n_nonadditive_maps, n_derivs):
    # Theorems 2.1 and 3.1 as an oracle: where conditions (i)-(iii) hold at
    # the idempotent, an exhausted search finds only additive maps. F5 x F5
    # fails them (Jhalf = 0) and has non-additive bijections (x -> x^3 on a
    # factor), so the oracle discriminates.
    a = make()
    dec = peirce_decompose(a, idempotent(a))
    assert dec.dims == dims
    car = carrier_of(a)
    elems = [car.element_at(i) for i in range(car.size)]
    for derivation, search, count, n_nonadditive in (
        (False, enumerate_multiplicative_bijections(a, a, 2), n_maps, n_nonadditive_maps),
        (True, enumerate_n_derivations(a, 2), n_derivs, 0),
    ):
        report = additivity_audit(search, dec)
        assert report.hypothesis_record.all_ok == conditions
        assert report.exhausted and report.witnesses_found == count
        assert not (report.hypothesis_record.all_ok and report.exhausted) or report.all_additive
        assert len(report.nonadditive_witnesses) == n_nonadditive
        # each non-additive witness re-checks on the Element path
        for t in report.nonadditive_witnesses:
            assert oracles.first_identity_failure(t, 2, [canonical_tree(2)], derivation) is None
            pairs = itertools.product(elems, repeat=2)
            assert any(t.apply(x + y) != t.apply(x) + t.apply(y) for x, y in pairs)


def invertible(p, dim, seed):
    """A seeded matrix in GL(dim, F_p), drawn entry by entry until it inverts."""
    rng = random.Random(seed)
    f = prime_field(p)
    while True:
        m = [[rng.randrange(p) for _ in range(dim)] for _ in range(dim)]
        if invert(f, [[f.from_int(c) for c in row] for row in m]) is not None:
            return m


def test_changed_with_a_diagonal_matrix_is_rescaled(kf3):
    diagonal = [[s * (i == j) for j in range(4)] for i, s in enumerate(K3_SCALARS)]
    assert changed(kf3, diagonal).table == rescaled(kf3, K3_SCALARS).table


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_counts_hold_under_a_general_change_of_basis(kf3, seed):
    # a general P mixes basis vectors, so the carrier order that the search
    # branches in, and every plan it builds, change; the answer does not
    a = changed(kf3, invertible(3, 4, seed))
    for n in (2, 3):
        for search, count in ((enumerate_multiplicative_bijections(a, a, n), 48),
                              (enumerate_n_derivations(a, n), 27)):
            tables = list(search)
            assert (len(tables), search.exhausted) == (count, True)
            assert all(is_additive(t).ok for t in tables)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_t2_counts_hold_under_a_general_change_of_basis(seed):
    # T2/F3 in a mixed basis: the given basis's 12 bijections and 9
    # derivations, at n = 3 too, where the closure runs its lower levels
    a = changed(t2_algebra(3), invertible(3, 3, seed))
    for n in (2, 3):
        for search, count in ((enumerate_multiplicative_bijections(a, a, n), 12),
                              (enumerate_n_derivations(a, n), 9)):
            tables = list(search)
            assert (len(tables), search.exhausted) == (count, True)
            assert all(is_additive(t).ok for t in tables)


def isomorphism_onto_changed(a, P):
    """changed(a, P) and the index table of the isomorphism onto it that
    P gives: x stays the same element, with coordinates x P^-1."""
    b = changed(a, P)
    f = a.field
    inverse = invert(f, [[f.from_int(c) for c in row] for row in P])
    src, dst = carrier_of(a), carrier_of(b)
    psi = [dst.index_of(b.element(mat_mul(f, [list(src.element_at(i).coords)], inverse)[0]))
           for i in range(src.size)]
    return b, psi


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name,dim", [("f5xf5", 2), ("kf3", 4)])
def test_bijections_onto_a_changed_basis_are_the_isomorphism_after_each(name, dim, seed, kf3, f5):
    # J -> P.J: the codomain carrier is ordered apart from the domain's, so
    # each closure row takes its owners over another carrier than its
    # values; the stream is psi after each J -> J bijection, in lex order,
    # and psi keeps a witness additive or not
    a = kf3 if name == "kf3" else diagonal_product_algebra(f5, 2)
    b, psi = isomorphism_onto_changed(a, invertible(a.field.characteristic, dim, seed))
    assert psi != sorted(psi)  # P reorders the carrier
    search = enumerate_multiplicative_bijections(a, b, 2)
    maps = list(search)
    tables = table_set(maps)
    assert search.exhausted and tables == sorted(set(tables))
    own = list(enumerate_multiplicative_bijections(a, a, 2))
    after = [tuple(psi[i] for i in t.index_table().tolist()) for t in own]
    assert set(tables) == set(after)
    nonadditive = {u for u, t in zip(tables, maps) if not is_additive(t).ok}
    assert nonadditive == {u for u, t in zip(after, own) if not is_additive(t).ok}
    assert len(tables) == {"kf3": 48, "f5xf5": 8}[name]
    assert bool(nonadditive) == (name == "f5xf5")


def test_f5xf5_cube_map_is_a_nonadditive_3_multiplicative_bijection():
    # F5 x F5 fails conditions (i)-(iii) at the idempotent of its n = 2
    # oracle case, and x -> x^3 on each factor is 3-multiplicative,
    # bijective (gcd(3, 4) = 1) and not additive: (1 + 1)^3 = 3
    a = diagonal_product_algebra(prime_field(5), 2)
    dec = peirce_decompose(a, first_nontrivial(a))
    report = additivity_audit(enumerate_multiplicative_bijections(a, a, 3), dec)
    assert report.exhausted and not report.hypothesis_record.all_ok
    car = carrier_of(a)
    f = a.field
    cube = [car.index_of(a.element([f.mul(c, f.mul(c, c)) for c in car.element_at(i).coords]))
            for i in range(car.size)]
    (table,) = [t for t in report.nonadditive_witnesses if t.index_table().tolist() == cube]
    assert oracles.first_identity_failure(table, 3, [canonical_tree(3)], False) is None
    x = a.basis_element(0)
    assert table.apply(x + x) != table.apply(x) + table.apply(x)


def test_bijection_search_n3_micro(f3xf3):
    search = enumerate_multiplicative_bijections(f3xf3, f3xf3, 3)
    tables = table_set(search)
    assert search.exhausted
    for t in tables:
        assert is_n_multiplicative(MapTable(f3xf3, f3xf3, table=list(t)), 3).ok
    # on this instance the 3-multiplicative bijections coincide with the
    # 2-multiplicative ones (identity and the component swap)
    assert set(tables) == set(table_set(enumerate_multiplicative_bijections(f3xf3, f3xf3, 2)))
