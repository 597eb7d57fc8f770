import itertools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jordankit import (
    AlgebraMismatch,
    ArityMismatch,
    BudgetExceeded,
    CarrierInfinite,
    DerivationTable,
    FormatError,
    MapTable,
    NoncommutativeDomain,
    NotDerivation,
    PreconditionViolated,
    TorsionViolation,
    Verdict,
    carrier_of,
    canonical_tree,
    derivation_peirce_check,
    inner_derivation,
    is_additive,
    is_bijective,
    is_jordan_semitriple,
    is_jordan_triple_derivation,
    is_n_derivation,
    is_n_multiplicative,
    jordanify,
    load_map_table,
    map_table_from_dict,
    map_table_to_dict,
    matrix_units_algebra,
    monomial_eval,
    mult_operators,
    multiply,
    peirce_decompose,
    peirce_project,
    prime_field,
    reduce_derivation,
    save_algebra,
    save_map_table,
)
from jordankit import maps as maps_module
from jordankit.linalg import invert, mat_mul, mat_sub
from jordankit.maps import _component_masks

import oracles
from conftest import diagonal_product_algebra, planted_peirce_violation
from strategies import f3_algebras


def transpose_map(alg):
    f = alg.field
    perm = [0, 2, 1, 3]  # e10 <-> e01
    matrix = [[f.one() if perm[j] == i else f.zero() for j in range(4)] for i in range(4)]
    return MapTable.from_matrix(alg, alg, matrix)


def scaling_map(alg, c):
    f = alg.field
    cv = f.from_int(c)
    matrix = [[cv if i == j else f.zero() for j in range(4)] for i in range(4)]
    return MapTable.from_matrix(alg, alg, matrix)


# ---------------------------------------------------------------------------
# is_additive / is_bijective


def test_identity_additive(kf3):
    assert is_additive(MapTable.identity(kf3)).ok


def test_zero_map_additive(kf3):
    assert is_additive(MapTable.zero(kf3)).ok


def test_swapped_entries_not_additive(kf3):
    car = carrier_of(kf3)
    table = np.arange(car.size, dtype=np.int64)
    i = car.index_of(kf3.basis_element(0))
    j = car.index_of(kf3.basis_element(0).scaled(2))
    table[i], table[j] = table[j], table[i]
    m = MapTable(kf3, kf3, table=table)
    verdict = is_additive(m)
    assert not verdict.ok
    x, y = verdict.witness
    assert m.apply(x + y) != m.apply(x) + m.apply(y)


def test_tables_are_index_dtype_copies(kf5):
    # one table format whatever the input: uint16 holds K/F5's 625 indices
    car = carrier_of(kf5)
    perm = np.random.default_rng(0).permutation(car.size)
    for dtype in (np.int64, np.int32, np.uint16):
        source = perm.astype(dtype)
        m = MapTable(kf5, kf5, table=source)
        source[0] = source[1]  # the map keeps its own copy
        assert m.index_table().dtype == np.uint16
        assert m.index_table().tolist() == perm.tolist()
    assert MapTable.identity(kf5).index_table().dtype == np.uint16
    identity = MapTable(kf5, kf5, table=np.arange(car.size))
    assert is_additive(identity) and is_n_multiplicative(identity, 2)
    assert not is_additive(MapTable(kf5, kf5, table=perm))
    assert is_n_derivation(DerivationTable.from_map(MapTable.zero(kf5)), 2)


def wide_kf5_table(kf5, kind: str) -> MapTable:
    """A K/F5 map whose images pass 255, stored as uint16."""
    car = carrier_of(kf5)
    f, b = kf5.field, kf5.basis_elements()
    table = {
        "identity": lambda: np.arange(car.size),
        "double": lambda: car.scalar_map(f.from_int(2)),
        "inner": lambda: inner_derivation(kf5, b[0], b[1]).index_table(),
        "permutation": lambda: np.random.default_rng(1).permutation(car.size),
    }[kind]()
    return MapTable(kf5, kf5, table=table)


@pytest.mark.parametrize("kind", ["identity", "double", "inner", "permutation"])
def test_wide_tables_agree_with_the_element_path(kf5, kind):
    # uint16 images times N = 625 wrap past 104: the table route must widen
    # its index arithmetic (maps._table_op) to agree with the Element path.
    # An additive map is linear, so the bilinear n = 2 identities are decided
    # on the basis pairs; a failing map's first witness must match.
    t = wide_kf5_table(kf5, kind)
    assert t.index_table().dtype == np.uint16 and t.index_table().max() > 255
    additive = oracles.additive_on_generators(t)
    want = None if additive else oracles.first_additivity_failure(t)
    assert is_additive(t) == Verdict(additive, want)
    basis = [carrier_of(kf5).basis_index(i) for i in range(kf5.dim)]
    tree = canonical_tree(2)
    for derivation, predicate in ((False, is_n_multiplicative), (True, is_n_derivation)):
        verdict = predicate(t, 2)
        if additive and oracles.first_identity_failure(t, 2, [tree], derivation,
                                                       slots=[basis, basis]) is None:
            assert verdict.ok
        else:
            assert verdict.witness == oracles.first_identity_failure(t, 2, [tree], derivation)


def test_is_bijective(kf3):
    assert is_bijective(MapTable.identity(kf3))
    assert not is_bijective(MapTable.zero(kf3))
    assert is_bijective(transpose_map(kf3))


def test_is_bijective_linear_over_q(kq):
    assert is_bijective(MapTable.identity(kq))
    assert not is_bijective(MapTable.zero(kq))


def test_matrix_map_to_a_smaller_dimension_is_not_bijective(kq, q):
    qxq = diagonal_product_algebra(q, 2)
    projection = [[q.from_int(int(i == j)) for j in range(4)] for i in range(2)]
    assert not is_bijective(MapTable(kq, qxq, matrix=projection))


# ---------------------------------------------------------------------------
# is_n_multiplicative


def test_identity_n_multiplicative(kf3):
    ident = MapTable.identity(kf3)
    for n in (2, 3):
        assert is_n_multiplicative(ident, n).ok
    assert is_n_multiplicative(ident, 2, tree_mode="all_trees").ok


def test_transpose_is_2_multiplicative(kf3):
    assert is_n_multiplicative(transpose_map(kf3), 2).ok


def test_doubling_not_2_multiplicative(kf5):
    m = scaling_map(kf5, 2)
    verdict = is_n_multiplicative(m, 2)
    assert not verdict.ok
    tree, args = verdict.witness
    assert tree == canonical_tree(2)
    lhs = m.apply(monomial_eval(kf5, tree, args))
    rhs = monomial_eval(kf5, tree, [m.apply(x) for x in args])
    assert lhs != rhs
    # phi(xy) = 2xy while phi(x)phi(y) = 4xy, so any xy != 0 falsifies
    assert not multiply(kf5, *args).is_zero()


def test_doubling_not_2_multiplicative_linear_route(kq):
    m = scaling_map(kq, 2)
    verdict = is_n_multiplicative(m, 2)
    assert not verdict.ok


def test_n_multiplicative_rejects_n1(kf3):
    with pytest.raises(ArityMismatch):
        is_n_multiplicative(MapTable.identity(kf3), 1)


def swapped_table(algebra):
    """The identity table with the images of carrier elements 1 and 2 swapped: not additive."""
    table = np.arange(carrier_of(algebra).size)
    table[[1, 2]] = table[[2, 1]]
    return table


def test_n_multiplicative_budget(kf3):
    # an additive table is decided on generators and basis tuples at any
    # n; any other needs the full scan, 81^5 > 10^8 evaluations
    assert is_n_multiplicative(MapTable.identity(kf3), 5).ok
    with pytest.raises(BudgetExceeded):
        is_n_multiplicative(MapTable(kf3, kf3, table=swapped_table(kf3)), 5)


def test_basis_tuples_are_charged(kf3):
    # an additive table skips the full scan, but its 4^16 basis tuples at
    # n = 16 still exceed 10^8 evaluations
    with pytest.raises(BudgetExceeded, match="4294967296 evaluations"):
        is_n_multiplicative(MapTable.identity(kf3), 16)
    with pytest.raises(BudgetExceeded, match="4294967296 evaluations"):
        is_n_derivation(DerivationTable.zero(kf3), 16)


def test_multiplicative_composition_closure(kf3):
    # phi 2-multiplicative implies phi o phi is 2-multiplicative
    t = transpose_map(kf3).index_table()
    composed = MapTable(kf3, kf3, table=t[t])
    assert is_n_multiplicative(composed, 2).ok


def test_map_between_different_carrier_sizes(kf3, f3xf3):
    import numpy as np

    zero_idx = carrier_of(kf3).index_of(kf3.zero())
    t = MapTable(f3xf3, kf3, table=np.full(9, zero_idx, dtype=np.int64))
    assert is_n_multiplicative(t, 2).ok  # the zero map is multiplicative
    assert is_additive(t).ok
    assert not is_bijective(t)


def test_all_trees_multiplicativity_degree_4(f3):
    from conftest import diagonal_product_algebra

    a = diagonal_product_algebra(f3, 1)
    ident = MapTable.identity(a)
    assert is_n_multiplicative(ident, 4, tree_mode="all_trees").ok
    doubling = MapTable.from_matrix(a, a, [[f3.from_int(2)]])
    verdict = is_n_multiplicative(doubling, 4, tree_mode="all_trees")
    assert not verdict.ok


# ---------------------------------------------------------------------------
# jordan semi-triple


def test_semitriple_identity(kf3):
    assert is_jordan_semitriple(MapTable.identity(kf3)).ok


def test_semitriple_follows_from_2_multiplicative(kf3):
    assert is_jordan_semitriple(transpose_map(kf3)).ok


def test_semitriple_negation(kf5):
    assert is_jordan_semitriple(scaling_map(kf5, -1)).ok


def test_semitriple_negation_linear_route(kq):
    assert is_jordan_semitriple(scaling_map(kq, -1)).ok


def test_semitriple_linear_witness_at_basis_sum(kq):
    # phi keeps the e00 coordinate, negated: phi((xy)x) = (phi(x)phi(y))phi(x)
    # holds for every basis x, so only the polarized x = b_i + b_j find it
    f = kq.field
    matrix = [[f.zero()] * 4 for _ in range(4)]
    matrix[3][3] = f.from_int(-1)
    b = kq.basis_elements()
    assert is_jordan_semitriple(MapTable.from_matrix(kq, kq, matrix)).witness == (b[0] + b[1], b[2])


def test_semitriple_noncommutative_rejected(m2f3):
    with pytest.raises(NoncommutativeDomain):
        is_jordan_semitriple(MapTable.identity(m2f3))


def test_semitriple_failure_witness(kf5):
    verdict = is_jordan_semitriple(scaling_map(kf5, 2))
    assert not verdict.ok
    x, y = verdict.witness
    m = scaling_map(kf5, 2)
    lhs = m.apply(multiply(kf5, multiply(kf5, x, y), x))
    rhs = multiply(kf5, multiply(kf5, m.apply(x), m.apply(y)), m.apply(x))
    assert lhs != rhs


# ---------------------------------------------------------------------------
# derivations


def test_zero_map_is_derivation(kf3):
    zero = DerivationTable.zero(kf3)
    for n in (2, 3):
        assert is_n_derivation(zero, n).ok
    assert is_n_derivation(zero, 2, tree_mode="all_trees").ok


def test_inner_derivations_pass_n2_over_f5(kf5):
    for i in range(4):
        for j in range(4):
            d = inner_derivation(kf5, kf5.basis_element(i), kf5.basis_element(j))
            assert is_n_derivation(d, 2).ok


def test_identity_map_fails_derivation(kf3):
    verdict = is_n_derivation(DerivationTable.identity(kf3), 2)
    assert not verdict.ok
    tree, (x, y) = verdict.witness
    # d(xy) = xy but the Leibniz sum gives 2xy
    assert not multiply(kf3, x, y).is_zero()


def test_triple_derivation_zero_and_inner(kf5):
    assert is_jordan_triple_derivation(DerivationTable.zero(kf5)).ok
    d = inner_derivation(kf5, kf5.basis_element(1), kf5.basis_element(2))
    assert is_jordan_triple_derivation(d).ok


def test_triple_derivation_identity_fails(kf5):
    assert not is_jordan_triple_derivation(DerivationTable.identity(kf5)).ok


def test_triple_derivation_linear_route(kq):
    d = inner_derivation(kq, kq.basis_element(1), kq.basis_element(2))
    assert is_jordan_triple_derivation(d).ok
    assert not is_jordan_triple_derivation(DerivationTable.identity(kq)).ok


# ---------------------------------------------------------------------------
# inner_derivation


def test_inner_derivation_paper_value(kq):
    e11 = kq.basis_element(0)
    a_half = kq.basis_element(1)
    d = inner_derivation(kq, a_half, e11.scaled(4))
    assert d.apply(e11) == a_half.scaled(3)


def test_inner_derivation_self_is_zero(kq):
    f = kq.field
    y = kq.element([1, 2, 3, 4])
    d = inner_derivation(kq, y, y)
    assert d.matrix == [[f.zero()] * 4 for _ in range(4)]


def test_inner_derivation_zero_argument(kq):
    f = kq.field
    d = inner_derivation(kq, kq.zero(), kq.element([1, 2, 3, 4]))
    assert d.matrix == [[f.zero()] * 4 for _ in range(4)]


def test_inner_derivation_mismatch(kq, m2q):
    with pytest.raises(AlgebraMismatch):
        inner_derivation(kq, m2q.basis_element(0), kq.basis_element(0))


def test_inner_derivation_is_derivation_over_q(kq):
    d = inner_derivation(kq, kq.basis_element(1), kq.basis_element(3))
    assert is_n_derivation(d, 2).ok
    assert is_n_derivation(d, 3).ok


# ---------------------------------------------------------------------------
# reduce_derivation


def test_reduce_zero_map(kq):
    e = kq.basis_element(0)
    delta = reduce_derivation(kq, e, DerivationTable.zero(kq), 2)
    assert delta.apply(e).is_zero()
    for j in range(4):
        assert delta.apply(kq.basis_element(j)).is_zero()


def test_reduce_inner_derivation_q(kq):
    e = kq.basis_element(0)
    d = inner_derivation(kq, kq.basis_element(1), kq.basis_element(2))
    delta = reduce_derivation(kq, e, d, 2)
    assert delta.apply(e).is_zero()
    dec = peirce_decompose(kq, e)
    parts = peirce_project(dec, delta.apply(e))
    assert all(p.is_zero() for p in parts)
    assert derivation_peirce_check(delta, dec).ok


def test_reduce_inner_derivation_nonzero_de(kq):
    # D_{e10, e00} moves e11 into the half space, so d(e) != 0
    e = kq.basis_element(0)
    d = inner_derivation(kq, kq.basis_element(1), kq.basis_element(3))
    de = d.apply(e)
    assert not de.is_zero()
    dec = peirce_decompose(kq, e)
    p1, ph, p0 = peirce_project(dec, de)
    assert p1.is_zero() and p0.is_zero() and ph == de
    delta = reduce_derivation(kq, e, d, 2)
    assert delta.apply(e).is_zero()
    assert derivation_peirce_check(delta, dec).ok


def test_reduce_table_route_f5(kf5):
    e = kf5.basis_element(0)
    inner = inner_derivation(kf5, kf5.basis_element(1), kf5.basis_element(3))
    d = DerivationTable(kf5, table=inner.index_table())
    delta = reduce_derivation(kf5, e, d, 2)
    assert delta.apply(e).is_zero()
    dec = peirce_decompose(kf5, e)
    assert derivation_peirce_check(delta, dec).ok
    # table route and matrix route agree
    delta_matrix = reduce_derivation(kf5, e, inner, 2)
    assert np.array_equal(delta.index_table(), delta_matrix.index_table())


def test_reduce_rejects_non_derivation(kf3):
    e = kf3.basis_element(0)
    with pytest.raises(NotDerivation):
        reduce_derivation(kf3, e, DerivationTable.identity(kf3), 2)


def test_reduce_torsion_violation(kf3):
    # n = 4 needs 3-torsion-freeness, which F3 lacks
    e = kf3.basis_element(0)
    with pytest.raises(TorsionViolation):
        reduce_derivation(kf3, e, DerivationTable.zero(kf3), 4)


def test_reduce_rejects_small_n(kq):
    with pytest.raises(ArityMismatch):
        reduce_derivation(kq, kq.basis_element(0), DerivationTable.zero(kq), 1)


def test_reduce_mismatched_decomposition(kq):
    e = kq.basis_element(0)
    other = peirce_decompose(kq, kq.basis_element(3))
    with pytest.raises(PreconditionViolated):
        reduce_derivation(kq, e, DerivationTable.zero(kq), 2, decomposition=other)


def test_reduced_derivation_scaling_lemma(kf5):
    # Delta(2e) = 0 and Delta(2^{n-1} a) = 2^{n-1} Delta(a) for a in Jhalf
    e = kf5.basis_element(0)
    d = inner_derivation(kf5, kf5.basis_element(1), kf5.basis_element(3))
    delta = reduce_derivation(kf5, e, d, 2)
    assert delta.apply(e.scaled(2)).is_zero()
    for a in (kf5.basis_element(1), kf5.basis_element(2)):
        assert delta.apply(a.scaled(2)) == delta.apply(a).scaled(2)


def test_reduce_collapses_over_char3(kf3):
    # over F3 both D_{d(e),4e} (= 3[L,L]) and 3d vanish, so the reduction
    # of even a nonzero derivation is the zero map and carries no
    # additivity information; the contract (vanishing at e) still holds
    from jordankit import mult_operators
    from jordankit.linalg import mat_mul, mat_sub

    f = kf3.field
    ly = mult_operators(kf3, kf3.basis_element(1))[0].matrix
    lz = mult_operators(kf3, kf3.basis_element(2))[0].matrix
    d = DerivationTable(kf3, matrix=mat_sub(f, mat_mul(f, ly, lz), mat_mul(f, lz, ly)))
    assert is_n_derivation(d, 2).ok
    assert any(not d.apply(x).is_zero() for x in kf3.basis_elements())
    e = kf3.basis_element(0)
    delta = reduce_derivation(kf3, e, d, 2)
    assert all(delta.apply(x).is_zero() for x in kf3.basis_elements())


def test_delta_additive_iff_d_additive_on_f5(kf5):
    # empirical check of the reduction's additivity transfer where 3 is a unit
    e = kf5.basis_element(0)
    dec = peirce_decompose(kf5, e)
    for pair in ((1, 3), (2, 3), (1, 2)):
        d = inner_derivation(kf5, kf5.basis_element(pair[0]), kf5.basis_element(pair[1]))
        d_table = DerivationTable(kf5, table=d.index_table())
        delta = reduce_derivation(kf5, e, d_table, 2, decomposition=dec)
        assert is_additive(d_table).ok == is_additive(delta).ok


def test_n_derivation_budget(kf3):
    assert is_n_derivation(DerivationTable.zero(kf3), 5).ok
    with pytest.raises(BudgetExceeded):
        is_n_derivation(DerivationTable(kf3, table=swapped_table(kf3)), 5)


@pytest.mark.parametrize("n", [20, 32])
@pytest.mark.parametrize("kind", ["multiplicative", "derivation"])
def test_additive_failure_beyond_the_scan_budget_keeps_its_basis_witness(f3, kind, n):
    # F3 itself (b0 b0 = b0): 3^n carrier tuples exceed the budget, but the
    # basis tuple (b0, ..., b0) refutes x -> 2x (2 b0 != 2^n b0 = b0) and
    # the identity as a derivation (b0 != n b0)
    a = diagonal_product_algebra(f3, 1)
    tree = canonical_tree(n)
    if kind == "derivation":
        t = DerivationTable.identity(a)
        verdict = is_n_derivation(t, n)
    else:
        t = MapTable.from_matrix(a, a, [[f3.from_int(2)]])
        verdict = is_n_multiplicative(t, n)
    assert not verdict.ok
    assert verdict.witness == (tree, (a.basis_element(0),) * n)
    args = list(verdict.witness[1])
    lhs = t.apply(monomial_eval(a, tree, args))
    if kind == "derivation":
        rhs = a.zero()
        for i in range(n):
            rhs = rhs + monomial_eval(a, tree, args[:i] + [t.apply(args[i])] + args[i + 1:])
    else:
        rhs = monomial_eval(a, tree, [t.apply(x) for x in args])
    assert lhs != rhs


# ---------------------------------------------------------------------------
# the grid evaluator against the Element-level reference


def n_ary_check(algebra, table, n, tree_mode, kind):
    """(fast verdict, reference first failure) of one n-ary predicate."""
    if kind == "derivation":
        t = DerivationTable(algebra, table=table)
        verdict = is_n_derivation(t, n, tree_mode=tree_mode)
    else:
        t = MapTable(algebra, algebra, table=table)
        verdict = is_n_multiplicative(t, n, tree_mode=tree_mode)
    trees = maps_module._trees_for(n, tree_mode)
    return verdict, oracles.first_identity_failure(t, n, trees, kind == "derivation")


# the Element-level reference scans N**n tuples; keep that at most 9**4
MAX_DIM = {2: 3, 3: 2, 4: 2}


@settings(max_examples=50, deadline=None, database=None)
@given(
    st.data(),
    st.sampled_from([2, 3, 4]),
    st.sampled_from(["canonical", "all_trees"]),
    st.sampled_from(["multiplicative", "derivation"]),
)
def test_grid_evaluator_matches_reference(data, n, tree_mode, kind):
    algebra = data.draw(f3_algebras(max_dim=MAX_DIM[n]))
    size = 3**algebra.dim
    base = data.draw(st.sampled_from(["zero", "identity", "random"]))
    if base == "random":
        values = data.draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size))
        table = np.array(values, dtype=np.int64)
    else:
        table = np.zeros(size, dtype=np.int64) if base == "zero" else np.arange(size)
    if data.draw(st.booleans()):  # one wrong entry: the witness lies further in
        i = data.draw(st.integers(0, size - 1))
        table[i] = data.draw(st.integers(0, size - 1))
    verdict, failure = n_ary_check(algebra, table, n, tree_mode, kind)
    assert (verdict.ok, verdict.witness) == (failure is None, failure)


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("kind", ["multiplicative", "derivation"])
def test_grid_scan_in_row_chunks(monkeypatch, f3xf3, kind, rows):
    # phi(0) = 0 makes every tuple of the first row pass; the wrong entry
    # at the last element is met in the second row, a later chunk when a
    # chunk is one row
    table = np.zeros(9, dtype=np.int64) if kind == "derivation" else np.arange(9)
    table[8] = 4
    unchunked = n_ary_check(f3xf3, table, 3, "all_trees", kind)[0]
    monkeypatch.setattr(maps_module, "_CHUNK", rows * 9**2)  # rows of the first slot a chunk
    verdict, failure = n_ary_check(f3xf3, table, 3, "all_trees", kind)
    assert not verdict.ok
    assert carrier_of(f3xf3).index_of(verdict.witness[1][0]) == 1
    assert verdict.witness == failure == unchunked.witness


@pytest.mark.parametrize("chunk", [9, 2, 1])
@pytest.mark.parametrize("kind", ["multiplicative", "derivation"])
def test_grid_scan_fixing_leading_slots(monkeypatch, f3xf3, kind, chunk):
    # a chunk below the 9^2 tuples after the first slot fixes leading
    # slots one value at a time; the full scan and the basis tuples of
    # an additive table give the verdicts and witnesses of one step
    wrong = np.zeros(9, dtype=np.int64) if kind == "derivation" else np.arange(9)
    wrong[8] = 4
    tables = [wrong, linear_table(f3xf3, [1, 1, 0, 1]), linear_table(f3xf3, [1, 0, 0, 1])]
    expected = [n_ary_check(f3xf3, t, 3, "all_trees", kind) for t in tables]
    monkeypatch.setattr(maps_module, "_CHUNK", chunk)
    for table, (verdict, failure) in zip(tables, expected):
        assert n_ary_check(f3xf3, table, 3, "all_trees", kind)[0] == verdict
        assert (verdict.ok, verdict.witness) == (failure is None, failure)


def linear_table(algebra, coeffs):
    """The index table of the d x d matrix over F3 with row-major coeffs."""
    d = algebra.dim
    matrix = [[algebra.field.from_int(c) for c in coeffs[i * d : (i + 1) * d]] for i in range(d)]
    return MapTable.from_matrix(algebra, algebra, matrix).index_table()


# each pair predicate's docstring formula, on Elements
PAIR_IDENTITIES = {
    is_additive: lambda t, x, y: t.apply(x + y) == t.apply(x) + t.apply(y),
    is_jordan_semitriple: lambda t, x, y: t.apply((x * y) * x)
    == (t.apply(x) * t.apply(y)) * t.apply(x),
    is_jordan_triple_derivation: lambda t, x, y: t.apply((x * y) * x)
    == (t.apply(x) * y) * x + (x * t.apply(y)) * x + (x * y) * t.apply(x),
}


def first_pair_failure(t, identity):
    """The first carrier pair (x, y), in lexicographic order, where identity fails."""
    dom = t.domain_carrier()
    elems = [dom.element_at(i) for i in range(dom.size)]
    for x in elems:
        for y in elems:
            if not identity(t, x, y):
                return (x, y)
    return None


@settings(max_examples=60, deadline=None, database=None)
@given(st.data(), st.sampled_from(list(PAIR_IDENTITIES)))
def test_pair_predicates_match_reference(data, predicate):
    algebra = data.draw(f3_algebras(commutative=True))
    size = 3**algebra.dim
    base = data.draw(st.sampled_from(["zero", "identity", "linear", "random"]))
    if base == "random":
        values = data.draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size))
        table = np.array(values, dtype=np.int64)
    elif base == "linear":  # additive, so a wrong entry is the only failure
        d = algebra.dim
        coeffs = data.draw(st.lists(st.integers(0, 2), min_size=d * d, max_size=d * d))
        table = linear_table(algebra, coeffs)
    else:
        table = np.zeros(size, dtype=np.int64) if base == "zero" else np.arange(size)
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, size - 1))
        table[i] = data.draw(st.integers(0, size - 1))
    t = DerivationTable(algebra, table=table)
    verdict = predicate(t)
    failure = first_pair_failure(t, PAIR_IDENTITIES[predicate])
    assert (verdict.ok, verdict.witness) == (failure is None, failure)


# ---------------------------------------------------------------------------
# the table route against the linear route


def linear_route_cases(name, algebra):
    """(matrix-backed map over F3, multiplicative?, derivation?); None: either."""
    f = algebra.field
    basis = algebra.basis_elements()
    cases = [
        (DerivationTable.identity(algebra), True, False),
        (DerivationTable.zero(algebra), True, True),
    ]
    if name == "kf3":  # Jordan: the inner derivations [L_y, L_z] + [L_y, R_z] + [R_y, R_z]
        for i, j in ((0, 1), (1, 2), (0, 3)):
            cases.append((inner_derivation(algebra, basis[i], basis[j]), None, True))
    else:  # associative M2: x -> ax - xa is a derivation, x -> g x g^-1 an automorphism
        for a in basis[:2]:
            left, right = (op.matrix for op in mult_operators(algebra, a))
            cases.append((DerivationTable(algebra, matrix=mat_sub(f, left, right)), None, True))
        g, g_inv = algebra.element([1, 1, 0, 1]), algebra.element([1, 2, 0, 1])
        conj = mat_mul(f, mult_operators(algebra, g)[0].matrix, mult_operators(algebra, g_inv)[1].matrix)
        cases.append((DerivationTable(algebra, matrix=conj), True, False))
    rng = np.random.default_rng(7)
    for _ in range(3):
        m = [[f.from_int(int(c)) for c in row] for row in rng.integers(0, 3, (4, 4))]
        cases.append((DerivationTable(algebra, matrix=m), False, False))
    return cases


@pytest.mark.parametrize("name", ["kf3", "m2f3"])
@pytest.mark.parametrize("n", [2, 3])
def test_table_route_matches_linear_route(request, name, n):
    for t, mult, der in linear_route_cases(name, request.getfixturevalue(name)):
        assert t.has_table() and t.matrix is not None  # the predicates take the table route
        for mode in ("canonical", "all_trees"):
            trees = maps_module._trees_for(n, mode)
            linear = maps_module._basis_scan(t, n, trees, False).ok
            assert is_n_multiplicative(t, n, tree_mode=mode).ok == linear
            assert mult is None or linear == mult
            linear = maps_module._basis_scan(t, n, trees, True).ok
            assert is_n_derivation(t, n, tree_mode=mode).ok == linear
            assert der is None or linear == der
        if name == "kf3":  # the semitriple predicates need a commutative domain
            linear = maps_module._basis_scan(t, 2, [maps_module._SEMITRIPLE], False)
            assert is_jordan_semitriple(t).ok == linear.ok
            assert not mult or linear.ok  # a 2-multiplicative map is a semitriple map
            linear = maps_module._basis_scan(t, 2, [maps_module._SEMITRIPLE], True)
            assert is_jordan_triple_derivation(t).ok == linear.ok
            assert not der or linear.ok  # a derivation is a triple derivation


# ---------------------------------------------------------------------------
# the generator and basis decision against the full carrier scan


def full_scan(check, t):
    """check(t) with the generator check forced off: every table is scanned in full."""
    with mock.patch.object(maps_module, "_additive_on_generators", lambda t: False):
        return check(t)


def fast_route_checks(n, tree_mode):
    """The five predicates, each as a one-argument check."""
    return {
        "multiplicative": lambda t: is_n_multiplicative(t, n, tree_mode=tree_mode),
        "derivation": lambda t: is_n_derivation(t, n, tree_mode=tree_mode),
        "additive": is_additive,
        "semitriple": is_jordan_semitriple,
        "triple_derivation": is_jordan_triple_derivation,
    }


@settings(max_examples=120, deadline=None, database=None)
@given(
    st.data(),
    st.sampled_from([2, 3]),
    st.sampled_from(["canonical", "all_trees"]),
    st.sampled_from(["multiplicative", "derivation", "additive", "semitriple", "triple_derivation"]),
)
def test_fast_route_matches_full_scan(data, n, tree_mode, predicate):
    commutative = True if predicate in ("semitriple", "triple_derivation") else None
    algebra = data.draw(f3_algebras(commutative=commutative))
    d, size = algebra.dim, 3**algebra.dim
    base = data.draw(st.sampled_from(["linear", "overwritten", "random"]))
    if base == "random":
        values = data.draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size))
        table = np.array(values, dtype=np.int64)
    else:
        coeffs = data.draw(st.lists(st.integers(0, 2), min_size=d * d, max_size=d * d))
        table = linear_table(algebra, coeffs)
        if base == "overwritten":
            table[data.draw(st.integers(0, size - 1))] = data.draw(st.integers(0, size - 1))
    t = DerivationTable(algebra, table=table)
    check = fast_route_checks(n, tree_mode)[predicate]
    fast, slow = check(t), full_scan(check, t)
    assert (fast.ok, fast.witness) == (slow.ok, slow.witness)
    additive = maps_module._additive_on_generators(t)
    assert additive == full_scan(is_additive, t).ok


@pytest.mark.parametrize("sign", [1, -1])
def test_table_semitriple_witness_at_basis_sum(kf3, sign):
    # x -> +-x_e00 e00 passes (xy)x on every basis pair; only the polarized
    # x = b_i + b_j find the failure, which the full scan then locates
    f = kf3.field
    matrix = [[f.zero()] * 4 for _ in range(4)]
    matrix[3][3] = f.from_int(sign)
    t = MapTable(kf3, kf3, table=MapTable.from_matrix(kf3, kf3, matrix).index_table())
    b = kf3.basis_elements()
    assert all(PAIR_IDENTITIES[is_jordan_semitriple](t, x, y) for x in b for y in b)
    verdict = is_jordan_semitriple(t)
    assert verdict.witness == full_scan(is_jordan_semitriple, t).witness == (b[1] + b[2], b[3])


# ---------------------------------------------------------------------------
# derivation_peirce_check


def test_peirce_check_zero(kf5):
    dec = peirce_decompose(kf5, kf5.basis_element(0))
    assert derivation_peirce_check(DerivationTable.zero(kf5), dec).ok


def test_peirce_check_planted_violation(kf3):
    dec = peirce_decompose(kf3, kf3.basis_element(0))
    car = carrier_of(kf3)
    table = np.zeros(car.size, dtype=np.int64)
    bad_in = car.index_of(kf3.basis_element(0).scaled(2))  # 2*e11 in J_1
    table[bad_in] = car.index_of(kf3.basis_element(1))  # image e10 outside J_1
    delta = DerivationTable(kf3, table=table)
    assert delta.apply(dec.idempotent).is_zero()
    verdict = derivation_peirce_check(delta, dec)
    assert not verdict.ok
    key, witness = verdict.witness
    assert key == "1" and witness == kf3.basis_element(0).scaled(2)


def span_indices(carrier, basis) -> set:
    """Carrier indices of every F_p-combination of basis, enumerated on Elements."""
    a, p = carrier.algebra, carrier.p
    return {
        carrier.index_of(sum((b.scaled(c) for c, b in zip(cs, basis)), a.zero()))
        for cs in itertools.product(range(p), repeat=len(basis))
    }


@pytest.mark.parametrize(
    "fixture, idempotent",
    [("kf3", (1, 0, 0, 0)), ("kf3", (1, 1, 0, 0)), ("kf5", (1, 0, 0, 0)), ("kf5", (3, 2, 2, 3)),
     ("f3xf3", (1, 0))],
)
def test_component_masks_are_the_spans(request, fixture, idempotent):
    a = request.getfixturevalue(fixture)
    dec = peirce_decompose(a, a.element(list(idempotent)))
    car = carrier_of(a)
    masks = _component_masks(car, dec)
    assert list(masks) == ["1", "half", "0"]
    for key, mask in masks.items():
        assert set(np.flatnonzero(mask).tolist()) == span_indices(car, dec.component_basis(key))
    if fixture == "f3xf3":  # dims (1, 0, 1): J_1/2 is {0}
        assert dec.dims == (1, 0, 1) and np.flatnonzero(masks["half"]).tolist() == [0]


def first_failure_by_projection(delta, dec):
    """The first (key, x), components in order and x by carrier index, with x in
    component key and delta(x) not, decided by peirce_project."""
    for k, key in enumerate(("1", "half", "0")):
        outside = [i for i in range(3) if i != k]
        for x, image in delta.entries():
            parts, image_parts = peirce_project(dec, x), peirce_project(dec, image)
            if all(parts[i].is_zero() for i in outside) and not all(
                image_parts[i].is_zero() for i in outside
            ):
                return key, x
    return None


def test_peirce_check_table_witness_is_the_first_failure(kf3):
    e = kf3.element([1, 1, 0, 0])  # components off the coordinate axes
    dec = peirce_decompose(kf3, e)
    car = carrier_of(kf3)
    table = np.arange(car.size)
    table[car.index_of(e)] = car.zero_index
    # two elements of J_1/2, each sent into J_0; J_1 is preserved
    u, v = dec.basis_half
    low, high = sorted([car.index_of(u + v), car.index_of(v.scaled(2))])
    table[[low, high]] = car.index_of(dec.basis0[0])
    delta = DerivationTable(kf3, table=table)
    verdict = derivation_peirce_check(delta, dec)
    assert not verdict.ok
    assert verdict.witness == ("half", car.element_at(low))
    assert verdict.witness == first_failure_by_projection(delta, dec)
    _, ph, _ = peirce_project(dec, verdict.witness[1])
    assert ph == verdict.witness[1]
    p1, _, p0 = peirce_project(dec, delta.apply(verdict.witness[1]))
    assert not (p1.is_zero() and p0.is_zero())


def test_peirce_check_matrix_witness_is_the_first_failing_basis_vector(kq):
    f = kq.field
    e = kq.element([1, 1, 0, 0])
    dec = peirce_decompose(kq, e)
    b = dec.change_of_basis
    d1, dh, _ = dec.dims
    # in Peirce coordinates: the second J_1/2 vector and the J_0 vector go to J_1
    m = [[f.zero()] * 4 for _ in range(4)]
    m[0][d1 + 1] = f.one()
    m[0][d1 + dh] = f.one()
    delta = DerivationTable(kq, matrix=mat_mul(f, mat_mul(f, b, m), invert(f, b)))
    assert delta.apply(e).is_zero()
    verdict = derivation_peirce_check(delta, dec)
    assert not verdict.ok
    key, witness = verdict.witness
    assert (key, witness) == ("half", dec.basis_half[1])
    p1, ph, p0 = peirce_project(dec, delta.apply(witness))
    assert not p1.is_zero() and ph.is_zero() and p0.is_zero()
    # the first J_1/2 vector is preserved: it is not the witness
    assert all(p.is_zero() for p in peirce_project(dec, delta.apply(dec.basis_half[0])))


def test_peirce_check_precondition(kf3):
    dec = peirce_decompose(kf3, kf3.basis_element(0))
    with pytest.raises(PreconditionViolated):
        derivation_peirce_check(DerivationTable.identity(kf3), dec)


# ---------------------------------------------------------------------------
# table/matrix plumbing and the file format


def test_table_matrix_consistency_enforced(kf3):
    f = kf3.field
    ident_matrix = [[f.one() if i == j else f.zero() for j in range(4)] for i in range(4)]
    car = carrier_of(kf3)
    good = np.arange(car.size, dtype=np.int64)
    MapTable(kf3, kf3, table=good, matrix=ident_matrix)  # consistent
    bad = good.copy()
    bad[1], bad[2] = bad[2], bad[1]
    with pytest.raises(FormatError):
        MapTable(kf3, kf3, table=bad, matrix=ident_matrix)


def test_table_with_negative_entries_rejected(kf3):
    # numpy would wrap -1 to the last element and give a silent verdict
    with pytest.raises(FormatError):
        MapTable(kf3, kf3, table=[-1] * 81)
    with pytest.raises(FormatError):
        DerivationTable(kf3, table=np.full(81, -1))


def test_table_of_wrong_length_or_range_rejected(kf3, f3xf3):
    with pytest.raises(FormatError):
        MapTable(kf3, kf3, table=[0] * 80)  # one entry short
    with pytest.raises(FormatError):
        MapTable(kf3, kf3, table=[[0] * 81])
    with pytest.raises(FormatError):
        MapTable(kf3, kf3, table=[0.5] * 81)  # numpy would truncate to 0
    with pytest.raises(FormatError):
        MapTable(kf3, f3xf3, table=[9] * 81)  # f3xf3 has 9 elements
    MapTable(kf3, f3xf3, table=[8] * 81)


@pytest.mark.parametrize("matrix", [5, [5, 5, 5, 5], ([0] * 4,) * 4])
def test_matrix_that_is_not_a_list_of_rows_rejected(kf3, matrix):
    with pytest.raises(FormatError):
        MapTable(kf3, kf3, matrix=matrix)


def test_table_over_rationals_rejected(kq):
    with pytest.raises(CarrierInfinite):
        MapTable(kq, kq, table=[0])


def test_derivation_from_a_map_between_two_algebras_rejected(kf3, f3xf3):
    m = MapTable(kf3, f3xf3, table=np.zeros(81, dtype=np.int64))
    with pytest.raises(AlgebraMismatch, match="a derivation needs codomain == domain"):
        DerivationTable.from_map(m)


def test_from_entries_requires_totality(kf3):
    pairs = [(x, x) for x, _ in list(MapTable.identity(kf3).entries())[:-1]]
    entries = [{"in": x.text(), "out": y.text()} for x, y in pairs]
    with pytest.raises(FormatError, match="map table is not total: no entry for"):
        map_table_from_dict({"entries": entries}, domain=kf3, codomain=kf3)


def test_from_entries_rejects_duplicates(kf3):
    x = kf3.basis_element(0)
    entries = [{"in": x.text(), "out": y.text()} for y in (x, kf3.zero())]
    with pytest.raises(FormatError, match="duplicate map entry for"):
        map_table_from_dict({"entries": entries}, domain=kf3, codomain=kf3)


def test_map_file_roundtrip_entries(tmp_path, kf3):
    t = transpose_map(kf3)
    t_table = MapTable(kf3, kf3, table=t.index_table())
    path = tmp_path / "transpose.map"
    save_map_table(t_table, path)
    back = load_map_table(path, domain=kf3, codomain=kf3)
    assert np.array_equal(back.index_table(), t_table.index_table())
    assert is_bijective(back) is True


def test_map_file_roundtrip_matrix(tmp_path, kq):
    t = transpose_map(kq)
    path = tmp_path / "transpose_q.map"
    save_map_table(t, path)
    back = load_map_table(path, domain=kq, codomain=kq)
    assert back.matrix == t.matrix


def test_map_file_embedded_algebras(tmp_path, kf3):
    t = transpose_map(kf3)
    path = tmp_path / "standalone.map"
    save_map_table(t, path)
    back = load_map_table(path)  # algebras resolved from the file itself
    assert back.domain.table == kf3.table
    assert np.array_equal(back.index_table(), t.index_table())


def test_map_file_references_resolve_against_its_directory(tmp_path, monkeypatch, kf3):
    (tmp_path / "algebras").mkdir()
    save_algebra(kf3, tmp_path / "algebras" / "k3.alg")
    path = tmp_path / "maps" / "zero.map"
    path.parent.mkdir()
    path.write_text(json.dumps({"domain": "../algebras/k3.alg", "matrix": [["0"] * 4] * 4}))
    monkeypatch.chdir(tmp_path / "algebras")  # the working directory plays no part
    back = load_map_table(path)
    assert back.domain.table == kf3.table and back.codomain is back.domain


def test_map_file_missing_reference_is_a_format_error(tmp_path, kf3):
    path = tmp_path / "ref.map"
    path.write_text(json.dumps({"domain": "missing.alg", "matrix": [["1"]]}))
    with pytest.raises(FormatError, match="'missing.alg'"):
        load_map_table(path)
    path.write_text(json.dumps({"domain": "missing.alg", "codomain": "gone.alg",
                                "matrix": [["0"] * 4] * 4}))
    with pytest.raises(FormatError, match="'gone.alg'"):
        load_map_table(path, domain=kf3)
    # explicit algebras win, and the missing files are never opened
    back = load_map_table(path, domain=kf3, codomain=kf3)
    assert back.domain is kf3 and back.codomain is kf3


def test_map_file_rejects_partial_entries(tmp_path, kf3):
    data = {"entries": [{"in": "0,0,0,0", "out": "0,0,0,0"}]}
    path = tmp_path / "partial.map"
    path.write_text(json.dumps(data))
    with pytest.raises(FormatError, match="map table is not total: no entry for"):
        load_map_table(path, domain=kf3, codomain=kf3)


def test_map_file_rejects_duplicate_entries(kf3):
    entries = [{"in": x.text(), "out": y.text()} for x, y in MapTable.identity(kf3).entries()]
    entries.append(entries[0])
    with pytest.raises(FormatError, match="duplicate map entry for"):
        map_table_from_dict({"entries": entries}, domain=kf3, codomain=kf3)


def test_map_entries_over_rationals_rejected(kq):
    with pytest.raises(CarrierInfinite):
        map_table_from_dict(
            {"entries": [{"in": "0,0,0,0", "out": "0,0,0,0"}]}, domain=kq, codomain=kq
        )


@pytest.mark.parametrize("build", ["matrix", "table"])
def test_map_file_form_and_repr_do_not_depend_on_history(kf3, build):
    # a predicate materializes a matrix map's index table; the map still
    # writes and shows what it was built from
    t = MapTable.identity(kf3)
    if build == "table":
        t = MapTable(kf3, kf3, table=t.index_table())
    before = map_table_to_dict(t), repr(t)
    assert is_additive(t).ok and is_n_multiplicative(t, 2).ok
    assert (map_table_to_dict(t), repr(t)) == before
    assert ("entries" in before[0]) == (build == "table") and build in before[1]


def test_map_dict_includes_matrix_and_consistency(kf3):
    t = transpose_map(kf3)
    data = map_table_to_dict(t)
    assert "matrix" in data
    back = map_table_from_dict(data, domain=kf3, codomain=kf3)
    assert back.matrix == t.matrix


def test_nonbijective_table_loads_with_flag(kf3):
    zero_entries = [
        {"in": x.text(), "out": kf3.zero().text()} for x, _ in MapTable.identity(kf3).entries()
    ]
    t = map_table_from_dict({"entries": zero_entries}, domain=kf3, codomain=kf3)
    assert is_bijective(t) is False
    assert is_additive(t).ok
