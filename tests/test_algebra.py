import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jordankit import (
    Algebra,
    AlgebraMismatch,
    ArityMismatch,
    CharacteristicUnsupported,
    EnumerationTooLarge,
    FormatError,
    Leaf,
    Node,
    algebra_from_dict,
    algebra_to_dict,
    all_trees,
    associator,
    canonical_tree,
    commutator,
    identity_element,
    identity_report,
    jordanify,
    load_algebra,
    matrix_units_algebra,
    monomial_eval,
    mult_operators,
    multiply,
    prime_field,
    rational_field,
    save_algebra,
    xi_eval,
)
from jordankit.algebra import ENUMERATION_CAP

import oracles
from conftest import diagonal_product_algebra
from strategies import f3_algebras


# ---------------------------------------------------------------------------
# products and the basic identities


def test_matrix_units_table(m2q):
    # e_ab e_cd = delta_bc e_ad; each unit matches exactly two others,
    # so 8 of the 16 basis products (and 8 of the 64 tensor entries) are nonzero
    pairs = [(1, 1), (1, 0), (0, 1), (0, 0)]
    nonzero = 0
    for i, (a, b) in enumerate(pairs):
        for j, (c, d) in enumerate(pairs):
            prod = multiply(m2q, m2q.basis_element(i), m2q.basis_element(j))
            if b == c:
                assert prod == m2q.basis_element(pairs.index((a, d)))
                nonzero += 1
            else:
                assert prod.is_zero()
    assert nonzero == 8
    tensor_nonzero = sum(
        1
        for i in range(4)
        for j in range(4)
        for k in range(4)
        if not m2q.field.is_zero(m2q.table[i][j][k])
    )
    assert tensor_nonzero == 8


def test_multiply_matches_raw_oracle(kq, m2f5):
    rng = random.Random(3)
    for alg in (kq, m2f5):
        f = alg.field
        for _ in range(25):
            x = alg.element([f.from_int(rng.randint(-4, 4)) for _ in range(alg.dim)])
            y = alg.element([f.from_int(rng.randint(-4, 4)) for _ in range(alg.dim)])
            assert multiply(alg, x, y).coords == oracles.raw_multiply(alg, x.coords, y.coords)


def test_multiply_bilinear(kq):
    rng = random.Random(5)
    f = kq.field
    for _ in range(20):
        x, xp, y = (
            kq.element([f.from_int(rng.randint(-3, 3)) for _ in range(4)]) for _ in range(3)
        )
        assert multiply(kq, x + xp, y) == multiply(kq, x, y) + multiply(kq, xp, y)
        assert multiply(kq, y, x + xp) == multiply(kq, y, x) + multiply(kq, y, xp)
        c = f.from_int(rng.randint(-3, 3))
        assert multiply(kq, x.scaled(c), y) == multiply(kq, x, y).scaled(c)


def test_multiply_zero(m2q):
    x = m2q.basis_element(2)
    assert multiply(m2q, m2q.zero(), x).is_zero()
    assert multiply(m2q, x, m2q.zero()).is_zero()


def test_multiply_algebra_mismatch(m2q, kq):
    with pytest.raises(AlgebraMismatch):
        multiply(m2q, m2q.basis_element(0), kq.basis_element(0))


def test_jordanified_product(kq):
    # e10 o e01 = e11/2 + e00/2
    prod = multiply(kq, kq.basis_element(1), kq.basis_element(2))
    assert prod.coords == (Fraction(1, 2), 0, 0, Fraction(1, 2))


def test_commutator_values(m2q, kq):
    e10, e01 = m2q.basis_element(1), m2q.basis_element(2)
    assert commutator(m2q, e10, e01).coords == (1, 0, 0, -1)
    assert commutator(m2q, e10, e10).is_zero()
    assert commutator(kq, kq.basis_element(1), kq.basis_element(2)).is_zero()


def test_associator_values(m2q, kq):
    e10, e01 = m2q.basis_element(1), m2q.basis_element(2)
    assert associator(m2q, e10, e01, e10).is_zero()
    assert associator(m2q, e10, e01, m2q.zero()).is_zero()
    # frozen from an independent expansion of the symmetrized table
    x = kq.basis_element(1) + kq.basis_element(0)
    got = associator(kq, x, x, kq.basis_element(2))
    assert got.coords == (Fraction(-1, 4), Fraction(-1, 2), Fraction(1, 4), Fraction(1, 4))


# ---------------------------------------------------------------------------
# identity report


def test_identity_report_m2(m2q):
    rep = identity_report(m2q)
    assert rep.commutative is False
    assert rep.associative is True
    assert rep.flexible is True
    assert rep.jordan is False
    assert rep.witness_for == "commutative"
    a, b = rep.witness
    assert not commutator(m2q, a, b).is_zero()


def test_identity_report_jordanified(kq, kf5):
    for alg in (kq, kf5):
        rep = identity_report(alg)
        assert rep.commutative and rep.jordan
        assert not rep.associative


def test_identity_report_jordanified_f3(kf3):
    rep = identity_report(kf3)
    assert rep.commutative and rep.jordan


def test_identity_report_zero_algebra(q):
    zero = q.zero()
    table = [[[zero]]]
    a = Algebra(q, ("z",), table)
    rep = identity_report(a)
    assert rep.commutative and rep.associative and rep.flexible and rep.jordan


def test_identity_report_char2_rejected():
    f2 = prime_field(2)
    a = matrix_units_algebra(f2)
    with pytest.raises(CharacteristicUnsupported):
        identity_report(a)


def test_identity_report_f3_beyond_enumeration_cap(f3):
    # 3^13 carrier elements exceed ENUMERATION_CAP; the candidate rule
    # decides the cubic Jordan law over F_3 without enumerating them
    a = diagonal_product_algebra(f3, 13)
    assert 3**13 > ENUMERATION_CAP
    rep = identity_report(a)
    assert rep.commutative and rep.associative and rep.flexible and rep.jordan
    assert rep.witness is None and rep.witnesses == {}


def test_jordan_witness_is_falsifying(f5):
    # commutative, non-Jordan: u*u = v, v*v = u on a 2-dim table
    zero = f5.zero()
    table = [[[zero] * 2 for _ in range(2)] for _ in range(2)]
    table[0][0][1] = f5.one()
    table[1][1][0] = f5.one()
    a = Algebra(f5, ("u", "v"), table)
    rep = identity_report(a)
    assert rep.commutative and not rep.jordan
    x, y = rep.witnesses["jordan"]
    sq = multiply(a, x, x)
    assert not associator(a, sq, y, x).is_zero()
    # the candidate-rule verdict agrees with the exhaustive oracle
    assert oracles.jordan_exhaustive(a) is False


@pytest.mark.parametrize(
    "dim, products, witness",
    [
        # the Jordan law holds at b1 + b2 and first fails at b1 + 2 b2
        (3, {(1, 1): (1, 2), (1, 2): (1, 2)}, ((0, 1, 2), (0, 0, 1))),
        # its only nonzero term in x = sum l_i b_i is l0 l1 l2 (b0 b1 = b3,
        # b3 b0 = b4, b4 b2 = b5), so it first fails at b0 + b1 + b2
        (6, {(0, 1): (3, 1), (3, 0): (4, 1), (4, 2): (5, 1)}, ((1, 1, 1, 0, 0, 0), (1, 0, 0, 0, 0, 0))),
    ],
)
def test_f3_jordan_witness_beyond_basis_pairs(f3, dim, products, witness):
    zero = f3.zero()
    table = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), (k, c) in products.items():
        table[i][j][k] = table[j][i][k] = f3.from_int(c)
    rep = identity_report(Algebra(f3, tuple(f"b{i}" for i in range(dim)), table))
    assert rep.commutative and rep.flexible and not rep.jordan
    assert tuple(x.coords for x in rep.witnesses["jordan"]) == witness


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([3, 5, 7]).flatmap(lambda p: f3_algebras(p=p)))
def test_identity_report_matches_raw_oracle(a):
    rep = identity_report(a)
    verdicts = {prop: getattr(rep, prop) for prop in ("commutative", "associative", "flexible", "jordan")}
    assert verdicts == oracles.ring_identities_bruteforce(a)
    assert set(rep.witnesses) == {prop for prop, ok in verdicts.items() if not ok}
    for prop, witness in rep.witnesses.items():
        coords = [x.coords for x in witness]
        if prop == "flexible":  # the associator triple (x, y, x)
            assert coords[0] == coords[2]
            coords = coords[:2]
        if prop == "jordan" and not rep.commutative:
            prop = "commutative"
        lhs, rhs = oracles.ring_identity_sides(a, prop, *coords)
        assert lhs != rhs


# ---------------------------------------------------------------------------
# monomial trees


def test_canonical_tree_shape():
    t = canonical_tree(4)
    assert t == Node(Leaf(1), Node(Leaf(2), Node(Leaf(3), Leaf(4))))
    assert t.degree == 4
    assert canonical_tree(1) == Leaf(1)


def test_all_trees_catalan_counts():
    for n, catalan in ((1, 1), (2, 1), (3, 2), (4, 5), (5, 14)):
        trees = list(all_trees(n))
        assert len(trees) == catalan
        assert len(set(map(repr, trees))) == catalan
        for t in trees:
            assert t.degree == n
    assert canonical_tree(4) in list(all_trees(4))


def test_monomial_eval(kq, m2q):
    e11 = kq.basis_element(0)
    two_e = e11.scaled(2)
    # degree 3 canonical on (2e, 2e, e11) with e = e11: 2^{n-1} a_1
    got = monomial_eval(kq, canonical_tree(3), [two_e, two_e, e11])
    assert got == e11.scaled(4)
    x, y = kq.basis_element(1), kq.basis_element(2)
    assert monomial_eval(kq, canonical_tree(2), [x, y]) == multiply(kq, x, y)
    # ((x1 x2) x3) on (e10, e01, e10) in associative m2 -> e10
    left_tree = Node(Node(Leaf(1), Leaf(2)), Leaf(3))
    e10, e01 = m2q.basis_element(1), m2q.basis_element(2)
    assert monomial_eval(m2q, left_tree, [e10, e01, e10]) == e10


def test_monomial_eval_arity_mismatch(kq):
    with pytest.raises(ArityMismatch):
        monomial_eval(kq, canonical_tree(3), [kq.basis_element(0)])


def test_xi_eval_paper_values(kq):
    e11 = kq.basis_element(0)
    two_e = e11.scaled(2)
    a_half = kq.basis_element(1)
    a_zero = kq.basis_element(3)
    for i in (1, 2, 3, 5):
        assert xi_eval(kq, two_e, i, [a_half]) == a_half
    assert xi_eval(kq, two_e, 3, [a_zero]).is_zero()
    # n = 4, all but the last slot equal to 2e: 2^{n-1} a_1
    assert xi_eval(kq, two_e, 3, [e11]) == e11.scaled(8)


def test_xi_eval_matches_canonical_monomial(kq):
    rng = random.Random(9)
    f = kq.field
    for _ in range(10):
        z = kq.element([f.from_int(rng.randint(-2, 2)) for _ in range(4)])
        args = [
            kq.element([f.from_int(rng.randint(-2, 2)) for _ in range(4)])
            for _ in range(rng.randint(0, 2))
        ]
        i = rng.randint(1, 3)
        if i + len(args) < 2:
            continue
        n = i + len(args)
        assert xi_eval(kq, z, i, args) == monomial_eval(
            kq, canonical_tree(n), [z] * i + args
        )


def test_xi_eval_arity(kq):
    with pytest.raises(ArityMismatch):
        xi_eval(kq, kq.basis_element(0), 1, [])
    with pytest.raises(ArityMismatch):
        xi_eval(kq, kq.basis_element(0), 0, [kq.basis_element(1)])


# ---------------------------------------------------------------------------
# multiplication operators and the identity element


def test_mult_operators_m2(m2q):
    e11 = m2q.basis_element(0)
    left, right = mult_operators(m2q, e11)
    for j, expect in enumerate([e11, m2q.basis_element(1), m2q.zero(), m2q.zero()]):
        assert left.apply(m2q.basis_element(j)) == expect
    # matrix columns agree with products against all basis vectors
    for j in range(4):
        b = m2q.basis_element(j)
        assert left.apply(b) == multiply(m2q, e11, b)
        assert right.apply(b) == multiply(m2q, b, e11)


def test_mult_operators_zero(m2q):
    left, right = mult_operators(m2q, m2q.zero())
    zero_matrix = [[m2q.field.zero()] * 4 for _ in range(4)]
    assert left.matrix == zero_matrix and right.matrix == zero_matrix


def test_mult_operators_jordanified_eigenvalues(kq):
    e11 = kq.basis_element(0)
    left, right = mult_operators(kq, e11)
    assert left.matrix == right.matrix
    expect = [Fraction(1), Fraction(1, 2), Fraction(1, 2), Fraction(0)]
    for j in range(4):
        assert left.apply(kq.basis_element(j)) == kq.basis_element(j).scaled(expect[j])


def test_identity_element(m2q, kq):
    e = identity_element(m2q)
    assert e == m2q.basis_element(0) + m2q.basis_element(3)
    assert identity_element(kq) == kq.basis_element(0) + kq.basis_element(3)


def test_identity_element_absent(q):
    zero = q.zero()
    a = Algebra(q, ("z",), [[[zero]]])
    assert identity_element(a) is None


# ---------------------------------------------------------------------------
# constructors


def test_matrix_units_is_associative_all_fields(q, f3, f5):
    for f in (q, f3, f5):
        rep = identity_report(matrix_units_algebra(f))
        assert rep.associative


def test_jordanify_idempotent_transformation(m2q, kq):
    again = jordanify(kq)
    assert again.table == kq.table
    assert jordanify(m2q).table == kq.table


def test_jordanify_fixes_commutative_tables(f3xf3):
    assert jordanify(f3xf3).table == f3xf3.table


def test_jordanify_char2_rejected():
    with pytest.raises(CharacteristicUnsupported):
        jordanify(matrix_units_algebra(prime_field(2)))


def test_linearized_equals_exhaustive_on_k5(kf5):
    rep = identity_report(kf5)  # the per-slot candidate rule (p = 5)
    assert rep.jordan is oracles.jordan_exhaustive(kf5) is True


# ---------------------------------------------------------------------------
# file format


def test_algebra_file_roundtrip(tmp_path, kq, kf3):
    for alg in (kq, kf3):
        path = tmp_path / f"{alg.name}.alg"
        save_algebra(alg, path)
        back = load_algebra(path)
        assert back.table == alg.table
        assert back.basis_names == alg.basis_names
        assert back.field == alg.field


def test_algebra_dict_rejects_duplicates(q, m2q):
    data = algebra_to_dict(m2q)
    data["products"].append(dict(data["products"][0]))
    with pytest.raises(FormatError):
        algebra_from_dict(data)


def test_algebra_dict_rejects_out_of_range(m2q):
    data = algebra_to_dict(m2q)
    data["products"][0]["k"] = 9
    with pytest.raises(FormatError):
        algebra_from_dict(data)


def test_algebra_dict_rejects_dim_zero(q):
    with pytest.raises(FormatError):
        algebra_from_dict({"field": {"type": "rational"}, "dim": 0, "basis": [], "products": []})


def test_structure_constants_are_capped_at_dim_100(f3):
    # dim^3 <= ENUMERATION_CAP, so a small file cannot make a huge dense table
    names = [f"b{i}" for i in range(101)]
    data = {"field": {"type": "prime", "p": 3}, "dim": 100, "basis": names[:100], "products": []}
    assert algebra_from_dict(data).dim == 100
    with pytest.raises(EnumerationTooLarge):
        algebra_from_dict({**data, "dim": 101, "basis": names})
    with pytest.raises(EnumerationTooLarge):  # refused before the table is read
        Algebra(f3, names, [])


def test_algebra_rejects_duplicate_basis_names(q):
    zero = q.zero()
    with pytest.raises(FormatError):
        Algebra(q, ("a", "a"), [[[zero] * 2] * 2] * 2)


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.alg"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        load_algebra(path)


def test_prime_field_scalars_in_files(tmp_path, kf5):
    path = tmp_path / "k5.alg"
    save_algebra(kf5, path)
    text = json.loads(path.read_text())
    assert all(entry["c"] in {"1", "2", "3", "4"} for entry in text["products"])
