"""The frontier closure against a per-element forcing queue.

Both propagations compute the same least fixpoint on a partial table.
The frontier closure stops once a table is complete, where the queue
runs on; re-verification rejects any complete table the queue would
refute. So a search must emit the same tables in the same order, expand
the same nodes and end in the same budget state with either one.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jordankit import (
    Algebra,
    SearchBudget,
    enumerate_multiplicative_bijections,
    enumerate_n_derivations,
    prime_field,
)
from jordankit import search as search_module

import oracles
from strategies import f3_algebras


def run(search):
    tables = [tuple(t.index_table().tolist()) for t in search]
    return tables, search.nodes, search.exhausted, search.budget_exceeded


def assert_same_run(search):
    reference = oracles.reference_search(search)
    got = run(search)
    assert got == run(reference)
    return got


def make_search(algebra, kind, n, **kwargs):
    if kind == "bijections":
        return enumerate_multiplicative_bijections(algebra, algebra, n, **kwargs)
    return enumerate_n_derivations(algebra, n, **kwargs)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["bijections", "derivations"])
def test_kf3_matches_reference(kf3, kind, n):
    tables, nodes, exhausted, _ = assert_same_run(make_search(kf3, kind, n))
    assert exhausted
    assert len(tables) == {"bijections": 48, "derivations": 27}[kind]
    assert nodes == {"bijections": 556, "derivations": 369}[kind]


def test_registered_idempotent_matches_reference(kf3):
    search = enumerate_n_derivations(kf3, 2, idempotent=kf3.basis_element(0))
    tables, _, exhausted, _ = assert_same_run(search)
    assert exhausted and len(tables) == 27


@pytest.mark.parametrize("kind", ["bijections", "derivations"])
def test_node_budget_matches_reference(kf3, kind):
    search = make_search(kf3, kind, 2, budget=SearchBudget(max_nodes=40))
    _, nodes, exhausted, budget_exceeded = assert_same_run(search)
    assert budget_exceeded and not exhausted
    assert nodes == 40


@pytest.mark.parametrize("kind", ["bijections", "derivations"])
@pytest.mark.parametrize("name,n", [("f3xf3", 2), ("f3xf3", 3), ("m2f3", 2)])
def test_small_and_noncommutative_match_reference(request, name, n, kind):
    algebra = request.getfixturevalue(name)
    _, _, exhausted, _ = assert_same_run(make_search(algebra, kind, n))
    assert exhausted


def test_chunked_gathers_match_reference(kf3, monkeypatch):
    # a tiny chunk splits nearly every gather of the degree-3 closure
    monkeypatch.setattr(search_module, "_GATHER_CHUNK", 7)
    search = enumerate_n_derivations(kf3, 3, budget=SearchBudget(max_nodes=120))
    _, nodes, _, _ = assert_same_run(search)
    assert nodes == 120


def test_frontier_conflicts_fail_and_undo(kf3):
    search = enumerate_multiplicative_bijections(kf3, kf3, 2)

    def commit(xs, vs):
        # one round of _assign: record the counts, then commit the frontier
        search.trail.append(search.counts.copy())
        return search._commit(np.array(xs), np.array(vs))

    for xs, vs in (
        ([1, 1], [2, 3]),  # one element forced to two images
        ([1, 2], [5, 5]),  # one image taken twice within the frontier
    ):
        assert not commit(xs, vs)
        search._undo(0)
        assert (search.img == -1).all() and not search.used.any()
        assert search.counts == [0] and search.trail == []
    assert commit([0], [0])
    assert not commit([1], [0])  # an image already taken


def test_verify_rejects_tables_the_closure_left_unchecked(monkeypatch):
    # b0 * b0 = 2 b0 over F3: d(b0) = c b0 forces d(2 b0) = c b0, which
    # completes the table before the closure reaches d(b0 * 2 b0); only the
    # zero map is a derivation, so re-verification must reject the others.
    algebra = Algebra(prime_field(3), ("b0",), [[[2]]])
    search = make_search(algebra, "derivations", 2)
    verify = search._verify
    rejected = []

    def counting_verify(table):
        ok = verify(table)
        if not ok:
            rejected.append(tuple(table.index_table().tolist()))
        return ok

    monkeypatch.setattr(search, "_verify", counting_verify)
    tables, nodes, exhausted, _ = assert_same_run(search)
    assert tables == [(0, 0, 0)] and nodes == 3 and exhausted
    assert rejected == [(0, 1, 1), (0, 2, 2)]

    unverified = make_search(algebra, "derivations", 2)
    monkeypatch.setattr(unverified, "_verify", lambda table: True)
    assert run(unverified)[0] == [(0, 0, 0), (0, 1, 1), (0, 2, 2)]


@settings(max_examples=80, deadline=None, database=None)
@given(f3_algebras(), st.sampled_from(["bijections", "derivations"]), st.integers(2, 3))
def test_random_tables_match_reference(algebra, kind, n):
    # re-verification also prunes: a stricter tree set must not change the
    # stream or the node count against the eager queue oracle
    for tree_mode in ("canonical", "all_trees"):
        search = make_search(algebra, kind, n, tree_mode=tree_mode,
                             budget=SearchBudget(max_nodes=150))
        assert_same_run(search)
